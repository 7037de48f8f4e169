/// \file inference.hpp
/// \brief Integer-arithmetic-only inference — the deployment path of Fig. 1.
///
/// Training simulates the accelerator with fake quantization; the deployed
/// accelerator runs pure integer arithmetic (Jacob et al., CVPR'18). This
/// engine compiles a trained sequential CNN into that form:
///   1. BatchNorm layers are folded into the preceding convolution,
///   2. a float calibration pass records every fused op's output range,
///   3. weights are quantized to codes; each op gets a fixed-point
///      requantization multiplier M = s_in*s_w/s_out as (int32 mul, shift),
///   4. execution uses uint8 activation tensors, the AppMult product LUT,
///      int32/int64 accumulation, integer bias addition, fixed-point
///      requantization with clamping, and integer max/avg pooling.
/// The classifier head stays float (dequantize before it), matching the
/// paper's setup where only conv layers are approximate.
///
/// Supported topology: a Sequential of ApproxConv2d / BatchNorm2d / ReLU /
/// MaxPool2d / AvgPool2d / GlobalAvgPool / Flatten / Dropout / Linear
/// (i.e. LeNet and the VGG family; residual ResNets need skip-scale
/// alignment, which is out of scope here).
#pragma once

#include "analysis/graph.hpp"
#include "approx/approx_conv.hpp"
#include "data/dataset.hpp"
#include "kernels/workspace.hpp"
#include "nn/layers.hpp"
#include "nn/module.hpp"

#include <cstdint>
#include <memory>
#include <vector>

namespace amret::approx {

/// What the engine does with the static-analysis verdict at compile time.
enum class SafetyPolicy {
    kOff,     ///< skip analysis entirely
    kWarn,    ///< analyze; warn once per graph key when unprovable
    kEnforce, ///< analyze; refuse to construct an unprovable graph
};

/// Policy from the AMRET_ANALYZE environment variable ("off" / "warn" /
/// "enforce"; default warn) — the engine constructor's default.
SafetyPolicy safety_policy_from_env();

/// A uint8 activation tensor with its affine interpretation. The storage is
/// a view into a kernels::Workspace arena (valid until that workspace's next
/// reset/trim), so chaining ops through one arena performs no heap
/// allocation in steady state. Elements are channel-interleaved NHWC
/// (((n*h + y)*w + x)*c + ch): the conv epilogue writes position-major at
/// unit stride and the fused im2col packer reads channel-adjacent taps from
/// one cache line.
struct QTensor {
    std::uint8_t* data = nullptr; ///< workspace-backed, not owned
    std::int64_t n = 0, c = 0, h = 0, w = 0; ///< logical dims (h=w=1 for flat)
    float scale = 1.0f;
    std::int32_t zero = 0;

    [[nodiscard]] std::int64_t numel() const { return n * c * h * w; }
};

/// Compiled integer-only network.
class IntInferenceEngine {
public:
    /// Compiles \p model (see the supported topology above). \p calibration
    /// provides activations for range calibration; \p calib_samples bounds
    /// how many are used. The model itself is not modified.
    /// Throws std::invalid_argument on unsupported layers. Unless \p safety
    /// is kOff, the compiled graph is run through the static overflow
    /// analyzer (cached by graph digest); kEnforce throws std::runtime_error
    /// when the proof fails, kWarn warns once per graph key.
    IntInferenceEngine(nn::Sequential& model, const data::Dataset& calibration,
                       std::int64_t calib_samples = 128,
                       SafetyPolicy safety = safety_policy_from_env());
    ~IntInferenceEngine(); // out-of-line: Op is incomplete here

    /// Runs integer-only inference; returns float logits (N, classes).
    /// Thin wrapper over forward_into() using the engine's own workspace —
    /// NOT safe to call concurrently on one engine (use forward_into with a
    /// per-caller workspace for that).
    tensor::Tensor forward(const tensor::Tensor& images);

    /// Runs integer-only inference with caller-provided scratch and output.
    /// All engine state is immutable after construction, so concurrent calls
    /// on one shared engine are safe as long as each caller brings its own
    /// \p ws. \p logits is shaped to (N, classes) in place and reused when it
    /// already matches, so a steady-state caller performs no heap allocation.
    /// Every kernel in the path is row-independent (integer ops + fixed-order
    /// float dot products in the head), so batched rows are bitwise-identical
    /// to single-sample calls on the same inputs.
    void forward_into(const tensor::Tensor& images, kernels::Workspace& ws,
                      tensor::Tensor& logits) const;

    /// Top-1 accuracy over a dataset.
    double evaluate(const data::Dataset& dataset, std::int64_t batch_size = 64);

    /// Number of compiled integer ops (fused convs + pools).
    [[nodiscard]] std::size_t num_ops() const { return ops_.size(); }

    /// Plain-data description of the compiled integer graph for the static
    /// analyzer (identity metadata left empty; callers that know the model /
    /// multiplier names fill them in).
    [[nodiscard]] analysis::GraphDesc describe() const;

    /// The safety certificate derived (or cache-hit) at construction;
    /// nullptr when the policy was kOff.
    [[nodiscard]] std::shared_ptr<const analysis::Certificate> certificate() const {
        return certificate_;
    }

    /// Output width of the float classifier head.
    [[nodiscard]] std::int64_t num_classes() const {
        return head_chain_.back().weight.dim(0);
    }

    struct Op; // public so op implementations can derive in the .cpp

private:
    /// Float classifier head: Linear (ReLU Linear)* chain copied at compile.
    struct HeadLayer {
        tensor::Tensor weight; // (out, in)
        tensor::Tensor bias;   // (out)
        bool relu = false;
    };

    std::vector<std::unique_ptr<Op>> ops_;
    std::vector<HeadLayer> head_chain_;
    std::shared_ptr<const analysis::Certificate> certificate_;
    unsigned act_bits_ = 8; ///< network-wide activation width (min LUT width)
    float input_scale_ = 1.0f;
    std::int32_t input_zero_ = 0;
    /// Layout-plan key for workspace-arena high-water tracking (Workspace::
    /// begin): a hash of the compiled graph digest, so a serve worker
    /// alternating between engines keeps each one's working set accounted.
    std::uint64_t arena_key_ = 0;
    kernels::Workspace ws_; ///< scratch arena backing the forward() wrapper

    QTensor quantize_input(const tensor::Tensor& images,
                           kernels::Workspace& ws) const;
};

/// The fixed-point requantization helpers now live in src/quant
/// (quant::FixedPointMultiplier et al.); aliases kept for compatibility.
using FixedPointMultiplier = quant::FixedPointMultiplier;
using quant::fixed_point_rescale;
using quant::quantize_multiplier;

} // namespace amret::approx
