/// \file approx_conv.hpp
/// \brief Convolution / linear layers with AppMult-simulated integer
///        arithmetic (Fig. 4) and LUT-based multiplier gradients (Eq. 9).
///
/// Each layer runs in one of two modes:
///   - kFloat: ordinary float convolution (used for pretraining);
///   - kQuantized: the paper's integer path — weights and activations are
///     affine-quantized (Eq. 7), every product is looked up in the AppMult
///     LUT, and the accumulated integer result is dequantized (Eq. 8).
/// In quantized mode the backward pass follows Eq. (9): the multiplier
/// gradient ∂AM/∂W (∂AM/∂X) comes from a precomputed GradLut — either the
/// STE baseline or the paper's difference-based approximation — and the
/// quantizer contributes its clamp-aware straight-through factor.
///
/// With the *exact* multiplier LUT and the STE GradLut, the quantized path
/// is mathematically identical to a fake-quantized float convolution; the
/// test suite pins this equivalence.
///
/// Per-invocation state (geometry, float-mode im2col columns, the scratch
/// arena with quantized code panels and masks) lives in the caller's
/// nn::Context; the layer
/// itself keeps only weights, the multiplier config, and the activation
/// observer (persistent calibration state).
#pragma once

#include "appmult/appmult.hpp"
#include "core/grad_lut.hpp"
#include "kernels/lut_kernels.hpp"
#include "kernels/quantize.hpp"
#include "kernels/workspace.hpp"
#include "nn/module.hpp"
#include "quant/quant.hpp"

#include <memory>

namespace amret::approx {

/// Execution mode of an approximate layer.
enum class ComputeMode { kFloat, kQuantized };

/// Shared multiplier configuration: product LUT + gradient LUT, plus the
/// identity metadata (registry name, gradient HWS/mode) that per-layer
/// assignments thread through to engine descriptions and certificates.
/// An empty name means an ad-hoc config (hand-built LUTs, exact_ste()).
struct MultiplierConfig {
    std::shared_ptr<const appmult::AppMultLut> lut;
    std::shared_ptr<const core::GradLut> grad;
    std::string name;                                   ///< registry name, "" = ad-hoc
    unsigned hws = 0;                                   ///< gradient half-window size
    core::GradientMode grad_mode = core::GradientMode::kSte;

    [[nodiscard]] bool valid() const {
        return lut && grad && !lut->empty() && lut->bits() == grad->bits();
    }
    [[nodiscard]] unsigned bits() const { return lut ? lut->bits() : 0; }

    /// Exact multiplier with STE gradients at the given width (the QAT
    /// reference configuration).
    static MultiplierConfig exact_ste(unsigned bits);
};

/// 2-D convolution whose multiplications can be replaced by an AppMult.
class ApproxConv2d : public nn::Module {
public:
    ApproxConv2d(std::int64_t in_ch, std::int64_t out_ch, std::int64_t kernel,
                 std::int64_t stride, std::int64_t pad, util::Rng& rng);

    tensor::Tensor forward(const tensor::Tensor& x, nn::Context& ctx) override;
    tensor::Tensor backward(const tensor::Tensor& gy, nn::Context& ctx) override;
    [[nodiscard]] nn::BatchCoupling coupling() const override;
    void batch_pre_pass(const tensor::Tensor& x) override;
    void collect_params(std::vector<nn::Param*>& out) override;
    void save_extra_state(std::vector<float>& out) const override;
    void load_extra_state(const float*& cursor) override;
    [[nodiscard]] std::string name() const override { return "ApproxConv2d"; }

    /// Switches float / quantized execution.
    void set_mode(ComputeMode mode) { mode_ = mode; }
    [[nodiscard]] ComputeMode mode() const { return mode_; }

    /// Installs the multiplier used in quantized mode.
    void set_multiplier(MultiplierConfig config);
    [[nodiscard]] const MultiplierConfig& multiplier() const { return mult_; }

    /// Per-output-channel weight quantization (each filter gets its own
    /// scale/zero-point, standard in production QAT). Default: per-tensor.
    void set_per_channel_weights(bool enabled) { per_channel_ = enabled; }
    [[nodiscard]] bool per_channel_weights() const { return per_channel_; }

    nn::Param weight; ///< (O, C, K, K)
    nn::Param bias;   ///< (O)

    [[nodiscard]] std::int64_t in_channels() const { return in_ch_; }
    [[nodiscard]] std::int64_t out_channels() const { return out_ch_; }
    [[nodiscard]] std::int64_t kernel() const { return kernel_; }
    [[nodiscard]] std::int64_t stride() const { return stride_; }
    [[nodiscard]] std::int64_t padding() const { return pad_; }

    /// Multiplications executed by the most recent forward call through
    /// \p ctx (positions x patch x out_channels); 0 before any forward.
    [[nodiscard]] std::int64_t last_forward_macs(const nn::Context& ctx) const;

private:
    // Per-invocation state (nn::Context slot). Quant-mode scratch (code
    // panels, masks, raw gradients) lives in the embedded workspace arena:
    // reset at the start of each quantized forward, buffers remain valid
    // through the matching backward (DESIGN.md §10/§11).
    struct State {
        tensor::ConvGeom geom;
        tensor::Tensor cols;                  // float mode: (P, patch)
        kernels::Workspace ws;                // quant mode scratch arena
        kernels::QuantView xq;                // quant mode: mask + params of
                                              // the activations (codes null)
        kernels::QuantView wq;                // quant mode: codes of weights
        float* wscale_per_o = nullptr;        // per-channel row scales (ws-backed)
        std::int32_t* wzero_per_o = nullptr;  // per-channel row zeros (ws-backed)
        kernels::WeightPanels wpan;           // quant mode: pre-shifted weights
        kernels::ActPanels xpan;              // quant mode: fused im2col panels
    };

    tensor::Tensor forward_float(const tensor::Tensor& x, State& st,
                                 nn::Context& ctx);
    tensor::Tensor forward_quant(const tensor::Tensor& x, State& st,
                                 nn::Context& ctx);
    tensor::Tensor backward_float(const tensor::Tensor& gy, State& st,
                                  nn::Context& ctx);
    tensor::Tensor backward_quant(const tensor::Tensor& gy, State& st,
                                  nn::Context& ctx);
    /// LUT-GEMM operands of the quantized forward captured in \p st.
    [[nodiscard]] kernels::BlockedGemmArgs gemm_args(const State& st) const;

    std::int64_t in_ch_, out_ch_, kernel_, stride_, pad_;
    ComputeMode mode_ = ComputeMode::kFloat;
    bool per_channel_ = false;
    MultiplierConfig mult_;
    quant::EmaObserver act_observer_;
};

/// Fully connected layer with the same two modes (provided for completeness;
/// the paper approximates conv layers only and the stock models keep their
/// classifier in kFloat).
class ApproxLinear : public nn::Module {
public:
    ApproxLinear(std::int64_t in_features, std::int64_t out_features, util::Rng& rng);

    tensor::Tensor forward(const tensor::Tensor& x, nn::Context& ctx) override;
    tensor::Tensor backward(const tensor::Tensor& gy, nn::Context& ctx) override;
    [[nodiscard]] nn::BatchCoupling coupling() const override;
    void batch_pre_pass(const tensor::Tensor& x) override;
    void collect_params(std::vector<nn::Param*>& out) override;
    void save_extra_state(std::vector<float>& out) const override;
    void load_extra_state(const float*& cursor) override;
    [[nodiscard]] std::string name() const override { return "ApproxLinear"; }

    void set_mode(ComputeMode mode) { mode_ = mode; }
    [[nodiscard]] ComputeMode mode() const { return mode_; }
    void set_multiplier(MultiplierConfig config);
    [[nodiscard]] const MultiplierConfig& multiplier() const { return mult_; }

    nn::Param weight; ///< (out, in)
    nn::Param bias;   ///< (out)

    /// Multiplications executed by the most recent forward call through
    /// \p ctx.
    [[nodiscard]] std::int64_t last_forward_macs(const nn::Context& ctx) const;

private:
    struct State {
        tensor::Tensor x;       // float mode cache
        kernels::Workspace ws;  // quant mode scratch arena (DESIGN.md §10)
        kernels::QuantView xq; // mask + params (codes live in xpan)
        kernels::QuantView wq;
        std::int64_t batch = 0;
        kernels::WeightPanels wpan;
        kernels::ActPanels xpan;
    };

    [[nodiscard]] kernels::BlockedGemmArgs gemm_args(const State& st) const;

    std::int64_t in_features_, out_features_;
    ComputeMode mode_ = ComputeMode::kFloat;
    MultiplierConfig mult_;
    quant::EmaObserver act_observer_;
};

/// Applies \p config and \p mode to every approximate layer in \p root.
void configure_approx_layers(nn::Module& root, const MultiplierConfig& config,
                             ComputeMode mode);

/// Sets only the gradient LUT on every approximate layer (used to compare
/// gradient estimators over the same forward behaviour).
void set_gradient_luts(nn::Module& root, std::shared_ptr<const core::GradLut> grad);

} // namespace amret::approx
