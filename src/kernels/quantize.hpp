/// \file quantize.hpp
/// \brief Quantization kernels writing into a Workspace.
///
/// Thin parallel wrappers over quant::QuantParams (Eq. 7) that replace the
/// per-call std::vector scratch of quant::quantize_tensor in the layer hot
/// paths: codes and clamp masks are bump-allocated from the layer's
/// Workspace and stay valid from forward through the matching backward
/// (see workspace.hpp lifetime rules).
#pragma once

#include "kernels/workspace.hpp"
#include "quant/quant.hpp"

#include <cstdint>

namespace amret::kernels {

/// Quantized buffer view into a Workspace: unsigned codes (uint16 covers
/// bits <= 10) plus the in-range mask the clamp-aware STE backward needs.
struct QuantView {
    std::uint16_t* codes = nullptr;
    std::uint8_t* in_range = nullptr; ///< 1 where the STE gradient passes
    quant::QuantParams params;
    std::int64_t size = 0;
};

/// Quantizes \p n floats under \p params into workspace-backed codes and
/// masks (elementwise; parallel).
QuantView quantize_into(const float* src, std::int64_t n,
                        const quant::QuantParams& params, Workspace& ws);

/// Per-output-channel weight quantization: each of the \p o rows of the
/// (o, patch) weight matrix gets its own affine parameters derived from the
/// row's min/max at \p bits. Codes/masks land in \p ws; the row scales and
/// zero points go to \p scale_per_o / \p zero_per_o (length o, caller
/// owned — typically also workspace-backed). The returned view's params
/// field is left at its default (per-row parameters supersede it).
QuantView quantize_weights_per_channel(const float* w, std::int64_t o,
                                       std::int64_t patch, unsigned bits,
                                       float* scale_per_o,
                                       std::int32_t* zero_per_o, Workspace& ws);

} // namespace amret::kernels
