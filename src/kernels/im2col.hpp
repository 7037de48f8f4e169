/// \file im2col.hpp
/// \brief The single im2col/col2im planner of the kernel layer.
///
/// One core serves the full float im2col (float conv and pretraining) and
/// the per-channel depthwise variant; the quantized paths fuse im2col into
/// panel packing instead (layout.hpp). Both variants unfold an NCHW input
/// into a (positions, patch)
/// row-major matrix whose rows are ordered c-major then kernel row/col,
/// matching the (O, C, K, K) weight layout. Batch images fill disjoint row
/// blocks, so the planner parallelizes over images (element values are plain
/// copies — identical for any thread count and grain).
#pragma once

#include "tensor/tensor.hpp"

#include <cstdint>

namespace amret::kernels {

/// Float im2col with zero padding: x is (N, C, H, W) per \p geom, cols is
/// (geom.positions(), geom.patch()), fully overwritten.
void im2col(const float* x, const tensor::ConvGeom& geom, float* cols);

/// Convenience wrapper producing a fresh (positions, patch) tensor.
tensor::Tensor im2col(const tensor::Tensor& x, const tensor::ConvGeom& geom);

/// Single-channel im2col for depthwise convolution: x is
/// (N, total_ch, H, W); extracts channel \p channel under \p geom (which has
/// in_ch == 1) into cols, a (geom.positions(), kernel*kernel) block.
void im2col_channel(const float* x, std::int64_t total_ch, std::int64_t channel,
                    const tensor::ConvGeom& geom, float* cols);

/// Transpose of im2col: folds (positions, patch) gradients back onto the
/// input feature map, accumulating overlapping taps. \p x (batch * in_ch *
/// in_h * in_w floats) must be zero-initialized by the caller. Images
/// accumulate independently (parallel over N); within an image taps fold in
/// ascending position order, matching the serial fold bit for bit.
void col2im(const float* cols, const tensor::ConvGeom& geom, float* x);

/// Convenience wrapper producing a fresh (N, C, H, W) tensor.
tensor::Tensor col2im(const tensor::Tensor& cols, const tensor::ConvGeom& geom);

/// (P, O) position-major matrix -> (N, O, OH, OW) feature map.
void scatter_positions(const float* po, std::int64_t n, std::int64_t o,
                       std::int64_t oh, std::int64_t ow, float* y);

/// (N, O, OH, OW) feature map -> (P, O) position-major matrix.
void gather_positions(const float* y, std::int64_t n, std::int64_t o,
                      std::int64_t oh, std::int64_t ow, float* po);

} // namespace amret::kernels
