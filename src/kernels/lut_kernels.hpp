/// \file lut_kernels.hpp
/// \brief The LUT-GEMM kernels: forward over blocked panels, and the fused
/// one-sweep backward over k-contiguous codes.
///
/// These are the CPU equivalents of the paper's CUDA kernels and the single
/// implementation of the Fig. 4 dataflow: the forward kernel replaces every
/// multiply-accumulate with a product-LUT lookup and applies the Eq. (8)
/// zero-point correction; the backward kernel replaces the multiplier
/// derivative with gradient-LUT lookups (Eq. 9). ApproxConv2d, ApproxLinear
/// and the integer inference engine all run on them; forward operands come
/// pre-tiled as panels (layout.hpp) with the Eq. (8) row sums hoisted into
/// the panel headers, and the per-tile accumulation runs through the SIMD
/// dispatch seam (kernels/simd).
///
/// The backward is one sweep. Grad-X and grad-W of Eq. (9) look up the same
/// index (w << bits) | x, so both gradients come from one load of an
/// interleaved (∂AM/∂X, ∂AM/∂W) pair table (core::GradLut::pair_table()).
/// The sweep reads the row-major code mirrors the panels carry
/// (WeightPanels::row_major, ActPanels::row_major), so vector lanes run
/// along contiguous depth and no operand is gathered. Loop order: positions
/// p ascending (outer), the nonzero output gradients of row p in ascending
/// o (inner), lanes across depth k. Each gx[p, k] then sums over ascending
/// o and each gw[o, k] over ascending p — both defining orders at once.
/// Depth columns are independent, so the parallel split is over depth
/// chunks (whole tune::kBackwardGroup column groups).
///
/// Blocking never changes results, and every kernel memcmp-matches the
/// order-faithful naive reference over row-major codes that lives in
/// tests/lut_reference.hpp:
///   - the forward accumulator is int64 — integer addition is associative,
///     so any panel order (and any split of the inner k loop) is exact;
///   - the backward float accumulations preserve their defining orders:
///     gx[p, k] sums over output channels in ascending o for every element,
///     gw[o, k] sums over positions in ascending p, and each evaluates the
///     reference's float expression.
/// Combined with the runtime determinism contract (chunks depend only on
/// shape and grain), outputs are bitwise-identical for any AMRET_THREADS,
/// tile configuration and SIMD level.
#pragma once

#include "kernels/layout.hpp"
#include "kernels/workspace.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>

namespace amret::kernels {

/// Column sums of a (P, O) position-major output gradient into \p bias_grad
/// (accumulated, not overwritten) via the deterministic per-chunk reduction.
/// The grain (tune::kGrainBiasRows) is part of the numerical contract: it
/// fixes the float association order of the reduction.
void accumulate_bias_grad(const float* gyp, std::int64_t p, std::int64_t o,
                          float* bias_grad);

/// One LUT GEMM over blocked operands. Both panels must share the same
/// depth blocking (same tk and logical depth k).
struct BlockedGemmArgs {
    unsigned bits = 8;
    const std::int32_t* lut = nullptr; ///< product LUT, 2^(2*bits) entries
    WeightPanels w;                    ///< plan.rows = o, pre-shifted codes
    ActPanels x;                       ///< plan.rows = p
    std::int64_t o = 0;
    std::int64_t p = 0;
    std::int64_t k = 0;
    float scale_w = 1.0f, scale_x = 1.0f;
    std::int32_t zero_w = 0, zero_x = 0;
    const float* scale_w_per_o = nullptr;
    const std::int32_t* zero_w_per_o = nullptr;

    [[nodiscard]] float row_scale_w(std::int64_t oo) const {
        return scale_w_per_o ? scale_w_per_o[oo] : scale_w;
    }
    [[nodiscard]] std::int32_t row_zero_w(std::int64_t oo) const {
        return zero_w_per_o ? zero_w_per_o[oo] : zero_w;
    }
};

/// Fills the int64 accumulator tile of block (rb, ob) with the scalar panel
/// loop: acc[oo * a.x.plan.tr + pp] = sum_k LUT[w, x] over the real rows and
/// depth of the block (pad rows are left zero). This is the scalar-dispatch
/// fallback and the bitwise oracle every SIMD kernel memcmps against.
/// \p acc must hold
/// a.x.plan.tr * a.w.plan.tr int64s.
///
/// Inner loop: for a fixed depth index the activation panel column and the
/// accumulator row are walked at unit stride, and each pre-shifted weight
/// code pins one product-LUT row (`lut + wcode`) that consecutive activation
/// codes index directly — the layout refactor's cache contract.
void accumulate_panel_block_scalar(const BlockedGemmArgs& a, std::int64_t rb,
                                   std::int64_t ob, std::int64_t* acc);

/// Same contract, routed through the runtime SIMD dispatch
/// (kernels::simd::select()): the fastest eligible vector kernel fills the
/// tile, falling back to accumulate_panel_block_scalar when none applies.
/// The forward accumulator is int64, so the result is bitwise-identical
/// either way; SIMD kernels may additionally fill pad rows/lanes (callers'
/// epilogues never read them).
void accumulate_panel_block(const BlockedGemmArgs& a, std::int64_t rb,
                            std::int64_t ob, std::int64_t* acc);

/// Integer GEMM core over position row-blocks [rb0, rb1) of
/// a.x.plan. \p acc must hold a.x.plan.tr * a.w.plan.tr int64s. Serial —
/// callers own the parallel decomposition (blocks write disjoint rows).
/// The accumulation of each (rb, ob) tile runs through the SIMD dispatch
/// seam (accumulate_panel_block); only the epilogue is inlined here.
template <class Epilogue>
void lut_gemm_blocked_tile(const BlockedGemmArgs& a, std::int64_t rb0,
                           std::int64_t rb1, std::int64_t* acc, Epilogue&& epi) {
    const PanelPlan& xp = a.x.plan;
    const PanelPlan& wp = a.w.plan;
    assert(xp.depth == wp.depth && xp.tk == wp.tk && "mismatched depth blocking");
    const std::int64_t tp = xp.tr, to = wp.tr;
    const std::int64_t oblocks = wp.row_blocks();
    for (std::int64_t rb = rb0; rb < rb1; ++rb) {
        const std::int64_t pr = xp.block_rows(rb);
        const std::int64_t pbase = rb * tp;
        for (std::int64_t ob = 0; ob < oblocks; ++ob) {
            const std::int64_t orr = wp.block_rows(ob);
            const std::int64_t obase = ob * to;
            accumulate_panel_block(a, rb, ob, acc);
            for (std::int64_t pp = 0; pp < pr; ++pp) {
                const std::int64_t sx = a.x.sum_x[pbase + pp];
                for (std::int64_t oo = 0; oo < orr; ++oo) {
                    const std::int32_t zw = a.row_zero_w(obase + oo);
                    const std::int64_t corrected =
                        acc[oo * tp + pp] -
                        static_cast<std::int64_t>(a.zero_x) * a.w.sum_w[obase + oo] -
                        static_cast<std::int64_t>(zw) * sx +
                        a.k * static_cast<std::int64_t>(zw) * a.zero_x;
                    epi(pbase + pp, obase + oo, corrected);
                }
            }
        }
    }
}

/// Forward into a (P, O) float matrix:
///   y[p, o] = s_w*s_x*(sum_k LUT[w,x] - Z_x*sumW[o] - Z_w*sumX[p]
///                      + K*Z_w*Z_x) + bias[o].
/// \p bias may be null; \p y is overwritten. Parallel over position
/// row-blocks; scratch comes from \p ws.
void lut_forward_blocked(const BlockedGemmArgs& args, const float* bias,
                         float* y, Workspace& ws);

/// Backward: accumulates the multiplier-gradient sums
///   gw_raw[o, k] += sum_p gyp[p, o] * (gradW[w,x] - Z_x)
///   gx_raw[p, k] += sum_o gyp[p, o] * s_w[o] * (gradX[w,x] - Z_w)
/// into row-major buffers the caller zero-initializes, in one sweep over
/// the row-major code mirrors args.w.row_major / args.x.row_major (both
/// required). \p grad_pairs is the interleaved gradient table
/// (core::GradLut::pair_table(): 2 * 2^(2*bits) floats, (dX, dW) per
/// index). Upstream gradients equal to zero (either sign) are skipped. The
/// weight scale is folded into gx_raw (it varies per row in per-channel
/// mode); the remaining factors — s_x for gw, and the clamp masks — are
/// applied by the caller (see ApproxConv2d::backward_quant). Parallel over
/// depth chunks; each chunk runs the SIMD dispatch leaf and finishes any
/// columns it leaves in the scalar loop.
void lut_backward_blocked(const BlockedGemmArgs& args, const float* gyp,
                          const float* grad_pairs, float* gw_raw, float* gx_raw);

} // namespace amret::kernels
