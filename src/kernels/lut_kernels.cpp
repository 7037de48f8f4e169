#include "kernels/lut_kernels.hpp"

#include "kernels/simd/simd.hpp"
#include "kernels/tuning.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "runtime/parallel.hpp"

namespace amret::kernels {

void accumulate_bias_grad(const float* gyp, std::int64_t p, std::int64_t o,
                          float* bias_grad) {
    runtime::parallel_accumulate(
        0, p, runtime::grain_for(p, tune::kGrainBiasRows),
        static_cast<std::size_t>(o),
        [&](std::int64_t pidx, float* acc) {
            const float* row = gyp + pidx * o;
            for (std::int64_t c = 0; c < o; ++c) acc[c] += row[c];
        },
        bias_grad);
}

void accumulate_panel_block_scalar(const BlockedGemmArgs& a, std::int64_t rb,
                                   std::int64_t ob, std::int64_t* acc) {
    const PanelPlan& xp = a.x.plan;
    const PanelPlan& wp = a.w.plan;
    const std::int64_t tp = xp.tr, to = wp.tr;
    const std::int64_t pr = xp.block_rows(rb);
    const std::int64_t orr = wp.block_rows(ob);
    const std::int64_t kblocks = xp.depth_blocks();
    std::fill(acc, acc + orr * tp, std::int64_t{0});
    for (std::int64_t kb = 0; kb < kblocks; ++kb) {
        const std::int64_t kr = xp.block_depth(kb);
        const std::uint16_t* xpan = a.x.codes + xp.panel_offset(rb, kb);
        const std::uint32_t* wpan = a.w.codes + wp.panel_offset(ob, kb);
        for (std::int64_t kk = 0; kk < kr; ++kk) {
            const std::uint16_t* xv = xpan + kk * tp;
            const std::uint32_t* wv = wpan + kk * to;
            for (std::int64_t oo = 0; oo < orr; ++oo) {
                const std::int32_t* lrow = a.lut + wv[oo];
                std::int64_t* arow = acc + oo * tp;
                for (std::int64_t pp = 0; pp < pr; ++pp)
                    arow[pp] += lrow[xv[pp]];
            }
        }
    }
}

void accumulate_panel_block(const BlockedGemmArgs& a, std::int64_t rb,
                            std::int64_t ob, std::int64_t* acc) {
    if (!simd::accumulate_panel(a, rb, ob, acc))
        accumulate_panel_block_scalar(a, rb, ob, acc);
}

void lut_forward_blocked(const BlockedGemmArgs& args, const float* bias,
                         float* y, Workspace& ws) {
    AMRET_OBS_SPAN("kernels.lut_forward_blocked");
    AMRET_OBS_COUNT("kernels.gemm.rows", args.p);
    const std::int64_t nblocks = args.x.plan.row_blocks();
    const std::int64_t grain = runtime::grain_for(nblocks, 1);
    const std::int64_t chunks = runtime::chunk_count(0, nblocks, grain);
    const std::int64_t acc_elems = args.x.plan.tr * args.w.plan.tr;
    std::int64_t* acc = ws.alloc<std::int64_t>(chunks * acc_elems);
    // Position row-blocks write disjoint y rows; each chunk owns its own
    // accumulator tile. Per-element values are order-independent (int64
    // accumulator, one float epilogue expression per element).
    runtime::parallel_for_chunks(0, nblocks, grain,
                                 [&](std::int64_t b0, std::int64_t b1,
                                     std::size_t chunk) {
        lut_gemm_blocked_tile(
            args, b0, b1, acc + static_cast<std::int64_t>(chunk) * acc_elems,
            [&](std::int64_t pp, std::int64_t oo, std::int64_t corrected) {
            const float ss = args.row_scale_w(oo) * args.scale_x;
            y[pp * args.o + oo] =
                ss * static_cast<float>(corrected) + (bias ? bias[oo] : 0.0f);
        });
    });
}

namespace {

/// The scalar sweep over depth columns [k0, k1): the scalar-dispatch path
/// of lut_backward_blocked, and the finisher of the columns a SIMD leaf
/// leaves (simd::backward_columns).
void backward_columns_scalar(const BlockedGemmArgs& args, const float* gyp,
                             const float* grad_pairs, std::int64_t k0,
                             std::int64_t k1, float* gw_raw, float* gx_raw) {
    const std::int64_t o_rows = args.o, depth = args.k;
    const float zx = static_cast<float>(args.zero_x);
    for (std::int64_t pp = 0; pp < args.p; ++pp) {
        const std::uint16_t* xrow = args.x.row_major + pp * depth;
        const float* gyrow = gyp + pp * o_rows;
        float* gxrow = gx_raw + pp * depth;
        for (std::int64_t oo = 0; oo < o_rows; ++oo) {
            const float g = gyrow[oo];
            if (g == 0.0f) continue;
            const float gs = g * args.row_scale_w(oo);
            const float zw = static_cast<float>(args.row_zero_w(oo));
            const std::uint16_t* wrow = args.w.row_major + oo * depth;
            float* gwrow = gw_raw + oo * depth;
            for (std::int64_t kk = k0; kk < k1; ++kk) {
                const float* pair =
                    grad_pairs +
                    2 * ((static_cast<std::uint32_t>(wrow[kk]) << args.bits) |
                         xrow[kk]);
                gxrow[kk] += gs * (pair[0] - zw);
                gwrow[kk] += g * (pair[1] - zx);
            }
        }
    }
}

} // namespace

void lut_backward_blocked(const BlockedGemmArgs& args, const float* gyp,
                          const float* grad_pairs, float* gw_raw, float* gx_raw) {
    AMRET_OBS_SPAN("kernels.lut_backward_blocked");
    AMRET_OBS_COUNT("kernels.gemm.backward_rows", args.p);
    assert(args.w.row_major && args.x.row_major &&
           "the backward sweep reads the row-major code mirrors");
    const std::int64_t depth = args.k;
    const std::int64_t groups =
        (depth + tune::kBackwardGroup - 1) / tune::kBackwardGroup;
    // Depth chunks write disjoint gx/gw columns, and inside each chunk every
    // element keeps its defining order (p outer for gw, o inner for gx), so
    // the split never changes a bit.
    runtime::parallel_for(0, groups,
                          runtime::grain_for(groups, tune::kGrainBackwardGroups),
                          [&](std::int64_t g0, std::int64_t g1) {
        const std::int64_t k0 = g0 * tune::kBackwardGroup;
        const std::int64_t k1 = std::min(g1 * tune::kBackwardGroup, depth);
        const std::int64_t done = simd::backward_columns(args, gyp, grad_pairs,
                                                         k0, k1, gw_raw, gx_raw);
        if (done < k1)
            backward_columns_scalar(args, gyp, grad_pairs, done, k1, gw_raw,
                                    gx_raw);
    });
}

} // namespace amret::kernels
