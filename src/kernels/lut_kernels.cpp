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

void lut_backward_blocked(const BlockedGemmArgs& args, const float* gyp,
                          const float* grad_w_lut, const float* grad_x_lut,
                          float* gw_raw, float* gx_raw, Workspace& ws) {
    AMRET_OBS_SPAN("kernels.lut_backward_blocked");
    AMRET_OBS_COUNT("kernels.gemm.backward_rows", args.p);
    const PanelPlan& xp = args.x.plan;
    const PanelPlan& wp = args.w.plan;
    assert(xp.depth == wp.depth && xp.tk == wp.tk);
    const std::int64_t o_rows = args.o, p_rows = args.p, depth = args.k;
    const std::int64_t tp = xp.tr, to = wp.tr, tk = xp.tk;
    const std::int64_t kblocks = xp.depth_blocks();
    const float zx = static_cast<float>(args.zero_x);

    // Activation gradients: one chunk owns each gx row. Every element
    // gx[p, k] accumulates over output channels in globally ascending o: the
    // nonzero output gradients of the row are compacted once, in ascending o,
    // and replayed per depth index — the same additions of the same float
    // products in the same order as the naive reference, i.e. bitwise-
    // identical. The panel layout
    // makes the weight read at fixed k unit-stride across the o lane
    // (wv = codes[panel + kk*to + lane]), and the compaction lists keep the
    // hot gradient-LUT rows resident.
    {
        const std::int64_t grain =
            runtime::grain_for(p_rows, tune::kGrainGemmRows);
        const std::int64_t chunks = runtime::chunk_count(0, p_rows, grain);
        // Per-chunk compaction scratch: panel offset, gradient, zero point
        // and scale of every nonzero-gradient output channel.
        std::int64_t* nz_off = ws.alloc<std::int64_t>(chunks * o_rows);
        float* nz_g = ws.alloc<float>(chunks * o_rows);
        float* nz_zw = ws.alloc<float>(chunks * o_rows);
        float* nz_s = ws.alloc<float>(chunks * o_rows);
        runtime::parallel_for_chunks(0, p_rows, grain,
                                     [&](std::int64_t pb, std::int64_t pe,
                                         std::size_t chunk) {
            std::int64_t* off = nz_off + static_cast<std::int64_t>(chunk) * o_rows;
            float* g = nz_g + static_cast<std::int64_t>(chunk) * o_rows;
            float* zw = nz_zw + static_cast<std::int64_t>(chunk) * o_rows;
            float* s = nz_s + static_cast<std::int64_t>(chunk) * o_rows;
            for (std::int64_t pp = pb; pp < pe; ++pp) {
                const float* gyrow = gyp + pp * o_rows;
                std::int64_t cnt = 0;
                for (std::int64_t oo = 0; oo < o_rows; ++oo) {
                    if (gyrow[oo] == 0.0f) continue;
                    // Panel-relative part of the weight address at depth 0;
                    // the kk term (kk * to) is added in the inner loop.
                    off[cnt] = wp.panel_offset(oo / to, 0) + oo % to;
                    g[cnt] = gyrow[oo];
                    zw[cnt] = static_cast<float>(args.row_zero_w(oo));
                    s[cnt] = args.row_scale_w(oo);
                    ++cnt;
                }
                if (cnt == 0) continue;
                const std::int64_t rb = pp / tp, pr_rel = pp % tp;
                float* gxrow = gx_raw + pp * depth;
                for (std::int64_t kb = 0; kb < kblocks; ++kb) {
                    const std::uint16_t* xpan =
                        args.x.codes + xp.panel_offset(rb, kb);
                    // All weight panels share the panel-row layout, so the
                    // depth-block hop is a constant offset per channel.
                    const std::int64_t kb_off = kb * wp.panel_elems();
                    const std::int64_t kr = xp.block_depth(kb);
                    const std::int64_t kbase = kb * tk;
                    // Depth indices are independent lanes, so the SIMD walk
                    // (kernels::simd) vectorizes across kk while replaying
                    // the compacted gradients serially per lane — same float
                    // ops, same order, bitwise-identical.
                    simd::GradXBlockArgs ga;
                    ga.wcodes = args.w.codes;
                    ga.xpan = xpan;
                    ga.grad_x_lut = grad_x_lut;
                    ga.off = off;
                    ga.g = g;
                    ga.zw = zw;
                    ga.s = s;
                    ga.cnt = cnt;
                    ga.kb_off = kb_off;
                    ga.kr = kr;
                    ga.to = to;
                    ga.tp = tp;
                    ga.pr_rel = pr_rel;
                    ga.kbase = kbase;
                    ga.gxrow = gxrow;
                    if (simd::grad_x_block(ga)) continue;
                    for (std::int64_t kk = 0; kk < kr; ++kk) {
                        const std::uint32_t xc = xpan[kk * tp + pr_rel];
                        const std::int64_t kk_off = kb_off + kk * to;
                        float acc = gxrow[kbase + kk];
                        for (std::int64_t j = 0; j < cnt; ++j) {
                            const std::uint32_t idx =
                                args.w.codes[off[j] + kk_off] | xc;
                            acc += g[j] * s[j] * (grad_x_lut[idx] - zw[j]);
                        }
                        gxrow[kbase + kk] = acc;
                    }
                }
            }
        });
    }

    // Weight gradients: one chunk owns each gw row. Every element gw[o, k]
    // accumulates over positions in globally ascending p: each position
    // block's nonzero gradients are compacted in ascending p and replayed
    // per depth index — identical order, identical float ops.
    // The activation panel read at fixed k is unit-stride across the
    // position lane.
    {
        const std::int64_t grain =
            runtime::grain_for(o_rows, tune::kGrainChannel);
        const std::int64_t chunks = runtime::chunk_count(0, o_rows, grain);
        std::int64_t* nz_pp = ws.alloc<std::int64_t>(chunks * tp);
        float* nz_g = ws.alloc<float>(chunks * tp);
        runtime::parallel_for_chunks(0, o_rows, grain,
                                     [&](std::int64_t ob, std::int64_t oe,
                                         std::size_t chunk) {
            std::int64_t* pidx = nz_pp + static_cast<std::int64_t>(chunk) * tp;
            float* pg = nz_g + static_cast<std::int64_t>(chunk) * tp;
            for (std::int64_t oo = ob; oo < oe; ++oo) {
                const std::int64_t wrb = oo / to, orel = oo % to;
                float* gwrow = gw_raw + oo * depth;
                for (std::int64_t rb = 0; rb < xp.row_blocks(); ++rb) {
                    const std::int64_t pbase = rb * tp;
                    const std::int64_t pr = xp.block_rows(rb);
                    std::int64_t cnt = 0;
                    for (std::int64_t pp = 0; pp < pr; ++pp) {
                        const float gv = gyp[(pbase + pp) * o_rows + oo];
                        if (gv == 0.0f) continue;
                        pidx[cnt] = pp;
                        pg[cnt] = gv;
                        ++cnt;
                    }
                    if (cnt == 0) continue;
                    for (std::int64_t kb = 0; kb < kblocks; ++kb) {
                        const std::uint16_t* xpan =
                            args.x.codes + xp.panel_offset(rb, kb);
                        const std::uint32_t* wpan =
                            args.w.codes + wp.panel_offset(wrb, kb);
                        const std::int64_t kr = xp.block_depth(kb);
                        const std::int64_t kbase = kb * tk;
                        simd::GradWBlockArgs ga;
                        ga.wpan = wpan;
                        ga.xpan = xpan;
                        ga.grad_w_lut = grad_w_lut;
                        ga.pidx = pidx;
                        ga.pg = pg;
                        ga.cnt = cnt;
                        ga.kr = kr;
                        ga.to = to;
                        ga.tp = tp;
                        ga.orel = orel;
                        ga.kbase = kbase;
                        ga.zx = zx;
                        ga.gwrow = gwrow;
                        if (simd::grad_w_block(ga)) continue;
                        for (std::int64_t kk = 0; kk < kr; ++kk) {
                            const std::uint32_t wshift = wpan[kk * to + orel];
                            const std::uint16_t* xv = xpan + kk * tp;
                            float acc = gwrow[kbase + kk];
                            for (std::int64_t j = 0; j < cnt; ++j) {
                                const std::uint32_t idx = wshift | xv[pidx[j]];
                                acc += pg[j] * (grad_w_lut[idx] - zx);
                            }
                            gwrow[kbase + kk] = acc;
                        }
                    }
                }
            }
        });
    }
}

} // namespace amret::kernels
