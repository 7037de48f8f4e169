#include "kernels/layout.hpp"

#include "kernels/tuning.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "runtime/parallel.hpp"

#include <algorithm>
#include <cassert>

namespace amret::kernels {

namespace {

std::uint64_t fnv1a64(std::uint64_t h, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xffu;
        h *= 1099511628211ull;
    }
    return h;
}

/// Decomposed im2col tap coordinates (c-major, then ky, kx — matching the
/// (O, C, K, K) weight layout), precomputed once per packing call so the
/// inner loops do no division.
struct TapTable {
    std::int32_t* c = nullptr;
    std::int32_t* ky = nullptr;
    std::int32_t* kx = nullptr;
};

TapTable make_tap_table(const tensor::ConvGeom& geom, Workspace& ws) {
    const std::int64_t patch = geom.patch();
    TapTable taps;
    taps.c = ws.alloc<std::int32_t>(patch);
    taps.ky = ws.alloc<std::int32_t>(patch);
    taps.kx = ws.alloc<std::int32_t>(patch);
    std::int64_t t = 0;
    for (std::int64_t c = 0; c < geom.in_ch; ++c)
        for (std::int64_t ky = 0; ky < geom.kernel; ++ky)
            for (std::int64_t kx = 0; kx < geom.kernel; ++kx, ++t) {
                taps.c[t] = static_cast<std::int32_t>(c);
                taps.ky[t] = static_cast<std::int32_t>(ky);
                taps.kx[t] = static_cast<std::int32_t>(kx);
            }
    return taps;
}

/// Shared skeleton of the fused im2col packers: walks the position rows of
/// one row-block range, hands each (absolute row, tap index) to \p tap_value
/// and stores the returned code in its panel slot — and, when \p row_major
/// is non-null, at the same (row, tap) of that row-major mirror —
/// accumulating the row-sum header. Pad slots (rows beyond plan.rows, depth
/// beyond plan.depth) stay 0.
template <typename TapValue>
void pack_rows_fused(const PanelPlan& plan, std::uint16_t* codes,
                     std::int64_t* sums, std::uint16_t* row_major,
                     std::int64_t rb0, std::int64_t rb1, TapValue&& tap_value) {
    const std::int64_t tr = plan.tr, tk = plan.tk;
    const std::int64_t kblocks = plan.depth_blocks();
    for (std::int64_t rb = rb0; rb < rb1; ++rb) {
        std::uint16_t* block = codes + plan.panel_offset(rb, 0);
        std::fill(block, block + kblocks * plan.panel_elems(), std::uint16_t{0});
        const std::int64_t pr = plan.block_rows(rb);
        for (std::int64_t rr = 0; rr < pr; ++rr) {
            const std::int64_t row = rb * tr + rr;
            std::uint16_t* mirror =
                row_major ? row_major + row * plan.depth : nullptr;
            std::int64_t sum = 0;
            for (std::int64_t kb = 0; kb < kblocks; ++kb) {
                std::uint16_t* panel = block + kb * plan.panel_elems();
                const std::int64_t kr = plan.block_depth(kb);
                const std::int64_t kbase = kb * tk;
                for (std::int64_t kk = 0; kk < kr; ++kk) {
                    const std::uint16_t code = tap_value(row, kbase + kk);
                    panel[kk * tr + rr] = code;
                    if (mirror) mirror[kbase + kk] = code;
                    sum += code;
                }
            }
            sums[row] = sum;
        }
    }
}

} // namespace

std::uint64_t PanelPlan::key() const {
    std::uint64_t h = 14695981039346656037ull;
    h = fnv1a64(h, static_cast<std::uint64_t>(rows));
    h = fnv1a64(h, static_cast<std::uint64_t>(depth));
    h = fnv1a64(h, static_cast<std::uint64_t>(tr));
    h = fnv1a64(h, static_cast<std::uint64_t>(tk));
    return h;
}

PanelPlan make_panel_plan(std::int64_t rows, std::int64_t depth, std::int64_t tr,
                          std::int64_t tk) {
    assert(rows >= 0 && depth >= 0 && tr >= 1 && tk >= 1);
    PanelPlan plan;
    plan.rows = rows;
    plan.depth = depth;
    plan.tr = std::min(tr, std::max<std::int64_t>(rows, 1));
    plan.tk = std::min(tk, std::max<std::int64_t>(depth, 1));
    return plan;
}

void pack_weight_panels_into(const std::uint16_t* wq, unsigned bits,
                             const PanelPlan& plan, std::uint32_t* codes,
                             std::int64_t* sum_w) {
    AMRET_OBS_SPAN("kernels.pack_weights");
    const std::int64_t tr = plan.tr, tk = plan.tk;
    const std::int64_t kblocks = plan.depth_blocks();
    const std::int64_t nblocks = plan.row_blocks();
    runtime::parallel_for(0, nblocks, runtime::grain_for(nblocks, 1),
                          [&](std::int64_t b0, std::int64_t b1) {
        for (std::int64_t rb = b0; rb < b1; ++rb) {
            std::uint32_t* block = codes + plan.panel_offset(rb, 0);
            std::fill(block, block + kblocks * plan.panel_elems(),
                      std::uint32_t{0});
            const std::int64_t pr = plan.block_rows(rb);
            for (std::int64_t rr = 0; rr < pr; ++rr) {
                const std::int64_t row = rb * tr + rr;
                const std::uint16_t* src = wq + row * plan.depth;
                std::int64_t sum = 0;
                for (std::int64_t kb = 0; kb < kblocks; ++kb) {
                    std::uint32_t* panel = block + kb * plan.panel_elems();
                    const std::int64_t kr = plan.block_depth(kb);
                    const std::int64_t kbase = kb * tk;
                    for (std::int64_t kk = 0; kk < kr; ++kk) {
                        const std::uint32_t code = src[kbase + kk];
                        panel[kk * tr + rr] = code << bits;
                        sum += code;
                    }
                }
                sum_w[row] = sum;
            }
        }
    });
}

WeightPanels pack_weight_panels(const std::uint16_t* wq, unsigned bits,
                                const PanelPlan& plan, Workspace& ws) {
    WeightPanels w;
    w.plan = plan;
    std::uint32_t* codes = ws.alloc<std::uint32_t>(plan.elems());
    std::int64_t* sums = ws.alloc<std::int64_t>(plan.rows);
    pack_weight_panels_into(wq, bits, plan, codes, sums);
    w.codes = codes;
    w.sum_w = sums;
    w.row_major = wq;
    return w;
}

ActPanels pack_activation_panels(const std::uint16_t* xq, const PanelPlan& plan,
                                 Workspace& ws) {
    AMRET_OBS_SPAN("kernels.pack_acts");
    ActPanels x;
    x.plan = plan;
    std::uint16_t* codes = ws.alloc<std::uint16_t>(plan.elems());
    std::int64_t* sums = ws.alloc<std::int64_t>(plan.rows);
    const std::int64_t nblocks = plan.row_blocks();
    runtime::parallel_for(0, nblocks, runtime::grain_for(nblocks, 1),
                          [&](std::int64_t b0, std::int64_t b1) {
        pack_rows_fused(plan, codes, sums, nullptr, b0, b1,
                        [&](std::int64_t row, std::int64_t kk) {
            return xq[row * plan.depth + kk];
        });
    });
    x.codes = codes;
    x.sum_x = sums;
    x.row_major = xq;
    return x;
}

void attach_packed4(ActPanels& x, unsigned bits, Workspace& ws) {
    const PanelPlan& plan = x.plan;
    if (bits > 4 || plan.tr % 16 != 0) return;
    AMRET_OBS_SPAN("kernels.pack_nibbles");
    std::uint8_t* packed = ws.alloc<std::uint8_t>(plan.elems() / 2);
    const std::int64_t tr = plan.tr, tk = plan.tk;
    const std::int64_t half = plan.panel_elems() / 2;
    const std::int64_t npanels = plan.row_blocks() * plan.depth_blocks();
    runtime::parallel_for(0, npanels, runtime::grain_for(npanels, 1),
                          [&](std::int64_t b0, std::int64_t b1) {
        for (std::int64_t pi = b0; pi < b1; ++pi) {
            const std::uint16_t* src = x.codes + pi * plan.panel_elems();
            std::uint8_t* dst = packed + pi * half;
            // Pad rows/lanes pack too (they hold code 0), so every byte of
            // the mirror is defined and the SIMD loop needs no edge cases.
            for (std::int64_t kk = 0; kk < tk; ++kk) {
                const std::uint16_t* srow = src + kk * tr;
                std::uint8_t* drow = dst + kk * (tr / 2);
                for (std::int64_t g0 = 0; g0 < tr; g0 += 16) {
                    std::uint8_t* gb = drow + (g0 / 16) * 8;
                    for (int j = 0; j < 8; ++j) {
                        assert(srow[g0 + j] < 16 && srow[g0 + 8 + j] < 16 &&
                               "attach_packed4 requires codes < 2^bits <= 16");
                        gb[j] = static_cast<std::uint8_t>(
                            (srow[g0 + j] & 0x0f) |
                            ((srow[g0 + 8 + j] & 0x0f) << 4));
                    }
                }
            }
        }
    });
    x.packed4 = packed;
}

void unpack_weight_panels(const WeightPanels& w, unsigned bits,
                          std::uint16_t* wq_out) {
    const PanelPlan& plan = w.plan;
    for (std::int64_t rb = 0; rb < plan.row_blocks(); ++rb) {
        const std::int64_t pr = plan.block_rows(rb);
        for (std::int64_t kb = 0; kb < plan.depth_blocks(); ++kb) {
            const std::uint32_t* panel = w.codes + plan.panel_offset(rb, kb);
            const std::int64_t kr = plan.block_depth(kb);
            for (std::int64_t kk = 0; kk < kr; ++kk)
                for (std::int64_t rr = 0; rr < pr; ++rr)
                    wq_out[(rb * plan.tr + rr) * plan.depth + kb * plan.tk + kk] =
                        static_cast<std::uint16_t>(panel[kk * plan.tr + rr] >> bits);
        }
    }
}

void unpack_activation_panels(const ActPanels& x, std::uint16_t* xq_out) {
    const PanelPlan& plan = x.plan;
    for (std::int64_t rb = 0; rb < plan.row_blocks(); ++rb) {
        const std::int64_t pr = plan.block_rows(rb);
        for (std::int64_t kb = 0; kb < plan.depth_blocks(); ++kb) {
            const std::uint16_t* panel = x.codes + plan.panel_offset(rb, kb);
            const std::int64_t kr = plan.block_depth(kb);
            for (std::int64_t kk = 0; kk < kr; ++kk)
                for (std::int64_t rr = 0; rr < pr; ++rr)
                    xq_out[(rb * plan.tr + rr) * plan.depth + kb * plan.tk + kk] =
                        panel[kk * plan.tr + rr];
        }
    }
}

ActPanels pack_im2col_panels_u8(const std::uint8_t* x,
                                const tensor::ConvGeom& geom,
                                std::uint16_t zero_point, const PanelPlan& plan,
                                Workspace& ws, unsigned bits) {
    AMRET_OBS_SPAN("kernels.im2col_panels");
    AMRET_OBS_COUNT("kernels.im2col.images", geom.batch);
    assert(plan.rows == geom.positions() && plan.depth == geom.patch());
    const TapTable taps = make_tap_table(geom, ws);
    ActPanels out;
    out.plan = plan;
    std::uint16_t* codes = ws.alloc<std::uint16_t>(plan.elems());
    std::int64_t* sums = ws.alloc<std::int64_t>(plan.rows);
    const std::int64_t oh = geom.out_h(), ow = geom.out_w();
    const std::int64_t spatial = oh * ow;
    const std::int64_t nblocks = plan.row_blocks();
    runtime::parallel_for(0, nblocks, runtime::grain_for(nblocks, 1),
                          [&](std::int64_t b0, std::int64_t b1) {
        pack_rows_fused(plan, codes, sums, nullptr, b0, b1,
                        [&](std::int64_t row, std::int64_t t) -> std::uint16_t {
            const std::int64_t n = row / spatial, s = row % spatial;
            const std::int64_t oy = s / ow, ox = s % ow;
            const std::int64_t iy = oy * geom.stride + taps.ky[t] - geom.pad;
            const std::int64_t ix = ox * geom.stride + taps.kx[t] - geom.pad;
            if (iy < 0 || iy >= geom.in_h || ix < 0 || ix >= geom.in_w)
                return zero_point;
            return static_cast<std::uint16_t>(
                x[((n * geom.in_h + iy) * geom.in_w + ix) * geom.in_ch +
                  taps.c[t]]);
        });
    });
    out.codes = codes;
    out.sum_x = sums;
    attach_packed4(out, bits, ws);
    return out;
}

ActPanels quantize_im2col_panels(const float* x, const tensor::ConvGeom& geom,
                                 const quant::QuantParams& params,
                                 const PanelPlan& plan, std::uint8_t* in_range,
                                 Workspace& ws) {
    AMRET_OBS_SPAN("kernels.im2col_panels");
    AMRET_OBS_COUNT("kernels.quantize.elems", plan.rows * plan.depth);
    assert(plan.rows == geom.positions() && plan.depth == geom.patch());
    const TapTable taps = make_tap_table(geom, ws);
    ActPanels out;
    out.plan = plan;
    std::uint16_t* codes = ws.alloc<std::uint16_t>(plan.elems());
    std::int64_t* sums = ws.alloc<std::int64_t>(plan.rows);
    std::uint16_t* row_major = ws.alloc<std::uint16_t>(plan.rows * plan.depth);
    const std::int64_t oh = geom.out_h(), ow = geom.out_w();
    const std::int64_t spatial = oh * ow;
    const std::int64_t chw = geom.in_ch * geom.in_h * geom.in_w;
    const std::int64_t nblocks = plan.row_blocks();
    runtime::parallel_for(0, nblocks, runtime::grain_for(nblocks, 1),
                          [&](std::int64_t b0, std::int64_t b1) {
        pack_rows_fused(plan, codes, sums, row_major, b0, b1,
                        [&](std::int64_t row, std::int64_t t) -> std::uint16_t {
            const std::int64_t n = row / spatial, s = row % spatial;
            const std::int64_t oy = s / ow, ox = s % ow;
            const std::int64_t iy = oy * geom.stride + taps.ky[t] - geom.pad;
            const std::int64_t ix = ox * geom.stride + taps.kx[t] - geom.pad;
            // Out-of-image taps read 0.0f, exactly like the unfused float
            // im2col, and go through the same quantizer — fused codes and
            // masks are bitwise-identical to im2col + quantize_into.
            float v = 0.0f;
            if (iy >= 0 && iy < geom.in_h && ix >= 0 && ix < geom.in_w)
                v = x[n * chw + (taps.c[t] * geom.in_h + iy) * geom.in_w + ix];
            in_range[row * plan.depth + t] = params.in_range(v) ? 1 : 0;
            return static_cast<std::uint16_t>(params.quantize(v));
        });
    });
    out.codes = codes;
    out.sum_x = sums;
    out.row_major = row_major;
    attach_packed4(out, params.bits, ws);
    return out;
}

ActPanels quantize_into_panels(const float* src, const quant::QuantParams& params,
                               const PanelPlan& plan, std::uint8_t* in_range,
                               Workspace& ws) {
    AMRET_OBS_SPAN("kernels.quantize");
    AMRET_OBS_COUNT("kernels.quantize.elems", plan.rows * plan.depth);
    ActPanels out;
    out.plan = plan;
    std::uint16_t* codes = ws.alloc<std::uint16_t>(plan.elems());
    std::int64_t* sums = ws.alloc<std::int64_t>(plan.rows);
    std::uint16_t* row_major = ws.alloc<std::uint16_t>(plan.rows * plan.depth);
    const std::int64_t nblocks = plan.row_blocks();
    runtime::parallel_for(0, nblocks, runtime::grain_for(nblocks, 1),
                          [&](std::int64_t b0, std::int64_t b1) {
        pack_rows_fused(plan, codes, sums, row_major, b0, b1,
                        [&](std::int64_t row, std::int64_t kk) -> std::uint16_t {
            const float v = src[row * plan.depth + kk];
            in_range[row * plan.depth + kk] = params.in_range(v) ? 1 : 0;
            return static_cast<std::uint16_t>(params.quantize(v));
        });
    });
    out.codes = codes;
    out.sum_x = sums;
    out.row_major = row_major;
    attach_packed4(out, params.bits, ws);
    return out;
}

} // namespace amret::kernels
