/// \file lut_simd_avx2.cpp
/// \brief AVX2 leaf kernels (compiled with -mavx2 -ffp-contract=off).
///
/// Three capabilities arrive at this level:
///   - the nibble path re-compiles VEX-encoded (acc_panel_nibble.inl);
///   - vector gathers unlock the wide-operand forward: 8 activation codes
///     are widened, OR'd with the pre-shifted weight code and gathered from
///     the product LUT, accumulating in 4+4 independent int64 lanes;
///   - the fused backward sweep runs 8 depth lanes per vector with two
///     64-bit (dX, dW) pair gathers per vector; it covers whole vectors and
///     leaves the ragged depth tail to the scalar loop of lut_kernels.cpp.
///
/// -ffp-contract=off is part of the numerical contract, not an
/// optimization knob: the scalar per-channel product (g * s_w) and any
/// scalar float expression here must round like the oracle built without
/// AVX2, and under -mavx2 GCC would otherwise be free to contract
/// mul-then-add into FMAs. The vector paths use explicit mul/add
/// intrinsics, which are never contracted.

#include "kernels/simd/simd_internal.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>

#include "kernels/simd/acc_panel_nibble.inl"

namespace amret::kernels::simd::detail {

bool compiled_avx2() { return true; }

void acc_panel_nibble_avx2(const BlockedGemmArgs& a, std::int64_t rb,
                           std::int64_t ob, std::int64_t* acc) {
    acc_panel_nibble_impl(a, rb, ob, acc);
}

void acc_panel_gather_avx2(const BlockedGemmArgs& a, std::int64_t rb,
                           std::int64_t ob, std::int64_t* acc) {
    const PanelPlan& xp = a.x.plan;
    const PanelPlan& wp = a.w.plan;
    const std::int64_t tp = xp.tr, to = wp.tr;
    const std::int64_t orr = wp.block_rows(ob);
    const std::int64_t kblocks = xp.depth_blocks();
    const std::int64_t pvec = tp & ~std::int64_t{7};
    std::fill(acc, acc + orr * tp, std::int64_t{0});
    for (std::int64_t kb = 0; kb < kblocks; ++kb) {
        const std::int64_t kr = xp.block_depth(kb);
        const std::uint16_t* xpan = a.x.codes + xp.panel_offset(rb, kb);
        const std::uint32_t* wpan = a.w.codes + wp.panel_offset(ob, kb);
        for (std::int64_t oo = 0; oo < orr; ++oo) {
            std::int64_t* arow = acc + oo * tp;
            for (std::int64_t pp0 = 0; pp0 < pvec; pp0 += 8) {
                __m256i acc_lo = _mm256_setzero_si256();
                __m256i acc_hi = _mm256_setzero_si256();
                for (std::int64_t kk = 0; kk < kr; ++kk) {
                    const std::uint32_t wcode = wpan[kk * to + oo];
                    const __m128i x16 =
                        _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                            xpan + kk * tp + pp0));
                    const __m256i idx = _mm256_or_si256(
                        _mm256_set1_epi32(static_cast<int>(wcode)),
                        _mm256_cvtepu16_epi32(x16));
                    const __m256i v = _mm256_i32gather_epi32(
                        reinterpret_cast<const int*>(a.lut), idx, 4);
                    acc_lo = _mm256_add_epi64(
                        acc_lo,
                        _mm256_cvtepi32_epi64(_mm256_castsi256_si128(v)));
                    acc_hi = _mm256_add_epi64(
                        acc_hi,
                        _mm256_cvtepi32_epi64(_mm256_extracti128_si256(v, 1)));
                }
                _mm256_storeu_si256(
                    reinterpret_cast<__m256i*>(arow + pp0),
                    _mm256_add_epi64(_mm256_loadu_si256(
                                         reinterpret_cast<const __m256i*>(
                                             arow + pp0)),
                                     acc_lo));
                _mm256_storeu_si256(
                    reinterpret_cast<__m256i*>(arow + pp0 + 4),
                    _mm256_add_epi64(_mm256_loadu_si256(
                                         reinterpret_cast<const __m256i*>(
                                             arow + pp0 + 4)),
                                     acc_hi));
            }
            // Remaining lanes (tp % 8, incl. pads): scalar, still exact.
            for (std::int64_t kk = 0; kk < kr && pvec < tp; ++kk) {
                const std::int32_t* lrow = a.lut + wpan[kk * to + oo];
                const std::uint16_t* xv = xpan + kk * tp;
                for (std::int64_t pp = pvec; pp < tp; ++pp)
                    arow[pp] += lrow[xv[pp]];
            }
        }
    }
}

namespace {

/// One sweep over the NV * 8 depth columns starting at \p c0 (all full).
template <int NV>
void backward_tile(const BlockedGemmArgs& a, const float* gyp,
                   const float* pairs, std::int64_t c0, float* gw_raw,
                   float* gx_raw) {
    const std::int64_t o_rows = a.o, depth = a.k;
    const __m128i shift = _mm_cvtsi32_si128(static_cast<int>(a.bits));
    const __m256 zxv = _mm256_set1_ps(static_cast<float>(a.zero_x));
    const auto codes = [](const std::uint16_t* src) {
        return _mm256_cvtepu16_epi32(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(src)));
    };
    const auto* table = reinterpret_cast<const long long*>(pairs);
    for (std::int64_t pp = 0; pp < a.p; ++pp) {
        const std::uint16_t* xrow = a.x.row_major + pp * depth + c0;
        const float* gyrow = gyp + pp * o_rows;
        float* gxrow = gx_raw + pp * depth + c0;
        __m256 gxa[NV];
        for (int v = 0; v < NV; ++v) gxa[v] = _mm256_loadu_ps(gxrow + 8 * v);
        for (std::int64_t oo = 0; oo < o_rows; ++oo) {
            const float g = gyrow[oo];
            if (g == 0.0f) continue;
            const __m256 gv = _mm256_set1_ps(g);
            const __m256 gsv = _mm256_set1_ps(g * a.row_scale_w(oo));
            const __m256 zwv =
                _mm256_set1_ps(static_cast<float>(a.row_zero_w(oo)));
            const std::uint16_t* wrow = a.w.row_major + oo * depth + c0;
            float* gwrow = gw_raw + oo * depth + c0;
            for (int v = 0; v < NV; ++v) {
                // Lanes (0,1,4,5 | 2,3,6,7) so one in-lane shuffle of the
                // two pair gathers yields dX and dW in depth order.
                const __m256i idx = _mm256_permute4x64_epi64(
                    _mm256_or_si256(_mm256_sll_epi32(codes(wrow + 8 * v), shift),
                                    codes(xrow + 8 * v)),
                    _MM_SHUFFLE(3, 1, 2, 0));
                const __m256 lo = _mm256_castsi256_ps(_mm256_i32gather_epi64(
                    table, _mm256_castsi256_si128(idx), 8));
                const __m256 hi = _mm256_castsi256_ps(_mm256_i32gather_epi64(
                    table, _mm256_extracti128_si256(idx, 1), 8));
                const __m256 dx = _mm256_shuffle_ps(lo, hi, _MM_SHUFFLE(2, 0, 2, 0));
                const __m256 dw = _mm256_shuffle_ps(lo, hi, _MM_SHUFFLE(3, 1, 3, 1));
                // Oracle expressions per lane, explicit mul then add:
                // gx + (g*s) * (dX - Zw) and gw + g * (dW - Zx).
                gxa[v] = _mm256_add_ps(
                    gxa[v], _mm256_mul_ps(gsv, _mm256_sub_ps(dx, zwv)));
                float* gwv = gwrow + 8 * v;
                _mm256_storeu_ps(
                    gwv, _mm256_add_ps(_mm256_loadu_ps(gwv),
                                       _mm256_mul_ps(gv, _mm256_sub_ps(dw, zxv))));
            }
        }
        for (int v = 0; v < NV; ++v) _mm256_storeu_ps(gxrow + 8 * v, gxa[v]);
    }
}

} // namespace

std::int64_t backward_columns_avx2(const BlockedGemmArgs& a, const float* gyp,
                                   const float* pairs, std::int64_t k0,
                                   std::int64_t k1, float* gw_raw,
                                   float* gx_raw) {
    constexpr int kWide = 4; // vectors per full-width sweep
    std::int64_t c = k0;
    for (; k1 - c >= 8 * kWide; c += 8 * kWide)
        backward_tile<kWide>(a, gyp, pairs, c, gw_raw, gx_raw);
    switch ((k1 - c) / 8) {
    case 1: backward_tile<1>(a, gyp, pairs, c, gw_raw, gx_raw); return c + 8;
    case 2: backward_tile<2>(a, gyp, pairs, c, gw_raw, gx_raw); return c + 16;
    case 3: backward_tile<3>(a, gyp, pairs, c, gw_raw, gx_raw); return c + 24;
    default: return c;
    }
}

} // namespace amret::kernels::simd::detail

#else // !defined(__AVX2__)

namespace amret::kernels::simd::detail {

bool compiled_avx2() { return false; }

// Unreachable: dispatch.cpp never routes to a level compiled() rejects.
void acc_panel_nibble_avx2(const BlockedGemmArgs&, std::int64_t, std::int64_t,
                           std::int64_t*) {}
void acc_panel_gather_avx2(const BlockedGemmArgs&, std::int64_t, std::int64_t,
                           std::int64_t*) {}
std::int64_t backward_columns_avx2(const BlockedGemmArgs&, const float*,
                                   const float*, std::int64_t k0, std::int64_t,
                                   float*, float*) {
    return k0;
}

} // namespace amret::kernels::simd::detail

#endif // __AVX2__
