/// \file lut_simd_avx512.cpp
/// \brief AVX-512 leaf kernels (compiled with -mavx512f -mavx512bw
/// -ffp-contract=off).
///
/// Two kernels widen here:
///   - the wide-operand forward: 16 activation codes per gather, 8+8 int64
///     accumulator lanes. The nibble path stays on the AVX2 byte-table copy
///     (pshufb beats gathers for <=4-bit operands even at 512-bit width),
///     routed by dispatch.cpp;
///   - the fused backward sweep: 16 depth lanes per vector, two 64-bit
///     gathers of (dX, dW) pairs per vector, and masked 16-bit code loads
///     and float loads/stores for the ragged depth tail (AVX-512BW), so it
///     covers every column of its range with no scalar remainder.
///
/// -ffp-contract=off: the backward's mul-then-add must round like the
/// scalar oracle; explicit mul/add intrinsics are never contracted, and the
/// flag keeps the scalar per-channel products (g * s_w) unfused too.

#include "kernels/simd/simd_internal.hpp"

#if defined(__AVX512F__) && defined(__AVX512BW__)

#include <immintrin.h>

#include <algorithm>

namespace amret::kernels::simd::detail {

namespace {

/// One sweep over the NV * 16 depth columns starting at \p c0; the last
/// vector is masked by \p last (the others are full). Lanes beyond the
/// mask load code 0 — index 0 of the pair table, in bounds — and are never
/// stored.
template <int NV>
void backward_tile(const BlockedGemmArgs& a, const float* gyp,
                   const float* pairs, std::int64_t c0, __mmask16 last,
                   float* gw_raw, float* gx_raw) {
    const std::int64_t o_rows = a.o, depth = a.k;
    const __m128i shift = _mm_cvtsi32_si128(static_cast<int>(a.bits));
    const __m512 zxv = _mm512_set1_ps(static_cast<float>(a.zero_x));
    // Pair-gather deinterleave: dX sits in the even floats, dW in the odd.
    const __m512i even = _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 16, 18,
                                           20, 22, 24, 26, 28, 30);
    const __m512i odd = _mm512_add_epi32(even, _mm512_set1_epi32(1));
    __mmask16 mask[NV];
    for (int v = 0; v < NV; ++v)
        mask[v] = v == NV - 1 ? last : static_cast<__mmask16>(0xffff);
    const auto codes = [&](const std::uint16_t* src, int v) {
        return _mm512_cvtepu16_epi32(_mm512_castsi512_si256(
            _mm512_maskz_loadu_epi16(mask[v], src + 16 * v)));
    };
    const auto* table = reinterpret_cast<const long long*>(pairs);
    for (std::int64_t pp = 0; pp < a.p; ++pp) {
        const std::uint16_t* xrow = a.x.row_major + pp * depth + c0;
        const float* gyrow = gyp + pp * o_rows;
        float* gxrow = gx_raw + pp * depth + c0;
        __m512i xv[NV];
        __m512 gxa[NV];
        for (int v = 0; v < NV; ++v) {
            xv[v] = codes(xrow, v);
            gxa[v] = _mm512_maskz_loadu_ps(mask[v], gxrow + 16 * v);
        }
        for (std::int64_t oo = 0; oo < o_rows; ++oo) {
            const float g = gyrow[oo];
            if (g == 0.0f) continue;
            const __m512 gv = _mm512_set1_ps(g);
            const __m512 gsv = _mm512_set1_ps(g * a.row_scale_w(oo));
            const __m512 zwv =
                _mm512_set1_ps(static_cast<float>(a.row_zero_w(oo)));
            const std::uint16_t* wrow = a.w.row_major + oo * depth + c0;
            float* gwrow = gw_raw + oo * depth + c0;
            for (int v = 0; v < NV; ++v) {
                const __m512i idx = _mm512_or_si512(
                    _mm512_sll_epi32(codes(wrow, v), shift), xv[v]);
                const __m512 lo = _mm512_castsi512_ps(_mm512_i32gather_epi64(
                    _mm512_castsi512_si256(idx), table, 8));
                const __m512 hi = _mm512_castsi512_ps(_mm512_i32gather_epi64(
                    _mm512_extracti64x4_epi64(idx, 1), table, 8));
                const __m512 dx = _mm512_permutex2var_ps(lo, even, hi);
                const __m512 dw = _mm512_permutex2var_ps(lo, odd, hi);
                // Oracle expressions per lane, explicit mul then add:
                // gx + (g*s) * (dX - Zw) and gw + g * (dW - Zx).
                gxa[v] = _mm512_add_ps(
                    gxa[v], _mm512_mul_ps(gsv, _mm512_sub_ps(dx, zwv)));
                float* gwv = gwrow + 16 * v;
                _mm512_mask_storeu_ps(
                    gwv, mask[v],
                    _mm512_add_ps(_mm512_maskz_loadu_ps(mask[v], gwv),
                                  _mm512_mul_ps(gv, _mm512_sub_ps(dw, zxv))));
            }
        }
        for (int v = 0; v < NV; ++v)
            _mm512_mask_storeu_ps(gxrow + 16 * v, mask[v], gxa[v]);
    }
}

} // namespace

bool compiled_avx512() { return true; }

std::int64_t backward_columns_avx512(const BlockedGemmArgs& a, const float* gyp,
                                     const float* pairs, std::int64_t k0,
                                     std::int64_t k1, float* gw_raw,
                                     float* gx_raw) {
    constexpr int kWide = 4; // vectors per full-width sweep
    std::int64_t c = k0;
    for (; k1 - c >= 16 * kWide; c += 16 * kWide)
        backward_tile<kWide>(a, gyp, pairs, c, 0xffff, gw_raw, gx_raw);
    const std::int64_t rem = k1 - c;
    if (rem == 0) return k1;
    const auto last = static_cast<__mmask16>(
        rem % 16 == 0 ? 0xffff : (1u << (rem % 16)) - 1u);
    switch ((rem + 15) / 16) {
    case 1: backward_tile<1>(a, gyp, pairs, c, last, gw_raw, gx_raw); break;
    case 2: backward_tile<2>(a, gyp, pairs, c, last, gw_raw, gx_raw); break;
    case 3: backward_tile<3>(a, gyp, pairs, c, last, gw_raw, gx_raw); break;
    default: backward_tile<4>(a, gyp, pairs, c, last, gw_raw, gx_raw); break;
    }
    return k1;
}

void acc_panel_gather_avx512(const BlockedGemmArgs& a, std::int64_t rb,
                             std::int64_t ob, std::int64_t* acc) {
    const PanelPlan& xp = a.x.plan;
    const PanelPlan& wp = a.w.plan;
    const std::int64_t tp = xp.tr, to = wp.tr;
    const std::int64_t orr = wp.block_rows(ob);
    const std::int64_t kblocks = xp.depth_blocks();
    const std::int64_t p16 = tp & ~std::int64_t{15};
    const std::int64_t p8 = tp & ~std::int64_t{7};
    std::fill(acc, acc + orr * tp, std::int64_t{0});
    for (std::int64_t kb = 0; kb < kblocks; ++kb) {
        const std::int64_t kr = xp.block_depth(kb);
        const std::uint16_t* xpan = a.x.codes + xp.panel_offset(rb, kb);
        const std::uint32_t* wpan = a.w.codes + wp.panel_offset(ob, kb);
        for (std::int64_t oo = 0; oo < orr; ++oo) {
            std::int64_t* arow = acc + oo * tp;
            for (std::int64_t pp0 = 0; pp0 < p16; pp0 += 16) {
                __m512i acc_lo = _mm512_setzero_si512();
                __m512i acc_hi = _mm512_setzero_si512();
                for (std::int64_t kk = 0; kk < kr; ++kk) {
                    const std::uint32_t wcode = wpan[kk * to + oo];
                    const __m256i x16 =
                        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
                            xpan + kk * tp + pp0));
                    const __m512i idx = _mm512_or_si512(
                        _mm512_set1_epi32(static_cast<int>(wcode)),
                        _mm512_cvtepu16_epi32(x16));
                    const __m512i v = _mm512_i32gather_epi32(idx, a.lut, 4);
                    acc_lo = _mm512_add_epi64(
                        acc_lo,
                        _mm512_cvtepi32_epi64(_mm512_castsi512_si256(v)));
                    acc_hi = _mm512_add_epi64(
                        acc_hi, _mm512_cvtepi32_epi64(
                                    _mm512_extracti64x4_epi64(v, 1)));
                }
                _mm512_storeu_si512(
                    arow + pp0,
                    _mm512_add_epi64(_mm512_loadu_si512(arow + pp0), acc_lo));
                _mm512_storeu_si512(
                    arow + pp0 + 8,
                    _mm512_add_epi64(_mm512_loadu_si512(arow + pp0 + 8),
                                     acc_hi));
            }
            // One 8-lane group when tp % 16 >= 8 (-mavx512f implies AVX2).
            for (std::int64_t pp0 = p16; pp0 < p8; pp0 += 8) {
                __m256i acc_lo = _mm256_setzero_si256();
                __m256i acc_hi = _mm256_setzero_si256();
                for (std::int64_t kk = 0; kk < kr; ++kk) {
                    const std::uint32_t wcode = wpan[kk * to + oo];
                    const __m128i x8 =
                        _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                            xpan + kk * tp + pp0));
                    const __m256i idx = _mm256_or_si256(
                        _mm256_set1_epi32(static_cast<int>(wcode)),
                        _mm256_cvtepu16_epi32(x8));
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
            for (std::int64_t kk = 0; kk < kr && p8 < tp; ++kk) {
                const std::int32_t* lrow = a.lut + wpan[kk * to + oo];
                const std::uint16_t* xv = xpan + kk * tp;
                for (std::int64_t pp = p8; pp < tp; ++pp)
                    arow[pp] += lrow[xv[pp]];
            }
        }
    }
}

} // namespace amret::kernels::simd::detail

#else // !(defined(__AVX512F__) && defined(__AVX512BW__))

namespace amret::kernels::simd::detail {

bool compiled_avx512() { return false; }

// Unreachable: dispatch.cpp never routes to a level compiled() rejects.
void acc_panel_gather_avx512(const BlockedGemmArgs&, std::int64_t,
                             std::int64_t, std::int64_t*) {}
std::int64_t backward_columns_avx512(const BlockedGemmArgs&, const float*,
                                     const float*, std::int64_t k0,
                                     std::int64_t, float*, float*) {
    return k0;
}

} // namespace amret::kernels::simd::detail

#endif // __AVX512F__ && __AVX512BW__
