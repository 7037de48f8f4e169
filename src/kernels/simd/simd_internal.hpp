/// \file simd_internal.hpp
/// \brief Per-ISA leaf kernel declarations, private to src/kernels/simd/.
///
/// Each leaf lives in its own translation unit compiled with that ISA's
/// -m flags (see src/kernels/CMakeLists.txt), so the binary carries every
/// level and dispatch.cpp picks at runtime. On targets where a level is not
/// compiled (non-x86, or a toolchain without the intrinsics), the TU still
/// provides the symbols: compiled_*() returns false and the leaves are
/// unreachable stubs.
#pragma once

#include "kernels/simd/simd.hpp"

#include <cstdint>

namespace amret::kernels::simd::detail {

bool compiled_ssse3();
bool compiled_avx2();
bool compiled_avx512();

// Forward accumulation leaves. Contract of simd::accumulate_panel: fully
// own the acc tile for block (rb, ob) — zero it, then accumulate the real
// depth extent. Pad row lanes may accumulate LUT[w, 0] (in-bounds by
// construction; callers never read pad lanes).

/// pshufb 16-entry in-register LUT path (bits <= 4). Requires
/// a.x.packed4 != nullptr, a.x.plan.tr % 16 == 0, and every product-LUT
/// entry in [0, 255] (checked by the dispatcher).
void acc_panel_nibble_ssse3(const BlockedGemmArgs& a, std::int64_t rb,
                            std::int64_t ob, std::int64_t* acc);
/// Same algorithm compiled VEX-encoded for AVX2-selected processes.
void acc_panel_nibble_avx2(const BlockedGemmArgs& a, std::int64_t rb,
                           std::int64_t ob, std::int64_t* acc);

/// Vector-gather path for wide (e.g. 8x8) multipliers: 8 activation codes
/// are widened, OR'd with the pre-shifted weight code and gathered from the
/// product LUT, accumulating into 4+4 independent int64 lanes. Requires
/// a.x.plan.tr >= 8.
void acc_panel_gather_avx2(const BlockedGemmArgs& a, std::int64_t rb,
                           std::int64_t ob, std::int64_t* acc);
/// 16-lane AVX-512F variant (8+8 int64 accumulator lanes).
void acc_panel_gather_avx512(const BlockedGemmArgs& a, std::int64_t rb,
                             std::int64_t ob, std::int64_t* acc);

// Fused backward sweep leaves (contract of simd::backward_columns): lanes
// along contiguous depth, one 64-bit (dX, dW) pair gather per lane, p outer
// and nonzero o inner, so every gx/gw element performs the scalar oracle's
// float ops in the oracle's order. The AVX2 leaf covers whole 8-lane
// vectors and returns where it stopped; the AVX-512 leaf masks its depth
// tail and covers [k0, k1).
std::int64_t backward_columns_avx2(const BlockedGemmArgs& a, const float* gyp,
                                   const float* pairs, std::int64_t k0,
                                   std::int64_t k1, float* gw_raw,
                                   float* gx_raw);
std::int64_t backward_columns_avx512(const BlockedGemmArgs& a, const float* gyp,
                                     const float* pairs, std::int64_t k0,
                                     std::int64_t k1, float* gw_raw,
                                     float* gx_raw);

} // namespace amret::kernels::simd::detail
