/// \file simd.hpp
/// \brief Runtime-dispatched SIMD kernels for the LUT-GEMM family.
///
/// The scalar kernels of lut_kernels.cpp do one product-LUT load per MAC in
/// the forward and one gradient-pair load per MAC in the backward. This
/// subtree vectorizes those walks a la T-MAC / DeepGEMM:
///
///   - a pshufb-style in-register 16-entry LUT path for small-operand
///     multipliers (bits <= 4): the activation codes are nibble-packed two
///     per byte at panel-pack time (layout.hpp, ActPanels::packed4), the
///     weight's 2^bits-entry product-LUT row is packed into one 16-byte
///     register (all entries of a <=4-bit product LUT fit uint8), and one
///     pshufb yields 16 products per instruction;
///   - a gather path for 8x8 multipliers: 8/16 activation codes are widened,
///     OR'd with the pre-shifted weight code and looked up with a vector
///     gather, accumulating into 4 (AVX2) or 8 (AVX-512) independent int64
///     lanes per step;
///   - the fused one-sweep backward (AVX2 8 lanes, AVX-512 16 lanes with
///     masked depth tails): lanes run along contiguous depth of the
///     row-major code mirrors, one 64-bit gather per lane fetches the
///     (dX, dW) pair of core::GradLut::pair_table(), and the p-outer /
///     o-inner walk gives every gx/gw element the scalar oracle's float
///     additions in the scalar oracle's order.
///
/// Dispatch contract (DESIGN.md section 17). select() probes the CPU once
/// (SSSE3 / AVX2 / AVX-512F+BW via cpuid) and honours AMRET_SIMD=
/// scalar|ssse3|avx2|avx512 as a *cap*: requesting a level the machine or
/// build lacks falls back to the best supported level below it, with a typed
/// warning through src/obs. The AVX-512 level needs AVX-512F and AVX-512BW
/// (the masked 16-bit code loads of the backward tails). Every entry point
/// below reports how much of its work it did; callers run the scalar loops
/// over the rest, and those remain the bitwise-determinism oracle:
///   - the forward accumulator is int64, so any lane split is exact and
///     SIMD forward output memcmp-equals the scalar oracle;
///   - the backward lanes preserve the per-element float op order, so
///     gx/gw memcmp-equal the oracle too (tests/test_simd.cpp).
///
/// Raw vector intrinsics are confined to src/kernels/simd/ by
/// scripts/check_invariants.py (rule simd-intrinsics); everything else goes
/// through this seam.
#pragma once

#include "kernels/lut_kernels.hpp"

#include <cstdint>

namespace amret::kernels::simd {

/// Instruction-set levels in dispatch order. kScalar always works and means
/// "run the scalar loops of lut_kernels.cpp".
enum class Isa : int {
    kScalar = 0,
    kSsse3 = 1,
    kAvx2 = 2,
    kAvx512 = 3,
};

/// Lowercase level name ("scalar", "ssse3", "avx2", "avx512").
const char* isa_name(Isa isa);

/// Parses an AMRET_SIMD value. Returns false (out untouched) on an unknown
/// string.
bool parse_isa(const char* s, Isa* out);

/// True when the level's kernels were compiled into this binary (x86 builds
/// compile every level; other targets only kScalar).
bool compiled(Isa isa);

/// True when the running CPU reports the level's feature bits.
bool cpu_supports(Isa isa);

/// compiled() && cpu_supports() — the level select() may return.
bool supported(Isa isa);

/// Highest supported level on this machine/build.
Isa max_supported();

/// The process-wide dispatch level: AMRET_SIMD cap applied to the probed
/// maximum, resolved once and cached. Overridable with set_isa_for_test.
Isa select();

/// Pure resolution of one AMRET_SIMD value against this machine (no cache,
/// no env read): nullptr or unknown -> max_supported(); a known level ->
/// the highest supported level <= it. Unknown/unsupported values emit a
/// typed warning through src/obs. select() caches resolve_request(getenv).
Isa resolve_request(const char* value);

/// Test/tool hook: overrides select() process-wide. Call only while no
/// kernels are running.
void set_isa_for_test(Isa isa);
void clear_isa_override();

// ---------------------------------------------------------------- seams ----
// Called by the blocked kernels (lut_kernels); each returns false when the
// selected level has no eligible kernel, in which case the caller must run
// the scalar blocked loop over the same region.

/// Fills the int64 accumulator tile of block (rb, ob):
/// acc[oo * x.plan.tr + pp] = sum_k LUT[w, x] over the real depth extent,
/// for all physical rows (pad lanes accumulate LUT[w, 0]; callers never
/// read them). \p acc must hold x.plan.tr * w.plan.tr int64s.
bool accumulate_panel(const BlockedGemmArgs& a, std::int64_t rb,
                      std::int64_t ob, std::int64_t* acc);

/// Depth columns [k0, k1) of the fused backward sweep (lut_backward_blocked,
/// same arguments): for every position p ascending and every nonzero
/// gyp[p, o] in ascending o,
///   gx_raw[p, k] += (g * s_w[o]) * (pairs[2*idx] - Z_w[o])
///   gw_raw[o, k] += g * (pairs[2*idx + 1] - Z_x)
/// with idx = (w[o, k] << bits) | x[p, k]. Returns the end of the leading
/// column range it covered: k0 when the level has no backward leaf, a
/// whole number of 8-lane vectors past k0 at AVX2, k1 at AVX-512. The
/// caller finishes [returned, k1) in the scalar loop.
std::int64_t backward_columns(const BlockedGemmArgs& a, const float* gyp,
                              const float* pairs, std::int64_t k0,
                              std::int64_t k1, float* gw_raw, float* gx_raw);

} // namespace amret::kernels::simd
