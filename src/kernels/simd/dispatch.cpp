/// \file dispatch.cpp
/// \brief Runtime ISA selection and eligibility routing for the SIMD
/// LUT-GEMM leaves (contract in simd.hpp; DESIGN.md section 17).

#include "kernels/simd/simd.hpp"

#include "kernels/simd/simd_internal.hpp"
#include "obs/obs.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string>

namespace amret::kernels::simd {

namespace {

constexpr int kIsaCount = 4;

const char* const kIsaNames[kIsaCount] = {"scalar", "ssse3", "avx2", "avx512"};

} // namespace

const char* isa_name(Isa isa) { return kIsaNames[static_cast<int>(isa)]; }

bool parse_isa(const char* s, Isa* out) {
    if (s == nullptr) return false;
    for (int i = 0; i < kIsaCount; ++i) {
        if (std::strcmp(s, kIsaNames[i]) == 0) {
            *out = static_cast<Isa>(i);
            return true;
        }
    }
    return false;
}

bool compiled(Isa isa) {
    switch (isa) {
    case Isa::kScalar: return true;
    case Isa::kSsse3: return detail::compiled_ssse3();
    case Isa::kAvx2: return detail::compiled_avx2();
    case Isa::kAvx512: return detail::compiled_avx512();
    }
    return false;
}

bool cpu_supports(Isa isa) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_cpu_init();
    switch (isa) {
    case Isa::kScalar: return true;
    case Isa::kSsse3: return __builtin_cpu_supports("ssse3") != 0;
    case Isa::kAvx2: return __builtin_cpu_supports("avx2") != 0;
    case Isa::kAvx512:
        return __builtin_cpu_supports("avx512f") != 0 &&
               __builtin_cpu_supports("avx512bw") != 0;
    }
    return false;
#else
    return isa == Isa::kScalar;
#endif
}

bool supported(Isa isa) { return compiled(isa) && cpu_supports(isa); }

Isa max_supported() {
    for (int i = kIsaCount - 1; i > 0; --i) {
        if (supported(static_cast<Isa>(i))) return static_cast<Isa>(i);
    }
    return Isa::kScalar;
}

Isa resolve_request(const char* value) {
    const Isa best = max_supported();
    if (value == nullptr || value[0] == '\0') return best;
    Isa req = Isa::kScalar;
    if (!parse_isa(value, &req)) {
        obs::warn_once("simd.env_unknown",
                       std::string("AMRET_SIMD=") + value + // invariant-ok: once-per-process warning, not a kernel loop
                           " is not one of scalar|ssse3|avx2|avx512; using " +
                           isa_name(best));
        return best;
    }
    if (supported(req)) return req;
    // The env var is a cap, not a promise: fall back to the best supported
    // level at or below the request so CI matrices can set AMRET_SIMD
    // unconditionally and machines without the ISA still run correctly.
    Isa got = Isa::kScalar;
    for (int i = static_cast<int>(req) - 1; i > 0; --i) {
        if (supported(static_cast<Isa>(i))) {
            got = static_cast<Isa>(i);
            break;
        }
    }
    obs::warn_once("simd.env_unsupported",
                   std::string("AMRET_SIMD=") + value + // invariant-ok: once-per-process warning, not a kernel loop
                       " is not supported on this machine/build; using " +
                       isa_name(got));
    return got;
}

namespace {

// select() state: -1 = unresolved, otherwise an Isa. The test override sits
// in a second slot so clear_isa_override restores the cached env resolution.
std::atomic<int> g_selected{-1};
std::atomic<int> g_override{-1};

} // namespace

Isa select() {
    const int ov = g_override.load(std::memory_order_relaxed);
    if (ov >= 0) return static_cast<Isa>(ov);
    int sel = g_selected.load(std::memory_order_relaxed);
    if (sel < 0) {
        sel = static_cast<int>(resolve_request(std::getenv("AMRET_SIMD")));
        g_selected.store(sel, std::memory_order_relaxed);
    }
    return static_cast<Isa>(sel);
}

void set_isa_for_test(Isa isa) {
    g_override.store(static_cast<int>(isa), std::memory_order_relaxed);
}

void clear_isa_override() { g_override.store(-1, std::memory_order_relaxed); }

namespace {

/// True when every entry of the 2^(2*bits) product LUT fits uint8 — the
/// precondition of the pshufb path, whose in-register tables hold byte
/// products. Scans at most 256 entries (bits <= 4) and caches the verdict
/// per LUT pointer; the tiny direct-mapped cache is racy by design (both
/// writers store the same recomputed verdict).
bool lut_fits_u8(const std::int32_t* lut, unsigned bits) {
    struct Entry {
        std::atomic<const std::int32_t*> lut{nullptr};
        std::atomic<int> fits{0};
    };
    static Entry cache[8];
    const std::size_t slot =
        (reinterpret_cast<std::uintptr_t>(lut) >> 6) & std::size_t{7};
    Entry& e = cache[slot];
    if (e.lut.load(std::memory_order_acquire) == lut)
        return e.fits.load(std::memory_order_relaxed) != 0;
    const std::int64_t n = std::int64_t{1} << (2 * bits);
    bool ok = true;
    for (std::int64_t i = 0; i < n; ++i) {
        if (lut[i] < 0 || lut[i] > 255) {
            ok = false;
            break;
        }
    }
    e.fits.store(ok ? 1 : 0, std::memory_order_relaxed);
    e.lut.store(lut, std::memory_order_release);
    return ok;
}

bool nibble_eligible(const BlockedGemmArgs& a) {
    return a.bits <= 4 && a.x.packed4 != nullptr && a.x.plan.tr % 16 == 0 &&
           lut_fits_u8(a.lut, a.bits);
}

} // namespace

bool accumulate_panel(const BlockedGemmArgs& a, std::int64_t rb,
                      std::int64_t ob, std::int64_t* acc) {
    const Isa isa = select();
    if (isa == Isa::kScalar) return false;
    const bool nibble = nibble_eligible(a);
    switch (isa) {
    case Isa::kSsse3:
        if (!nibble) return false;
        detail::acc_panel_nibble_ssse3(a, rb, ob, acc);
        AMRET_OBS_COUNT("kernels.simd.panels.ssse3", 1);
        return true;
    case Isa::kAvx2:
        if (nibble) {
            detail::acc_panel_nibble_avx2(a, rb, ob, acc);
        } else {
            if (a.x.plan.tr < 8) return false;
            detail::acc_panel_gather_avx2(a, rb, ob, acc);
        }
        AMRET_OBS_COUNT("kernels.simd.panels.avx2", 1);
        return true;
    case Isa::kAvx512:
        if (nibble) {
            // The byte-table path beats gathers even at 512-bit width; the
            // AVX2-TU copy runs VEX-encoded, which is fine under AVX-512.
            detail::acc_panel_nibble_avx2(a, rb, ob, acc);
        } else {
            if (a.x.plan.tr < 8) return false;
            detail::acc_panel_gather_avx512(a, rb, ob, acc);
        }
        AMRET_OBS_COUNT("kernels.simd.panels.avx512", 1);
        return true;
    case Isa::kScalar: break;
    }
    return false;
}

std::int64_t backward_columns(const BlockedGemmArgs& a, const float* gyp,
                              const float* pairs, std::int64_t k0,
                              std::int64_t k1, float* gw_raw, float* gx_raw) {
    switch (select()) {
    case Isa::kAvx2:
        AMRET_OBS_COUNT("kernels.simd.backward_blocks.avx2", 1);
        return detail::backward_columns_avx2(a, gyp, pairs, k0, k1, gw_raw,
                                             gx_raw);
    case Isa::kAvx512:
        AMRET_OBS_COUNT("kernels.simd.backward_blocks.avx512", 1);
        return detail::backward_columns_avx512(a, gyp, pairs, k0, k1, gw_raw,
                                               gx_raw);
    case Isa::kScalar:
    case Isa::kSsse3: break;
    }
    return k0;
}

} // namespace amret::kernels::simd
