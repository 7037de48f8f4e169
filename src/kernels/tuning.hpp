/// \file tuning.hpp
/// \brief Named tuning constants for the LUT-kernel layer.
///
/// Every grain and tile dimension used by the hot paths lives here, so
/// tuning happens in one place instead of as magic numbers scattered over
/// the consumers. Two rules keep the determinism contract intact:
///   - parallel_for grains over *disjoint-write* loops may change freely
///     (chunking never changes what a chunk computes);
///   - grains feeding parallel_accumulate (kGrainBiasRows) change the
///     chunk-reduction association order and therefore the float results —
///     treat them as part of the numerical contract, not free tuning knobs.
/// Tile dimensions (kTileP/kTileO/kTileK) only re-block integer-accumulated
/// or order-preserving loops, so they are always safe to tune (see
/// lut_kernels.hpp).
#pragma once

#include <cstdint>

namespace amret::kernels::tune {

/// Per-channel / per-filter loops (one channel is already a big work item).
inline constexpr std::int64_t kGrainChannel = 1;

/// Row-sum / LUT-table-row scans.
inline constexpr std::int64_t kGrainSumRows = 8;

/// Gradient-LUT row fills and per-row LUT invariant checks (each row is a
/// 2^B-entry scan plus a difference-gradient pass).
inline constexpr std::int64_t kGrainLutRows = 4;

/// Depth columns per group of the fused LUT backward (lut_backward_blocked):
/// its parallel split hands out whole groups, so one AVX-512 vector (two
/// AVX2 vectors) never straddles two chunks and only a layer's last group
/// can carry a ragged depth tail.
inline constexpr std::int64_t kBackwardGroup = 16;

/// Column groups per chunk of the fused LUT backward. Every chunk re-scans
/// the upstream gradient for its nonzero entries and re-reads the
/// activation codes, so chunks stay at least 64 columns wide. The split
/// never changes results (every gx/gw element keeps its defining order).
inline constexpr std::int64_t kGrainBackwardGroups = 4;

/// Bias-gradient accumulation rows. Feeds parallel_accumulate: changing it
/// changes the reduction association order and thus float results.
inline constexpr std::int64_t kGrainBiasRows = 16;

/// Position-row layout transforms (scatter/gather, bias add).
inline constexpr std::int64_t kGrainCopyRows = 64;

/// Elementwise mask / scale loops.
inline constexpr std::int64_t kGrainElementwise = 256;

/// Wide elementwise loops (quantization, input conversion).
inline constexpr std::int64_t kGrainElementwiseWide = 1024;

/// LUT-GEMM panel dims: activation panels are kTileP rows, weight panels
/// kTileO rows, both kTileK deep; the int64 accumulator tile is
/// kTileP x kTileO. Tuned from bench_micro --tile-sweep
/// (results/kernel_tile_sweep.csv): the random product-LUT lookups dominate,
/// so wide K blocks win (K splitting only adds accumulator-tile traffic) and
/// large P/O tiles amortize the epilogue. kTileK still bounds the operand
/// rows touched per accumulator pass for very deep reductions (patch > 1024).
///
/// These are the COMPILED FALLBACKS only: the layers and the integer engine
/// take their panel plans from kernels::Tuning::current(), which resolves
/// AMRET_TILES, then the persistent auto-tuner output
/// (results/kernel_tuning.json, written by bench_micro --tile-sweep), and
/// only then these constants.
inline constexpr std::int64_t kTileP = 16;
inline constexpr std::int64_t kTileO = 64;
inline constexpr std::int64_t kTileK = 1024;

} // namespace amret::kernels::tune

namespace amret::kernels {

/// Runtime panel-tile picks for the LUT-GEMM kernels. Resolution order:
///   1. AMRET_TILES=PxOxK (e.g. "16x64x1024") — explicit override;
///   2. the persistent auto-tuner file written by bench_micro --tile-sweep
///      (results/kernel_tuning.json, or the path in AMRET_TUNING_FILE);
///      when the file carries a per-ISA block matching the active SIMD
///      dispatch level (kernels::simd::select()), that block's tiles win;
///   3. the compiled tune::kTile* defaults.
/// A tuner file that exists but is malformed or out-of-range is rejected
/// whole with a typed warning (obs::warn_once) and the defaults stand.
/// Tile dimensions only re-block integer-accumulated or order-preserving
/// loops (see lut_kernels.hpp), so any resolved pick is numerically safe.
struct Tuning {
    std::int64_t tp = tune::kTileP;
    std::int64_t to = tune::kTileO;
    std::int64_t tk = tune::kTileK;

    /// The process-wide picks (resolved once, cached; thread-safe).
    static const Tuning& current();
    /// Uncached resolution (env + file + defaults) — what current() caches.
    static Tuning resolve();
    /// Test/tool hook: overrides current() process-wide. Call only while no
    /// kernels are running (tests and bench set it between measurements).
    static void set_for_test(const Tuning& t);
    /// Removes a set_for_test override.
    static void clear_test_override();
};

} // namespace amret::kernels
