/// \file als.hpp
/// \brief Mini approximate logic synthesis engine (ALSRAC-style substitute).
///
/// The paper's `_syn` multipliers come from an approximate-logic-synthesis
/// tool [Meng et al., DAC'20]. We reproduce the essential loop:
///
///   repeat:
///     enumerate local rewrites (replace a net by constant 0/1, or by an
///       earlier net with a similar exhaustive signature);
///     evaluate each candidate's exact NMED by incremental re-simulation of
///       the victim's transitive fanout cone;
///     greedily apply the rewrite with the best area saving per added error
///       that keeps NMED within the budget;
///   until no rewrite fits; then sweep dead logic.
///
/// Applied to the exact array-multiplier netlists this yields genuinely
/// synthesized approximate multipliers with a target error budget, like the
/// paper's mul8u_syn1/2 and mul7u_syn1/2.
#pragma once

#include "appmult/appmult.hpp"
#include "netlist/netlist.hpp"

#include <cstdint>
#include <string>
#include <vector>

namespace amret::als {

/// Version of the synthesis algorithm. It is part of the registry's on-disk
/// netlist cache key (appmult/registry.cpp): bump it with any change that
/// can alter what synthesize() returns, so a netlist cached by an older
/// algorithm is never reused.
inline constexpr int kAlgorithmVersion = 1;

/// Knobs for one synthesis run.
struct AlsOptions {
    /// NMED budget as a fraction (e.g. 0.0028 for the paper's 0.28%).
    double nmed_budget = 0.003;
    /// Hard cap on accepted rewrites (safety bound).
    int max_moves = 400;
    /// Consider replacing nets by structurally earlier, signature-similar
    /// nets in addition to constants.
    bool enable_wire_substitution = true;
    /// Max wire-substitution candidates evaluated per round (the cheapest
    /// by signature distance are kept).
    int wire_candidates_per_round = 24;
    /// Area-vs-error greed: a candidate's score is
    /// area_saved / (nmed_increase + score_epsilon).
    double score_epsilon = 1e-6;
    /// Input patterns whose output must remain bit-exact; rewrites touching
    /// them are rejected. For DNN multipliers pass
    /// multiplier_zero_patterns(bits): approximations that break
    /// AM(0, x) = AM(w, 0) = 0 inject a constant into every accumulation
    /// and cannot be recovered by retraining (DESIGN.md).
    std::vector<std::uint64_t> protected_patterns;
};

/// The patterns of a B-bit multiplier netlist (inputs W-first) where either
/// operand is zero.
std::vector<std::uint64_t> multiplier_zero_patterns(unsigned bits);

/// Outcome of a synthesis run.
struct AlsResult {
    netlist::Netlist netlist;        ///< approximate circuit (swept)
    appmult::ErrorMetrics metrics;   ///< final error vs the input circuit
    int moves = 0;                   ///< rewrites applied
    double area_before_um2 = 0.0;
    double area_after_um2 = 0.0;
    std::vector<std::string> move_log; ///< human-readable rewrite trace
};

/// Runs the greedy loop on \p exact (any combinational netlist whose
/// outputs are read LSB-first as an unsigned value). Error metrics are
/// computed against the input circuit's own function.
AlsResult synthesize(const netlist::Netlist& exact, const AlsOptions& options);

} // namespace amret::als
