/// \file stats.hpp
/// \brief The benchmark's own arithmetic: order statistics with sample
///        counts, the seeded Poisson arrival schedule, the serving-ladder
///        verdict and the self-time fold over recorded spans.
///
/// Nothing here touches amret; the workloads feed it plain numbers, so the
/// unit tests in tests/test_stats.cpp can pin every rule on synthetic data.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Order statistics of one timing sample.
struct Summary {
    std::size_t n = 0;
    double p50 = 0.0;
    double p90 = 0.0; ///< valid when supports(n, 0.90)
    double p99 = 0.0; ///< valid when supports(n, 0.99)
};

/// Linear-interpolated quantile q in [0, 1] of \p values (R type 7, the
/// definition numpy uses by default). Empty input gives 0.
double quantile(std::vector<double> values, double q);

/// Median of \p values (quantile 0.5).
double median(const std::vector<double>& values);

/// True when \p n samples put at least ten samples beyond quantile \p q,
/// the rule for reporting a percentile at all.
bool supports(std::size_t n, double q);

Summary summarize(const std::vector<double>& values);

/// SplitMix64: the benchmark's only random source, so a seed gives the
/// same inputs on every platform and standard library.
class SplitMix64 {
public:
    explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
    std::uint64_t next();
    /// Uniform double in [0, 1).
    double uniform();

private:
    std::uint64_t state_;
};

/// Due times (seconds from the start of the rung, ascending) of a Poisson
/// arrival process at \p rate_per_s over \p duration_s.
std::vector<double> poisson_schedule(double rate_per_s, double duration_s,
                                     std::uint64_t seed);

/// What one rung of the open-loop ladder measured.
struct Rung {
    double rate_per_s = 0.0;     ///< offered (nominal) rate
    double achieved_per_s = 0.0; ///< requests served kOk per second of schedule
    std::int64_t sent = 0;
    std::int64_t failed = 0;     ///< non-kOk or wrong logits
    Summary latency_ms;          ///< from each request's due time
    Summary late_ms;             ///< generator lateness (submit - due)
};

/// The limits a rung must meet to count as sustained.
struct LadderLimits {
    double p90_ms = 0.0;     ///< latency p90 limit
    /// Limit on the generator's median lateness. A generator that cannot
    /// keep up falls further behind with every request, so its median
    /// lateness grows with the rung; a host stall that makes one burst of
    /// requests late leaves the median near zero.
    double late_p50_ms = 0.0;
};

/// A rung passes when something was sent and nothing failed, its p90 is
/// supported by the sample and within the limit, and the generator kept up
/// with the schedule.
bool rung_passes(const Rung& rung, const LadderLimits& limits);

/// Index of the highest rung that passes, or -1 when none does.
int highest_passing(const std::vector<Rung>& rungs, const LadderLimits& limits);

/// One recorded span: a named wall-clock interval on one thread.
struct Span {
    std::string name;
    std::uint32_t tid = 0;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
};

/// Per-name totals of a folded span list.
struct Folded {
    std::uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
};

/// Folds spans into per-name total and self time. Nesting is by interval
/// containment per thread. A span's self time is its duration minus the
/// durations of its nearest non-transparent descendants, so time a layer
/// spends inside a transparent span (the runtime's parallel_for and its
/// chunks) stays charged to that layer; transparent spans themselves get
/// ordinary self time (duration minus direct children). With this rule the
/// self times of the non-transparent spans of one thread add up exactly to
/// the durations of that thread's outermost non-transparent spans. The
/// benchmark keeps this rule itself, rather than using obs::fold_spans, so
/// that a change to the program cannot change how its time is attributed.
std::map<std::string, Folded> fold_self_time(std::vector<Span> spans,
                                             const std::string& transparent_prefix);

} // namespace perfbench
