/// \file common.hpp
/// \brief What the three workloads share: options, the outcome they hand
///        back to main(), the seeded input generator, and small helpers
///        around amret's public API (fresh multiplier LUTs, counter
///        snapshots, trace collection).
#pragma once

#include "stats.hpp"

#include "amret.hpp"

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

/// One reported number with its unit and the sample count behind it.
struct Value {
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;
};

/// A workload's result. `end_to_end` holds the gated slots (rate_per_s,
/// latency_ms); `detail` the workload's own named metrics, printed but not
/// gated; `layers` the per-layer numbers of a traced run.
struct Outcome {
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    std::vector<double> setup_s; ///< one entry per set-up pass
    std::map<std::string, Value> end_to_end;
    std::map<std::string, Value> detail;
    std::map<std::string, Value> layers;
    std::vector<std::string> notes; ///< the first 20 failed checks

    void fail(const std::string& note) {
        ++failed;
        if (notes.size() < 20) notes.push_back(note);
    }
};

Outcome run_retrain(const Options& opt);
Outcome run_infer(const Options& opt);
Outcome run_serve(const Options& opt);

/// Set-up passes per run; setup_s is their median.
inline constexpr int kSetupPasses = 5;

/// Runtime threads of the offline workloads. On a shared host the
/// hypervisor steals time from each vCPU, and a parallel region waits for
/// its slowest thread: at 2 threads the batch time swung by a third between
/// runs while its CPU time held within 2 %. At 1 thread wall time tracks
/// CPU time, so the offline workloads measure one core.
inline constexpr unsigned kOfflineThreads = 1;

/// Quantile of the offline workloads' call times that their gated metrics
/// use. Every call does identical work, so the spread of call times is the
/// host's: its other tenants slow this core by up to 1.9x for seconds at a
/// time, and the share of a run they take varies from run to run. Calls
/// therefore fall into a fast and a slow mode, and the median lands in
/// whichever held more of the run. Over five runs on a 4-vCPU AVX-512 VM
/// the p90 stayed within 3 % of its mean (infer single-sample call, retrain
/// step) while the median moved by a quarter or more. The median is
/// printed, ungated.
inline constexpr double kGateQuantile = 0.90;


/// Builds the product LUT of a spec-constructed registry multiplier from
/// its behavioural model, bypassing every process-wide cache, so each
/// set-up pass pays the full build.
std::shared_ptr<const amret::appmult::AppMultLut> build_lut(const std::string& name);

/// Snapshot and difference of amret's obs counters.
using Counters = std::map<std::string, std::int64_t>;
Counters counters();
Counters operator-(const Counters& after, const Counters& before);

/// Spans of the current obs trace as the fold's input.
std::vector<Span> collect_spans();

/// Self time of the spans recorded since trace_start, with the runtime's
/// parallel_for/chunk spans transparent (charged to the calling layer).
std::map<std::string, Folded> fold_trace();

/// Records `<span>.self_ms` for every kernels.* and runtime.* span of
/// \p folded, divided over \p ops operations (training steps or batches).
void add_self_times(const std::map<std::string, Folded>& folded, std::size_t ops,
                    std::map<std::string, Value>& layers);

/// FNV-1a over a byte range.
std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t h = 1469598103934665603ull);

/// The workload inputs, made by the benchmark from its seed: \p n images
/// of 3 x size x size with labels in [0, 10). Each class has a random
/// prototype (drawn from \p seed alone, so every stream shares them) and a
/// sample is its class prototype plus uniform noise; \p stream selects an
/// independent set of samples (calibration, evaluation, requests).
amret::data::Dataset make_inputs(std::uint64_t seed, std::uint64_t stream,
                                 std::int64_t n, std::int64_t size);

/// Single-sample tensor (1, C, H, W) holding sample \p i of \p set.
amret::tensor::Tensor sample_tensor(const amret::data::Dataset& set, std::int64_t i);

/// Tensor (n, C, H, W) holding samples [0, n) of \p set.
amret::tensor::Tensor batch_tensor(const amret::data::Dataset& set, std::int64_t n);

} // namespace perfbench
