// Unit tests for the benchmark's own arithmetic (src/stats.hpp).
#include "stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace pb = perfbench;

TEST(Quantile, MatchesLinearInterpolation) {
    const std::vector<double> v{5, 1, 4, 2, 3};
    EXPECT_DOUBLE_EQ(pb::median(v), 3.0);
    EXPECT_DOUBLE_EQ(pb::quantile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(pb::quantile(v, 1.0), 5.0);
    EXPECT_DOUBLE_EQ(pb::quantile(v, 0.25), 2.0);
    EXPECT_DOUBLE_EQ(pb::median({1, 2, 3, 4}), 2.5);
    EXPECT_DOUBLE_EQ(pb::quantile({1, 2, 3, 4}, 0.9), 3.7);
    EXPECT_DOUBLE_EQ(pb::median({}), 0.0);
}

TEST(Quantile, PercentileNeedsTenSamplesBeyondIt) {
    EXPECT_FALSE(pb::supports(99, 0.90));
    EXPECT_TRUE(pb::supports(100, 0.90));
    EXPECT_FALSE(pb::supports(999, 0.99));
    EXPECT_TRUE(pb::supports(1000, 0.99));

    std::vector<double> v;
    for (int i = 1; i <= 99; ++i) v.push_back(i);
    pb::Summary s = pb::summarize(v);
    EXPECT_EQ(s.n, 99u);
    EXPECT_DOUBLE_EQ(s.p50, 50.0);
    EXPECT_EQ(s.p90, 0.0); // not supported by 99 samples
    v.push_back(100);
    s = pb::summarize(v);
    EXPECT_EQ(s.n, 100u);
    EXPECT_DOUBLE_EQ(s.p90, 90.1);
    EXPECT_EQ(s.p99, 0.0);
}

TEST(PoissonSchedule, SameSeedSameScheduleOtherSeedOther) {
    const auto a = pb::poisson_schedule(4000.0, 2.0, 17);
    const auto b = pb::poisson_schedule(4000.0, 2.0, 17);
    const auto c = pb::poisson_schedule(4000.0, 2.0, 18);
    ASSERT_EQ(a, b);
    EXPECT_NE(a, c);
    // Pinned values: the schedule must not depend on the standard library.
    ASSERT_GT(a.size(), 2u);
    EXPECT_EQ(pb::SplitMix64(0).next(), 0xe220a8397b1dcdafull);
}

TEST(PoissonSchedule, AscendingWithinWindowAtTheOfferedRate) {
    const auto due = pb::poisson_schedule(4000.0, 5.0, 3);
    ASSERT_FALSE(due.empty());
    for (std::size_t i = 1; i < due.size(); ++i) EXPECT_LT(due[i - 1], due[i]);
    EXPECT_GT(due.front(), 0.0);
    EXPECT_LT(due.back(), 5.0);
    // 20000 expected arrivals; the Poisson sd is ~141, allow 5 sd.
    EXPECT_NEAR(static_cast<double>(due.size()), 20000.0, 710.0);
    double gaps = 0.0;
    for (std::size_t i = 1; i < due.size(); ++i) gaps += due[i] - due[i - 1];
    EXPECT_NEAR(gaps / static_cast<double>(due.size() - 1), 1.0 / 4000.0, 1e-5);
}

namespace {

pb::Rung good_rung(double rate) {
    pb::Rung r;
    r.rate_per_s = rate;
    r.achieved_per_s = rate;
    r.sent = 1000;
    r.latency_ms = pb::Summary{1000, 2.0, 3.0, 4.0};
    r.late_ms = pb::Summary{1000, 0.01, 0.05, 0.2};
    return r;
}

} // namespace

TEST(Ladder, VerdictChecksLimitFailuresAndBacklog) {
    const pb::LadderLimits limits{10.0, 1.0};
    pb::Rung r = good_rung(1000);
    EXPECT_TRUE(pb::rung_passes(r, limits));

    pb::Rung slow = r;
    slow.latency_ms.p90 = 10.5;
    EXPECT_FALSE(pb::rung_passes(slow, limits));

    pb::Rung failing = r;
    failing.failed = 1;
    EXPECT_FALSE(pb::rung_passes(failing, limits));

    pb::Rung behind = r;
    behind.late_ms.p50 = 1.5;
    EXPECT_FALSE(pb::rung_passes(behind, limits));

    pb::Rung stalled = r; // one stall: a late burst in the tail only
    stalled.late_ms.p99 = 40.0;
    EXPECT_TRUE(pb::rung_passes(stalled, limits));

    pb::Rung thin = r;
    thin.latency_ms.n = 50; // p90 not supported by the sample
    EXPECT_FALSE(pb::rung_passes(thin, limits));

    pb::Rung empty;
    EXPECT_FALSE(pb::rung_passes(empty, limits));
}

TEST(Ladder, HighestPassingRungIsReportedEvenAfterAGlitchBelowIt) {
    const pb::LadderLimits limits{10.0, 1.0};
    std::vector<pb::Rung> rungs{good_rung(1000), good_rung(4000), good_rung(8000),
                                good_rung(16000)};
    EXPECT_EQ(pb::highest_passing(rungs, limits), 3);
    rungs[3].latency_ms.p90 = 25.0;
    EXPECT_EQ(pb::highest_passing(rungs, limits), 2);
    rungs[0].failed = 2;
    EXPECT_EQ(pb::highest_passing(rungs, limits), 2);
    for (auto& r : rungs) r.failed = 1;
    EXPECT_EQ(pb::highest_passing(rungs, limits), -1);
}

namespace {

pb::Span span(const char* name, std::uint32_t tid, std::uint64_t s, std::uint64_t e) {
    return pb::Span{name, tid, s * 1000000, e * 1000000}; // ms -> ns
}

} // namespace

TEST(Fold, SelfTimeSubtractsNestedSpans) {
    // thread 0:  step [0,100) { fwd [10,40) { gemm [15,35) }, loss [40,45),
    //                           bwd [50,90) { gemm [55,85) } }
    const std::vector<pb::Span> spans{
        span("step", 0, 0, 100), span("fwd", 0, 10, 40), span("gemm", 0, 15, 35),
        span("loss", 0, 40, 45), span("bwd", 0, 50, 90), span("gemm", 0, 55, 85)};
    const auto f = pb::fold_self_time(spans, "runtime.");
    EXPECT_EQ(f.at("gemm").count, 2u);
    EXPECT_NEAR(f.at("gemm").total_ms, 50.0, 1e-9);
    EXPECT_NEAR(f.at("gemm").self_ms, 50.0, 1e-9);
    EXPECT_NEAR(f.at("fwd").self_ms, 10.0, 1e-9);
    EXPECT_NEAR(f.at("bwd").self_ms, 10.0, 1e-9);
    EXPECT_NEAR(f.at("loss").self_ms, 5.0, 1e-9);
    EXPECT_NEAR(f.at("step").self_ms, 25.0, 1e-9);
    double sum = 0.0;
    for (const auto& [name, v] : f) sum += v.self_ms;
    EXPECT_NEAR(sum, 100.0, 1e-9); // self times add up to the root span
}

TEST(Fold, TransparentRuntimeSpansStayChargedToTheirLayer) {
    // thread 0: gemm [0,50) { parallel_for [5,45) { chunk [5,25) { pack [10,20) } } }
    // thread 1: chunk [6,44) — a pool thread's share, a root on its thread.
    const std::vector<pb::Span> spans{
        span("kernels.gemm", 0, 0, 50), span("runtime.parallel_for", 0, 5, 45),
        span("runtime.chunk", 0, 5, 25), span("kernels.pack", 0, 10, 20),
        span("runtime.chunk", 1, 6, 44)};
    const auto f = pb::fold_self_time(spans, "runtime.");
    // gemm keeps the parallel region except the nested opaque pack.
    EXPECT_NEAR(f.at("kernels.gemm").self_ms, 40.0, 1e-9);
    EXPECT_NEAR(f.at("kernels.pack").self_ms, 10.0, 1e-9);
    // parallel_for: ordinary self time = 40 - its direct child chunk (20).
    EXPECT_NEAR(f.at("runtime.parallel_for").self_ms, 20.0, 1e-9);
    EXPECT_EQ(f.at("runtime.chunk").count, 2u);
    // Opaque self times on thread 0 add up to the root's duration.
    EXPECT_NEAR(f.at("kernels.gemm").self_ms + f.at("kernels.pack").self_ms, 50.0,
                1e-9);
}

TEST(Fold, ThreadsAreFoldedIndependently) {
    const std::vector<pb::Span> spans{span("a", 0, 0, 10), span("b", 1, 2, 8),
                                      span("a", 1, 0, 10)};
    const auto f = pb::fold_self_time(spans, "");
    EXPECT_NEAR(f.at("a").total_ms, 20.0, 1e-9);
    EXPECT_NEAR(f.at("a").self_ms, 14.0, 1e-9); // 10 on thread 0 + 4 on thread 1
    EXPECT_NEAR(f.at("b").self_ms, 6.0, 1e-9);
}
