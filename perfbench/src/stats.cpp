#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(const std::vector<double>& values) { return quantile(values, 0.5); }

bool supports(std::size_t n, double q) {
    return (1.0 - q) * static_cast<double>(n) >= 10.0 - 1e-9;
}

Summary summarize(const std::vector<double>& values) {
    Summary s;
    s.n = values.size();
    s.p50 = median(values);
    if (supports(s.n, 0.90)) s.p90 = quantile(values, 0.90);
    if (supports(s.n, 0.99)) s.p99 = quantile(values, 0.99);
    return s;
}

std::uint64_t SplitMix64::next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double SplitMix64::uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::vector<double> poisson_schedule(double rate_per_s, double duration_s,
                                     std::uint64_t seed) {
    std::vector<double> due;
    if (rate_per_s <= 0.0 || duration_s <= 0.0) return due;
    due.reserve(static_cast<std::size_t>(rate_per_s * duration_s * 1.1) + 16);
    SplitMix64 rng(seed);
    double t = 0.0;
    for (;;) {
        t += -std::log1p(-rng.uniform()) / rate_per_s; // exponential gap
        if (t >= duration_s) break;
        due.push_back(t);
    }
    return due;
}

bool rung_passes(const Rung& rung, const LadderLimits& limits) {
    return rung.sent > 0 && rung.failed == 0 &&
           supports(rung.latency_ms.n, 0.90) &&
           rung.latency_ms.p90 <= limits.p90_ms &&
           rung.late_ms.p50 <= limits.late_p50_ms;
}

int highest_passing(const std::vector<Rung>& rungs, const LadderLimits& limits) {
    int best = -1;
    for (std::size_t i = 0; i < rungs.size(); ++i)
        if (rung_passes(rungs[i], limits)) best = static_cast<int>(i);
    return best;
}

std::map<std::string, Folded> fold_self_time(std::vector<Span> spans,
                                             const std::string& transparent_prefix) {
    // Parents first: by thread, then start ascending, then longer first.
    std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
        if (a.tid != b.tid) return a.tid < b.tid;
        if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
        return a.end_ns > b.end_ns;
    });
    const auto transparent = [&](const Span& s) {
        return !transparent_prefix.empty() &&
               s.name.compare(0, transparent_prefix.size(), transparent_prefix) == 0;
    };

    std::vector<std::uint64_t> covered(spans.size(), 0); // ns charged away
    std::vector<std::size_t> stack;                      // open ancestors
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        while (!stack.empty() && (spans[stack.back()].tid != s.tid ||
                                  spans[stack.back()].end_ns <= s.start_ns))
            stack.pop_back();
        const std::uint64_t dur = s.end_ns - s.start_ns;
        if (!stack.empty()) {
            // Direct parent: ordinary self time for a transparent parent.
            if (transparent(spans[stack.back()])) covered[stack.back()] += dur;
            // Nearest non-transparent ancestor loses this span's time,
            // unless this span is transparent (its time stays charged there).
            if (!transparent(s)) {
                for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
                    if (!transparent(spans[*it])) {
                        covered[*it] += dur;
                        break;
                    }
                }
            }
        }
        stack.push_back(i);
    }

    std::map<std::string, Folded> out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        const std::uint64_t dur = s.end_ns - s.start_ns;
        Folded& f = out[s.name];
        ++f.count;
        f.total_ms += static_cast<double>(dur) * 1e-6;
        f.self_ms += static_cast<double>(dur - std::min(dur, covered[i])) * 1e-6;
    }
    return out;
}

} // namespace perfbench
