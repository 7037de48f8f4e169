// serve-lenet-open: an open-loop ladder against serve::InferenceServer.
// One generator thread sends single-sample requests on a seeded Poisson
// schedule at fixed rates; latency is timed from each request's due time
// and every kOk response must equal the single-shot logits of its sample.
#include "common.hpp"

#include <algorithm>
#include <cstring>
#include <thread>

namespace perfbench {

using namespace amret;

namespace {

/// The ladder: rates in requests/s, low rung first, high rung second. The
/// top rung stays far below capacity (about 36000 req/s on a 4-vCPU VM) so
/// that a host stall cannot fill the 1024-deep admission queue: at 8000
/// req/s one stall did, and 28 requests were rejected in one of ten runs.
constexpr double kRungs[] = {1000.0, 4000.0, 6000.0};
constexpr std::size_t kHighRung = 1;
/// A rung is sustained when p90 <= 10 ms, nothing failed, and the
/// generator's median lateness is under 1 ms (no backlog).
constexpr LadderLimits kLimits{10.0, 1.0};
constexpr double kHotShare = 0.9;
constexpr std::int64_t kPool = 64; // distinct request samples

struct Setup {
    data::Dataset calibration, pool;
    std::uint64_t seed = 0;
    std::vector<serve::ModelSpec> specs; ///< [0] hot, [1] cold
    std::vector<double> compile_ms;      ///< one per engine load
    int unsafe_graphs = 0;
    std::unique_ptr<serve::ModelRegistry> registry;
    std::unique_ptr<serve::InferenceServer> server; // stopped before registry
};

std::shared_ptr<approx::IntInferenceEngine> load(Setup& s, const serve::ModelSpec& spec) {
    models::ModelConfig mc;
    mc.num_classes = 10;
    mc.in_size = 8;
    mc.width_mult = 0.5f;
    mc.seed = s.seed;
    auto model = models::make_lenet(mc); // every spec is a lenet
    approx::MultiplierConfig config;
    config.lut = build_lut(spec.multiplier);
    config.grad = std::make_shared<const core::GradLut>(core::build_ste_grad(config.lut->bits()));
    config.name = spec.multiplier;
    approx::configure_approx_layers(*model, config, approx::ComputeMode::kQuantized);
    model->set_training(false);
    const auto t0 = Clock::now();
    auto engine = std::make_shared<approx::IntInferenceEngine>(*model, s.calibration, 128,
                                                               approx::SafetyPolicy::kOff);
    if (!analysis::analyze_graph(engine->describe()).safe) ++s.unsafe_graphs;
    s.compile_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
    return engine;
}

std::unique_ptr<Setup> set_up(std::uint64_t seed) {
    auto s = std::make_unique<Setup>();
    s->seed = seed;
    s->calibration = make_inputs(seed, 0, 128, 8);
    s->pool = make_inputs(seed, 1, kPool, 8);
    const std::string snapshot = "seed" + std::to_string(seed);
    s->specs = {{"lenet", "mul8u_2NDH", snapshot}, {"lenet", "mul7u_rm6", snapshot}};
    Setup* raw = s.get();
    s->registry = std::make_unique<serve::ModelRegistry>(
        [raw](const serve::ModelSpec& spec) { return load(*raw, spec); }, 4);
    s->server = std::make_unique<serve::InferenceServer>(*s->registry, serve::ServeConfig{});
    for (const auto& spec : s->specs) s->registry->acquire(spec); // pre-warm
    return s;
}

/// Everything one rung recorded.
struct RungData {
    Rung rung;
    std::vector<double> queue_ms, compute_ms;
    double mean_batch = 0.0;
};

void wait_until(Clock::time_point t) {
    if (t - Clock::now() > std::chrono::microseconds(300))
        std::this_thread::sleep_until(t - std::chrono::microseconds(150));
    while (Clock::now() < t) {
    }
}

RungData run_rung(Setup& s, double rate, double seconds, std::uint64_t seed,
                  const std::vector<std::vector<std::vector<float>>>& expected,
                  const std::vector<tensor::Tensor>& samples, Outcome& out) {
    const std::vector<double> due = poisson_schedule(rate, seconds, seed);
    SplitMix64 pick(seed ^ 0x5bd1e995ull);
    struct Sent {
        std::future<serve::Result> result;
        double late_ms = 0.0;
        std::size_t spec = 0;
        std::size_t sample = 0;
    };
    std::vector<Sent> sent;
    sent.reserve(due.size());

    const serve::ServerStats before = s.server->stats();
    const auto start = Clock::now() + std::chrono::milliseconds(2);
    for (const double t : due) {
        const auto at = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(t));
        Sent r;
        r.spec = pick.uniform() < kHotShare ? 0 : 1;
        r.sample = static_cast<std::size_t>(pick.next() % kPool);
        wait_until(at);
        r.late_ms = seconds_between(at, Clock::now()) * 1e3;
        r.result = s.server->submit(s.specs[r.spec], samples[r.sample]);
        sent.push_back(std::move(r));
    }

    RungData d;
    d.rung.rate_per_s = rate;
    std::vector<double> latency, late;
    std::int64_t ok = 0;
    for (Sent& r : sent) {
        const serve::Result res = r.result.get();
        ++out.attempted;
        ++d.rung.sent;
        late.push_back(r.late_ms);
        if (res.status != serve::Status::kOk) {
            ++d.rung.failed;
            out.fail(std::string("serve: status ") + serve::to_string(res.status));
            continue;
        }
        const std::vector<float>& want = expected[r.spec][r.sample];
        if (res.logits.numel() != static_cast<std::int64_t>(want.size()) ||
            std::memcmp(res.logits.data(), want.data(), want.size() * sizeof(float)) != 0) {
            ++d.rung.failed;
            out.fail("serve: logits differ from the single-shot reference");
            continue;
        }
        ++ok;
        latency.push_back(r.late_ms + static_cast<double>(res.total_us) * 1e-3);
        d.queue_ms.push_back(static_cast<double>(res.queue_us) * 1e-3);
        d.compute_ms.push_back(static_cast<double>(res.total_us - res.queue_us) * 1e-3);
    }
    const serve::ServerStats after = s.server->stats();
    const std::int64_t batches = after.batches - before.batches;
    d.mean_batch = batches > 0 ? static_cast<double>(after.batch_rows - before.batch_rows) /
                                     static_cast<double>(batches)
                               : 0.0;
    d.rung.achieved_per_s = static_cast<double>(ok) / seconds;
    d.rung.latency_ms = summarize(latency);
    d.rung.late_ms = summarize(late);
    return d;
}

void record_rung(const RungData& d, const std::string& prefix, Outcome& out) {
    const Rung& r = d.rung;
    out.detail[prefix + ".p50_ms"] = Value{r.latency_ms.p50, "ms", r.latency_ms.n};
    out.detail[prefix + ".p90_ms"] = Value{r.latency_ms.p90, "ms", r.latency_ms.n};
    out.detail[prefix + ".p99_ms"] = Value{r.latency_ms.p99, "ms", r.latency_ms.n};
    out.detail[prefix + ".late_p50_ms"] = Value{r.late_ms.p50, "ms", r.late_ms.n};
    out.detail[prefix + ".late_p99_ms"] = Value{r.late_ms.p99, "ms", r.late_ms.n};
    out.detail[prefix + ".achieved_per_s"] = Value{r.achieved_per_s, "1/s", r.latency_ms.n};
    out.detail[prefix + ".failed"] =
        Value{static_cast<double>(r.failed), "count", static_cast<std::size_t>(r.sent)};
    out.detail[prefix + ".passes"] = Value{rung_passes(r, kLimits) ? 1.0 : 0.0, "bool", 1};
}

} // namespace

Outcome run_serve(const Options& opt) {
    runtime::set_num_threads(1); // generator + coalescer + 2 workers
    Outcome out;
    std::unique_ptr<Setup> s;
    std::vector<double> compile_ms;
    for (int pass = 0; pass < kSetupPasses; ++pass) {
        s.reset();
        const auto t0 = Clock::now();
        s = set_up(opt.seed);
        out.setup_s.push_back(seconds_between(t0, Clock::now()));
        compile_ms.insert(compile_ms.end(), s->compile_ms.begin(), s->compile_ms.end());
    }
    if (s->unsafe_graphs != 0) out.fail("serve: a compiled graph is not proven overflow-free");

    // Single-shot references for every (spec, sample), off the server.
    std::vector<tensor::Tensor> samples;
    for (std::int64_t i = 0; i < kPool; ++i) samples.push_back(sample_tensor(s->pool, i));
    std::vector<std::vector<std::vector<float>>> expected(s->specs.size());
    kernels::Workspace ws;
    tensor::Tensor logits;
    for (std::size_t m = 0; m < s->specs.size(); ++m) {
        const auto engine = s->registry->acquire(s->specs[m])->engine;
        for (const tensor::Tensor& x : samples) {
            engine->forward_into(x, ws, logits);
            expected[m].emplace_back(logits.data(), logits.data() + logits.numel());
        }
    }

    std::uint64_t rung_seed = opt.seed * 1000003ull;
    run_rung(*s, kRungs[0], 0.5, ++rung_seed, expected, samples, out); // warm-up

    const std::size_t n_rungs = opt.trace ? 2 : std::size(kRungs);
    const double rung_s = opt.trace ? opt.seconds / 4 : opt.seconds / static_cast<double>(n_rungs);
    std::vector<RungData> ladder;
    std::vector<Rung> rungs;
    for (std::size_t i = 0; i < n_rungs; ++i) {
        ladder.push_back(run_rung(*s, kRungs[i], rung_s, ++rung_seed, expected, samples, out));
        rungs.push_back(ladder.back().rung);
        record_rung(ladder.back(), "serve.rung" + std::to_string(static_cast<int>(kRungs[i])),
                    out);
    }
    const Rung& low = rungs[0];
    const Rung& high = rungs[kHighRung];
    out.end_to_end["latency_ms"] = Value{low.latency_ms.p50, "ms", low.latency_ms.n};
    out.detail["serve.low.p50_ms"] = Value{low.latency_ms.p50, "ms", low.latency_ms.n};
    out.detail["serve.high.p50_ms"] = Value{high.latency_ms.p50, "ms", high.latency_ms.n};
    out.detail["serve.high.p90_ms"] = Value{high.latency_ms.p90, "ms", high.latency_ms.n};
    out.detail["serve.high.p99_ms"] = Value{high.latency_ms.p99, "ms", high.latency_ms.n};
    if (!opt.trace) {
        const int best = highest_passing(rungs, kLimits);
        const double max_rps = best < 0 ? 0.0 : rungs[static_cast<std::size_t>(best)].achieved_per_s;
        const std::size_t n = best < 0 ? 0 : rungs[static_cast<std::size_t>(best)].latency_ms.n;
        out.end_to_end["rate_per_s"] = Value{max_rps, "1/s", n};
        out.detail["serve.max_rps"] = Value{max_rps, "1/s", n};
        return out;
    }

    // --- traced run: per-layer breakdown at the high rung --------------------
    auto& L = out.layers;
    const RungData& hd = ladder[kHighRung];
    const Summary queue = summarize(hd.queue_ms), compute = summarize(hd.compute_ms);
    L["serve.queue_ms.p50"] = Value{queue.p50, "ms", queue.n};
    L["serve.queue_ms.p90"] = Value{queue.p90, "ms", queue.n};
    L["serve.compute_ms.p50"] = Value{compute.p50, "ms", compute.n};
    L["serve.compute_ms.p90"] = Value{compute.p90, "ms", compute.n};
    L["serve.mean_batch"] = Value{hd.mean_batch, "count", queue.n};
    L["serve.gen_late_ms.p99"] = Value{high.late_ms.p99, "ms", high.late_ms.n};
    L["approx.engine.compile_ms"] = Value{median(compile_ms), "ms", compile_ms.size()};

    // A short traced rung: every batch records dozens of spans, and the
    // per-thread trace rings must not wrap.
    constexpr double kTracedRungS = 2.0;
    const serve::ServerStats before = s->server->stats();
    obs::trace_start();
    const RungData traced =
        run_rung(*s, kRungs[kHighRung], kTracedRungS, ++rung_seed, expected, samples, out);
    obs::trace_stop();
    const serve::ServerStats after = s->server->stats();
    const auto batches = static_cast<std::size_t>(std::max<std::int64_t>(
        1, after.batches - before.batches));
    const auto folded = fold_trace();
    add_self_times(folded, batches, L);
    if (const auto it = folded.find("serve.worker.batch"); it != folded.end())
        L["approx.engine.self_ms"] =
            Value{it->second.self_ms / static_cast<double>(batches), "ms", batches};
    L["obs.trace_overhead"] = Value{traced.rung.latency_ms.p50 / high.latency_ms.p50, "ratio",
                                    traced.rung.latency_ms.n};
    return out;
}

} // namespace perfbench
