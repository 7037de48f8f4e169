// infer-vgg11: offline batch inference on the integer-only path. A fixed
// batch of 64 runs through IntInferenceEngine::forward_into with a
// workspace owned by the caller, interleaved with single-sample calls whose
// logits must equal the matching batch row.
#include "common.hpp"

#include <cstring>

namespace perfbench {

using namespace amret;

namespace {

constexpr const char* kMult = "mul8u_2NDH";
constexpr std::int64_t kBatch = 64;
constexpr int kSinglesPerRound = 4;
/// Enough batches that ten lie beyond the gated p90.
constexpr std::size_t kMinRounds = 100;

struct Setup {
    data::Dataset calibration, batch;
    std::unique_ptr<nn::Sequential> model;
    std::unique_ptr<approx::IntInferenceEngine> engine;
    bool certified_safe = false;
    double compile_ms = 0.0;
};

std::unique_ptr<Setup> set_up(std::uint64_t seed) {
    auto s = std::make_unique<Setup>();
    s->calibration = make_inputs(seed, 0, 128, 16);
    s->batch = make_inputs(seed, 1, kBatch, 16);

    models::ModelConfig mc;
    mc.num_classes = 10;
    mc.in_size = 16;
    mc.width_mult = 0.25f;
    mc.seed = seed;
    s->model = models::make_vgg("vgg11", mc);
    approx::MultiplierConfig config;
    config.lut = build_lut(kMult);
    config.grad = std::make_shared<const core::GradLut>(core::build_ste_grad(config.lut->bits()));
    config.name = kMult;
    approx::configure_approx_layers(*s->model, config, approx::ComputeMode::kQuantized);
    s->model->set_training(false);

    // Compile, then derive the static-analysis certificate directly so every
    // set-up pass pays for it (the engine's own path would hit its cache).
    const auto t0 = Clock::now();
    s->engine = std::make_unique<approx::IntInferenceEngine>(
        *s->model, s->calibration, 128, approx::SafetyPolicy::kOff);
    s->certified_safe = analysis::analyze_graph(s->engine->describe()).safe;
    s->compile_ms = seconds_between(t0, Clock::now()) * 1e3;
    return s;
}

struct Phase {
    std::vector<double> batch_s, single_s;
    Counters batch_counts;
};

/// Rounds of one timed batch plus kSinglesPerRound timed single-sample calls
/// until \p seconds have passed, and at least kMinRounds.
Phase run_phase(Setup& s, double seconds, std::uint64_t ref_hash,
                const tensor::Tensor& batch, const std::vector<tensor::Tensor>& singles,
                kernels::Workspace& ws, Outcome& out, std::int64_t& next_single) {
    Phase ph;
    tensor::Tensor logits, one;
    bool have_counts = false;
    const auto end = Clock::now() + std::chrono::duration<double>(seconds);
    while (Clock::now() < end || ph.batch_s.size() < kMinRounds) {
        const Counters before = counters();
        const auto t0 = Clock::now();
        s.engine->forward_into(batch, ws, logits);
        ph.batch_s.push_back(seconds_between(t0, Clock::now()));
        const Counters delta = counters() - before;
        ++out.attempted;
        if (fnv1a(logits.data(), static_cast<std::size_t>(logits.numel()) * sizeof(float)) !=
            ref_hash)
            out.fail("infer: batch logits hash changed");
        if (!have_counts) {
            ph.batch_counts = delta;
            have_counts = true;
        } else if (delta != ph.batch_counts) {
            out.fail("infer: batch counter deltas differ");
        }

        for (int k = 0; k < kSinglesPerRound; ++k) {
            const std::int64_t i = next_single++ % kBatch;
            const auto t1 = Clock::now();
            s.engine->forward_into(singles[static_cast<std::size_t>(i)], ws, one);
            ph.single_s.push_back(seconds_between(t1, Clock::now()));
            ++out.attempted;
            const std::int64_t classes = one.numel();
            if (logits.numel() != kBatch * classes ||
                std::memcmp(one.data(), logits.data() + i * classes,
                            static_cast<std::size_t>(classes) * sizeof(float)) != 0)
                out.fail("infer: single-sample logits differ from batch row " +
                         std::to_string(i));
        }
    }
    return ph;
}

} // namespace

Outcome run_infer(const Options& opt) {
    runtime::set_num_threads(kOfflineThreads);
    Outcome out;
    std::unique_ptr<Setup> s;
    std::vector<double> compile_ms;
    for (int pass = 0; pass < kSetupPasses; ++pass) {
        s.reset();
        const auto t0 = Clock::now();
        s = set_up(opt.seed);
        out.setup_s.push_back(seconds_between(t0, Clock::now()));
        compile_ms.push_back(s->compile_ms);
    }
    if (!s->certified_safe) out.fail("infer: compiled graph is not proven overflow-free");

    const tensor::Tensor batch = batch_tensor(s->batch, kBatch);
    std::vector<tensor::Tensor> singles;
    for (std::int64_t i = 0; i < kBatch; ++i) singles.push_back(sample_tensor(s->batch, i));

    // Warm-up batch (grows the workspace); its logits are the reference.
    kernels::Workspace ws;
    tensor::Tensor ref;
    s->engine->forward_into(batch, ws, ref);
    const std::uint64_t ref_hash =
        fnv1a(ref.data(), static_cast<std::size_t>(ref.numel()) * sizeof(float));

    std::int64_t next_single = 0;
    const double untraced_s = opt.trace ? opt.seconds / 2 : opt.seconds;
    const Phase ph =
        run_phase(*s, untraced_s, ref_hash, batch, singles, ws, out, next_single);
    const double batch_med = median(ph.batch_s);
    const double batch_tail = quantile(ph.batch_s, kGateQuantile);
    const Summary single = summarize(ph.single_s);

    out.end_to_end["rate_per_s"] = Value{kBatch / batch_tail, "1/s", ph.batch_s.size()};
    out.end_to_end["latency_ms"] =
        Value{quantile(ph.single_s, kGateQuantile) * 1e3, "ms", single.n};
    out.detail["infer.images_per_s"] = Value{kBatch / batch_med, "1/s", ph.batch_s.size()};
    out.detail["infer.images_per_s.p90"] = Value{kBatch / batch_tail, "1/s", ph.batch_s.size()};
    out.detail["infer.single_ms.p50"] = Value{single.p50 * 1e3, "ms", single.n};
    out.detail["infer.single_ms.p90"] = Value{single.p90 * 1e3, "ms", single.n};
    if (!opt.trace) return out;

    // --- traced run: per-layer breakdown, per batch -------------------------
    auto& L = out.layers;
    L["approx.engine.compile_ms"] = Value{median(compile_ms), "ms", compile_ms.size()};
    for (const auto& [name, delta] : ph.batch_counts)
        L[name] = Value{static_cast<double>(delta), "count", 1};

    constexpr int kTracedBatches = 20;
    std::vector<double> traced_s;
    tensor::Tensor logits;
    obs::trace_start();
    for (int b = 0; b < kTracedBatches; ++b) {
        const auto t0 = Clock::now();
        {
            obs::ScopedSpan span("approx.engine.batch");
            s->engine->forward_into(batch, ws, logits);
        }
        traced_s.push_back(seconds_between(t0, Clock::now()));
        ++out.attempted;
        if (fnv1a(logits.data(), static_cast<std::size_t>(logits.numel()) * sizeof(float)) !=
            ref_hash)
            out.fail("infer: traced batch logits hash changed");
    }
    obs::trace_stop();
    const auto folded = fold_trace();
    add_self_times(folded, kTracedBatches, L);
    L["approx.engine.batch_ms"] = Value{median(traced_s) * 1e3, "ms", traced_s.size()};
    // The engine's GEMM, requant epilogue and head run under no kernel span
    // of their own: they are the batch span's self time.
    L["approx.engine.self_ms"] =
        Value{folded.at("approx.engine.batch").self_ms / kTracedBatches, "ms", kTracedBatches};
    L["obs.trace_overhead"] = Value{median(traced_s) / batch_med, "ratio", traced_s.size()};
    return out;
}

} // namespace perfbench
