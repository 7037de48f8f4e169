// retrain-vgg11: the paper's workflow at fixed work. Every repetition
// restores one snapshot and runs Trainer::train_only(1) over the same
// one-batch set, so it times one training step; difference-gradient and
// STE repetitions alternate.
#include "common.hpp"

#include <array>
#include <bit>

namespace perfbench {

using namespace amret;

namespace {

constexpr const char* kMult = "mul8u_2NDH";
/// The gradient half window: bench::bench_hws("mul8u_2NDH") when this
/// workload was defined, fixed here so the workload does not move with it.
constexpr unsigned kHws = 32;
/// One batch: a repetition is one step, short enough that its time falls
/// in the host's fast or slow mode instead of averaging the two (see
/// kGateQuantile).
constexpr std::int64_t kSamples = 32;
constexpr std::int64_t kBatch = 32;
constexpr std::int64_t kSteps = kSamples / kBatch;

struct Setup {
    data::Dataset data;
    std::unique_ptr<nn::Sequential> model;
    std::shared_ptr<const core::GradLut> diff, ste;
    train::ModelSnapshot snap;
    double diff_build_ms = 0.0, ste_build_ms = 0.0;
};

std::unique_ptr<Setup> set_up(std::uint64_t seed) {
    auto s = std::make_unique<Setup>();
    s->data = make_inputs(seed, 0, kSamples, 16);

    models::ModelConfig mc;
    mc.num_classes = 10;
    mc.in_size = 16;
    mc.width_mult = 0.25f;
    mc.seed = seed;
    s->model = models::make_vgg("vgg11", mc);

    const auto lut = build_lut(kMult);
    auto t0 = Clock::now();
    s->diff = std::make_shared<const core::GradLut>(core::build_difference_grad(*lut, kHws));
    auto t1 = Clock::now();
    s->ste = std::make_shared<const core::GradLut>(core::build_ste_grad(lut->bits()));
    auto t2 = Clock::now();
    s->diff_build_ms = seconds_between(t0, t1) * 1e3;
    s->ste_build_ms = seconds_between(t1, t2) * 1e3;

    approx::MultiplierConfig config;
    config.lut = lut;
    config.grad = s->diff;
    config.name = kMult;
    config.hws = kHws;
    config.grad_mode = core::GradientMode::kDifference;
    approx::configure_approx_layers(*s->model, config, approx::ComputeMode::kQuantized);
    s->snap = train::snapshot(*s->model);
    return s;
}

struct Rep {
    double seconds = 0.0;
    double loss = 0.0;
    std::uint64_t params = 0; ///< digest of the trained parameters
    Counters counts;
};

std::uint64_t params_digest(nn::Module& model) {
    const train::ModelSnapshot snap = train::snapshot(model);
    std::uint64_t h = fnv1a(snap.extra.data(), snap.extra.size() * sizeof(float));
    for (const tensor::Tensor& t : snap.params)
        h = fnv1a(t.data(), static_cast<std::size_t>(t.numel()) * sizeof(float), h);
    return h;
}

Rep run_rep(Setup& s, bool difference, std::uint64_t seed) {
    train::restore(*s.model, s.snap);
    approx::set_gradient_luts(*s.model, difference ? s.diff : s.ste);
    train::TrainConfig tc;
    tc.epochs = 1;
    tc.batch_size = kBatch;
    tc.microbatches = 1;
    tc.seed = seed;
    train::Trainer trainer(*s.model, s.data, s.data, tc); // train_only never evaluates
    Rep rep;
    const Counters before = counters();
    const auto t0 = Clock::now();
    const auto stats = trainer.train_only(1);
    rep.seconds = seconds_between(t0, Clock::now());
    rep.counts = counters() - before;
    rep.loss = stats.at(0).loss;
    rep.params = params_digest(*s.model);
    return rep;
}

struct Phase {
    std::vector<double> diff_s, ste_s;
    Counters diff_counts;
};

/// True when \p rep reproduces \p ref bit for bit: its loss and the
/// parameters the step left behind.
bool same_result(const Rep& rep, const Rep& ref) {
    return std::bit_cast<std::uint64_t>(rep.loss) == std::bit_cast<std::uint64_t>(ref.loss) &&
           rep.params == ref.params;
}

/// Fixed-work repetitions alternating the two gradient modes ([0] difference,
/// [1] STE) until \p seconds have passed, at least three of each. Each
/// mode's reps must reproduce its reference rep bit for bit and its first
/// rep's counter deltas.
Phase run_phase(Setup& s, const Options& opt, double seconds, const std::array<Rep, 2>& ref,
                Outcome& out) {
    Phase ph;
    Counters ref_counts[2];
    bool have_counts[2] = {false, false};
    const auto end = Clock::now() + std::chrono::duration<double>(seconds);
    while (Clock::now() < end || ph.ste_s.size() < 3) {
        for (int mode = 0; mode < 2; ++mode) {
            const bool difference = mode == 0;
            const Rep rep = run_rep(s, difference, opt.seed);
            ++out.attempted;
            (difference ? ph.diff_s : ph.ste_s).push_back(rep.seconds);
            const char* name = difference ? "difference" : "ste";
            if (!same_result(rep, ref[mode])) {
                out.fail(std::string("retrain ") + name + " loss " +
                         std::to_string(rep.loss) + " or parameters differ from reference " +
                         std::to_string(ref[mode].loss));
            } else if (!have_counts[mode]) {
                ref_counts[mode] = rep.counts;
                have_counts[mode] = true;
            } else if (rep.counts != ref_counts[mode]) {
                out.fail(std::string("retrain ") + name + " counter deltas differ");
            }
        }
    }
    ph.diff_counts = ref_counts[0];
    return ph;
}

/// One training step driven child by child, with the benchmark's own span
/// around every Module::forward / backward of the top-level Sequential.
void layer_step(Setup& s, Outcome& out) {
    train::restore(*s.model, s.snap);
    approx::set_gradient_luts(*s.model, s.diff);
    s.model->set_training(true);
    const tensor::Tensor x = batch_tensor(s.data, kBatch);
    const std::vector<int> labels(s.data.labels.begin(), s.data.labels.begin() + kBatch);

    std::vector<std::string> fwd, bwd;
    int approx_layers = 0;
    for (std::size_t i = 0; i < s.model->size(); ++i) {
        nn::Module* m = s.model->child(i);
        if (dynamic_cast<approx::ApproxConv2d*>(m) != nullptr ||
            dynamic_cast<approx::ApproxLinear*>(m) != nullptr) {
            const std::string base = "approx.L" + std::to_string(approx_layers++);
            fwd.push_back(base + ".fwd");
            bwd.push_back(base + ".bwd");
        } else {
            fwd.emplace_back("nn.float_layers.fwd");
            bwd.emplace_back("nn.float_layers.bwd");
        }
    }

    nn::Context ctx;
    std::map<std::string, Folded> folded;
    for (int pass = 0; pass < 2; ++pass) { // pass 0 grows the workspaces
        if (pass == 1) obs::trace_start();
        s.model->zero_grad();
        tensor::Tensor cur = x;
        for (std::size_t i = 0; i < s.model->size(); ++i) {
            obs::ScopedSpan span(fwd[i].c_str());
            cur = s.model->child(i)->forward(cur, ctx);
        }
        const auto ce = nn::softmax_cross_entropy(cur, labels);
        tensor::Tensor g = nn::softmax_cross_entropy_grad(ce.probs, labels);
        for (std::size_t i = s.model->size(); i-- > 0;) {
            obs::ScopedSpan span(bwd[i].c_str());
            g = s.model->child(i)->backward(g, ctx);
        }
        if (pass == 1) {
            obs::trace_stop();
            folded = fold_trace();
        }
    }
    for (const std::string& name : {std::string("nn.float_layers.fwd"),
                                    std::string("nn.float_layers.bwd")})
        out.layers[name + "_ms"] = Value{folded[name].total_ms, "ms", 1};
    for (int k = 0; k < approx_layers; ++k) {
        for (const char* dir : {".fwd", ".bwd"}) {
            const std::string name = "approx.L" + std::to_string(k) + dir;
            out.layers[name + "_ms"] = Value{folded[name].total_ms, "ms", 1};
        }
    }
}

} // namespace

Outcome run_retrain(const Options& opt) {
    runtime::set_num_threads(kOfflineThreads);
    Outcome out;
    std::unique_ptr<Setup> s;
    std::vector<double> diff_build, ste_build;
    for (int pass = 0; pass < kSetupPasses; ++pass) {
        s.reset();
        const auto t0 = Clock::now();
        s = set_up(opt.seed);
        out.setup_s.push_back(seconds_between(t0, Clock::now()));
        diff_build.push_back(s->diff_build_ms);
        ste_build.push_back(s->ste_build_ms);
    }

    // Warm-up: one untimed rep per mode; its results are the references.
    // The loss is taken before the step's update, so only the parameters
    // tell the two gradient modes apart.
    const std::array<Rep, 2> ref = {run_rep(*s, true, opt.seed), run_rep(*s, false, opt.seed)};
    if (ref[0].params == ref[1].params)
        out.fail("retrain: difference and STE steps left the same parameters; "
                 "the gradient LUT swap had no effect");

    const double untraced_s = opt.trace ? opt.seconds / 2 : opt.seconds;
    const Phase ph = run_phase(*s, opt, untraced_s, ref, out);
    const double diff_med = median(ph.diff_s), ste_med = median(ph.ste_s);
    const double diff_tail = quantile(ph.diff_s, kGateQuantile);
    const double ste_tail = quantile(ph.ste_s, kGateQuantile);

    out.end_to_end["rate_per_s"] = Value{kSamples / diff_tail, "1/s", ph.diff_s.size()};
    out.end_to_end["latency_ms"] = Value{ste_tail / kSteps * 1e3, "ms", ph.ste_s.size()};
    out.detail["retrain.samples_per_s"] = Value{kSamples / diff_med, "1/s", ph.diff_s.size()};
    out.detail["retrain.samples_per_s.p90"] = Value{kSamples / diff_tail, "1/s", ph.diff_s.size()};
    out.detail["retrain.ste_samples_per_s"] = Value{kSamples / ste_med, "1/s", ph.ste_s.size()};
    out.detail["retrain.ste_step_ms"] = Value{ste_med / kSteps * 1e3, "ms", ph.ste_s.size()};
    out.detail["retrain.ste_step_ms.p90"] = Value{ste_tail / kSteps * 1e3, "ms", ph.ste_s.size()};
    out.detail["retrain.loss.difference"] = Value{ref[0].loss, "nat", 1};
    out.detail["retrain.loss.ste"] = Value{ref[1].loss, "nat", 1};
    if (!opt.trace) return out;

    // --- traced run: per-layer breakdown ------------------------------------
    auto& L = out.layers;
    L["core.diff_over_ste"] = Value{diff_med / ste_med, "ratio", ph.diff_s.size()};
    L["core.grad_lut.build_ms.difference"] = Value{median(diff_build), "ms", diff_build.size()};
    L["core.grad_lut.build_ms.ste"] = Value{median(ste_build), "ms", ste_build.size()};
    for (const auto& [name, delta] : ph.diff_counts)
        L[name] = Value{static_cast<double>(delta) / kSteps, "count", 1};

    constexpr int kTracedReps = 16;
    std::vector<double> traced_s;
    obs::trace_start();
    for (int r = 0; r < kTracedReps; ++r) {
        const Rep rep = run_rep(*s, true, opt.seed);
        ++out.attempted;
        traced_s.push_back(rep.seconds);
        if (!same_result(rep, ref[0]))
            out.fail("retrain: traced difference rep changed the loss or parameters");
    }
    obs::trace_stop();
    const auto folded = fold_trace();
    const auto steps = static_cast<double>(kTracedReps * kSteps);
    const auto per_step = [&](const std::string& span, bool self) {
        const auto it = folded.find(span);
        if (it == folded.end()) return 0.0;
        return (self ? it->second.self_ms : it->second.total_ms) / steps;
    };
    L["train.step_ms"] = Value{per_step("train.step", false), "ms", kTracedReps * kSteps};
    L["train.self_ms"] = Value{per_step("train.step", true), "ms", kTracedReps * kSteps};
    L["nn.optim.step_ms"] = Value{per_step("nn.optim.step", false), "ms", kTracedReps * kSteps};
    L["nn.loss.softmax_ce_ms"] =
        Value{per_step("nn.loss.softmax_ce", false), "ms", kTracedReps * kSteps};
    add_self_times(folded, kTracedReps * kSteps, L);
    L["obs.trace_overhead"] = Value{median(traced_s) / diff_med, "ratio", traced_s.size()};
    // Additivity: the self times of the non-runtime spans under train.step
    // must add up to train.step itself (printed, not gated).
    double self_sum = 0.0;
    for (const auto& [name, f] : folded)
        if (name.rfind("runtime.", 0) != 0 && name != "train.epoch") self_sum += f.self_ms;
    out.detail["train.fold_residual_ms"] =
        Value{self_sum / steps - per_step("train.step", false), "ms", kTracedReps * kSteps};

    layer_step(*s, out);
    return out;
}

} // namespace perfbench
