/// \file bench_runtime.cpp
/// \brief Reproduces the paper's runtime-overhead observation (Sec. V-B):
///        retraining with the difference-based gradient costs extra time
///        over STE (the paper reports ~1.4x for VGG19 and ~2.6x for
///        ResNet18 on a RTX 3090, dominated by the extra gradient work in
///        backward). Here we time (a) gradient-LUT construction and (b) one
///        full retraining epoch per estimator on the CPU implementation,
///        where both estimators share the same LUT-driven backward kernel —
///        so the measured overhead isolates the table-construction cost and
///        any cache effects of the non-trivial gradient tables.
#include "bench_common.hpp"

#include <cstdio>
#include <filesystem>

using namespace amret;

namespace {

/// Times one kernel at the given thread count; returns ms per iteration.
template <typename Fn>
double time_kernel_ms(unsigned threads, int iters, Fn&& fn) {
    runtime::set_num_threads(threads);
    fn(); // warm up (resolves the pool, faults in buffers)
    obs::TimedSpan sw("bench.kernel");
    for (int i = 0; i < iters; ++i) fn();
    const double ms = sw.millis() / iters;
    runtime::set_num_threads(1);
    return ms;
}

/// Threads-vs-throughput sweep over the two hot kernels, one JSON row per
/// (kernel, threads) so the results are machine-readable:
///   {"bench": "lut_gemm", "threads": 4, "ms_per_iter": 1.23, "speedup": 2.5}
void threads_sweep(int iters) {
    const unsigned bits = 8;
    const std::int64_t o = 32, p = 1024, k = 72;
    const auto lut = appmult::AppMultLut::exact(bits);
    util::Rng rng(1);
    std::vector<std::uint16_t> wq(static_cast<std::size_t>(o * k));
    std::vector<std::uint16_t> xq(static_cast<std::size_t>(p * k));
    for (auto& v : wq) v = static_cast<std::uint16_t>(rng.uniform_u64(lut.domain()));
    for (auto& v : xq) v = static_cast<std::uint16_t>(rng.uniform_u64(lut.domain()));
    // Panels are packed once, outside the timed kernel (weights are static
    // at deployment).
    const kernels::Tuning& tiles = kernels::Tuning::current();
    kernels::Workspace pack_ws;
    kernels::BlockedGemmArgs gemm;
    gemm.bits = bits;
    gemm.lut = lut.table().data();
    gemm.w = kernels::pack_weight_panels(
        wq.data(), bits, kernels::make_panel_plan(o, k, tiles.to, tiles.tk), pack_ws);
    gemm.x = kernels::pack_activation_panels(
        xq.data(), kernels::make_panel_plan(p, k, tiles.tp, tiles.tk), pack_ws);
    gemm.o = o;
    gemm.p = p;
    gemm.k = k;
    std::vector<float> y(static_cast<std::size_t>(p * o));
    kernels::Workspace ws;

    approx::ApproxConv2d conv(8, 32, 3, 1, 1, rng);
    conv.set_multiplier(approx::MultiplierConfig::exact_ste(8));
    conv.set_mode(approx::ComputeMode::kQuantized);
    const tensor::Tensor x = tensor::Tensor::randn(tensor::Shape{8, 8, 32, 32}, rng);

    struct Kernel {
        const char* name;
        std::function<void()> fn;
    };
    const Kernel kernels[] = {
        {"lut_gemm",
         [&] {
             ws.reset();
             kernels::lut_forward_blocked(gemm, nullptr, y.data(), ws);
         }},
        {"approx_conv",
         [&] {
             nn::Context ctx;
             auto out = conv.forward(x, ctx);
             (void)out;
         }},
    };
    for (const auto& kernel : kernels) {
        double base_ms = 0.0;
        for (const unsigned threads : {1u, 2u, 4u, 8u}) {
            const double ms = time_kernel_ms(threads, iters, kernel.fn);
            if (threads == 1) base_ms = ms;
            std::printf("{\"bench\": \"%s\", \"threads\": %u, "
                        "\"ms_per_iter\": %.4f, \"speedup\": %.3f}\n",
                        kernel.name, threads, ms, base_ms / ms);
        }
    }
}

/// Microbatch-count sweep: one LeNet training epoch per K at a fixed thread
/// count, so the CSV isolates how much trainer-level data parallelism buys
/// on top of (serialized-when-nested) kernel-level parallelism.
int run_microbatch_sweep(const util::ArgParser& args) {
    const auto threads = static_cast<unsigned>(args.get_int("threads", 8));
    const int epochs = static_cast<int>(args.get_int("epochs", 1));
    runtime::set_num_threads(threads);

    data::SyntheticConfig dc;
    dc.num_classes = 10;
    dc.height = dc.width = 16;
    dc.train_samples = 512;
    dc.test_samples = 64;
    dc.seed = 5;
    const auto pair = data::make_synthetic(dc);

    std::filesystem::create_directories("results");
    std::FILE* csv = std::fopen("results/trainer_scaling.csv", "w");
    if (!csv) {
        std::fprintf(stderr, "cannot open results/trainer_scaling.csv\n");
        return 1;
    }
    std::fprintf(csv, "microbatches,threads,epoch_s,speedup\n");

    double base_s = 0.0;
    for (const int k : {1, 2, 4, 8}) {
        models::ModelConfig mc;
        mc.in_size = 16;
        mc.width_mult = 0.5f;
        auto model = models::make_lenet(mc);

        train::TrainConfig tc;
        tc.epochs = epochs;
        tc.batch_size = 64;
        tc.microbatches = k;
        train::Trainer trainer(*model, pair.train, pair.test, tc);
        obs::TimedSpan sw("bench.microbatch_epoch");
        trainer.train_only(epochs);
        const double epoch_s = sw.seconds() / epochs;
        if (k == 1) base_s = epoch_s;
        std::fprintf(csv, "%d,%u,%.4f,%.3f\n", k, threads, epoch_s,
                     base_s / epoch_s);
        std::printf("{\"bench\": \"trainer\", \"microbatches\": %d, "
                    "\"threads\": %u, \"epoch_s\": %.4f, \"speedup\": %.3f}\n",
                    k, threads, epoch_s, base_s / epoch_s);
    }
    std::fclose(csv);
    std::printf("microbatch sweep written to results/trainer_scaling.csv\n");
    runtime::set_num_threads(1);
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    const util::ArgParser args(argc, argv);
    bench::ObsSession obs_session(args);
    if (args.get_bool("microbatch-sweep", false)) return run_microbatch_sweep(args);

    std::printf("threads-vs-throughput sweep (JSON rows)\n");
    threads_sweep(static_cast<int>(args.get_int("sweep-iters", 20)));
    if (args.get_bool("sweep-only", false)) return 0;

    bench::SweepConfig config;
    config.model = args.get("model", "vgg19");
    config.retrain_epochs = 2;
    config.apply_args(args);

    const auto pair = config.make_data();
    train::RetrainPipeline pipeline(config.pipeline_config(), pair.train, pair.test);
    auto& reg = appmult::Registry::instance();

    util::TablePrinter table({"Multiplier", "Grad build STE/ms", "Grad build ours/ms",
                              "Epochs STE/s", "Epochs ours/s", "Overhead"});
    unsigned prepared_bits = 0;
    for (const char* name : {"mul8u_rm8", "mul7u_rm6"}) {
        const unsigned bits = reg.info(name).bits;
        if (bits != prepared_bits) {
            pipeline.prepare(bits);
            prepared_bits = bits;
        }
        const auto& lut = reg.lut(name);
        const unsigned hws = bench::bench_hws(name);

        obs::TimedSpan sw_ste_build("bench.grad_build.ste");
        const auto ste_grad = core::build_ste_grad(bits);
        sw_ste_build.stop();
        const double build_ste_ms = sw_ste_build.millis();
        obs::TimedSpan sw_ours_build("bench.grad_build.ours");
        const auto our_grad = core::build_difference_grad(lut, hws);
        sw_ours_build.stop();
        const double build_ours_ms = sw_ours_build.millis();

        obs::TimedSpan sw_ste("bench.retrain.ste");
        pipeline.retrain(lut, ste_grad);
        sw_ste.stop();
        const double train_ste_s = sw_ste.seconds();
        obs::TimedSpan sw_ours("bench.retrain.ours");
        pipeline.retrain(lut, our_grad);
        sw_ours.stop();
        const double train_ours_s = sw_ours.seconds();

        table.add_row({name, util::TablePrinter::num(build_ste_ms, 2),
                       util::TablePrinter::num(build_ours_ms, 2),
                       util::TablePrinter::num(train_ste_s, 2),
                       util::TablePrinter::num(train_ours_s, 2),
                       util::TablePrinter::num(train_ours_s / train_ste_s, 2) + "x"});
    }
    std::printf("Retraining runtime: STE vs difference-based gradient (%s, %d "
                "epochs per run)\n",
                config.model.c_str(), config.retrain_epochs);
    table.print();
    std::printf("\nPaper context: 1.4x (VGG19) / 2.6x (ResNet18) on GPU, where the\n"
                "difference gradient needs extra kernels; our CPU backward uses the\n"
                "same LUT kernel for both, so the steady-state overhead is near 1.0x\n"
                "and the one-time table construction dominates the difference.\n");
    return 0;
}
