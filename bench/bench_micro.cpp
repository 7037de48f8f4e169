/// \file bench_micro.cpp
/// \brief google-benchmark micro-benchmarks for the hot kernels: LUT-based
///        multiplication GEMM (forward), gradient-LUT GEMM (backward),
///        gradient-table construction, exhaustive netlist simulation, and
///        the float conv used for pretraining. Quantifies the Sec. V-B
///        runtime-overhead observation (ours ~1.4-2.6x STE) at kernel level.
///
/// Besides the google-benchmark suite, three standalone modes:
///   --quick         tiny min-time smoke run (CI crash detection)
///   --tile-sweep    P/O/K panel-tile sweep of the blocked LUT-GEMM
///                   forward, once per supported SIMD dispatch level
///                   (kernels::simd), every config memcmp-checked against
///                   the first: the CSV lands in results/, the portable
///                   (scalar) winner plus per-ISA refinements
///                   are persisted to results/kernel_tuning.json in the
///                   shape kernels::Tuning::resolve() scans, and each ISA
///                   also gets a standalone results/kernel_tuning_<isa>.json
///                   (usable directly via AMRET_TUNING_FILE; uploaded by the
///                   bench-smoke workflow). Override with AMRET_TILES=PxOxK.
///   --kernels-json  writes results/BENCH_kernels.json: the scalar-dispatch
///                   blocked LUT-GEMM forward time, a "simd" section timing
///                   the vector paths (8-bit gather leg, 4-bit nibble/pshufb
///                   leg) per ISA against it with bitwise-equality flags,
///                   plus a quantized-conv end-to-end time. Run by
///                   scripts/check.sh and the bench-smoke workflow;
///                   scripts/check_bench.py gates the simd_vs_blocked_speedup
///                   field against the committed baseline.
#include "amret.hpp"

#include "kernels/simd/simd.hpp"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

namespace {

using namespace amret;

void fill_codes(std::vector<std::uint16_t>& v, const appmult::AppMultLut& lut,
                util::Rng& rng) {
    for (auto& c : v) c = static_cast<std::uint16_t>(rng.uniform_u64(lut.domain()));
}

/// Random (o, k) weight and (p, k) activation codes under \p lut, packed
/// into panels under (tp | to) x tk: the blocked kernels' operands.
/// Weights are static at deployment, so packing stays outside the timed
/// loops.
struct PackedGemm {
    std::vector<std::uint16_t> wq, xq;
    kernels::Workspace ws;
    kernels::BlockedGemmArgs args;

    PackedGemm(const appmult::AppMultLut& lut, std::int64_t o, std::int64_t p,
               std::int64_t k, std::uint64_t seed) {
        util::Rng rng(seed);
        wq.resize(static_cast<std::size_t>(o * k));
        xq.resize(static_cast<std::size_t>(p * k));
        fill_codes(wq, lut, rng);
        fill_codes(xq, lut, rng);
        args.bits = lut.bits();
        args.lut = lut.table().data();
        args.o = o;
        args.p = p;
        args.k = k;
        const kernels::Tuning& t = kernels::Tuning::current();
        pack(t.tp, t.to, t.tk);
    }

    /// Re-packs both operands under new panel tiles.
    void pack(std::int64_t tp, std::int64_t to, std::int64_t tk) {
        ws.reset();
        args.w = kernels::pack_weight_panels(
            wq.data(), args.bits, kernels::make_panel_plan(args.o, args.k, to, tk),
            ws);
        args.x = kernels::pack_activation_panels(
            xq.data(), kernels::make_panel_plan(args.p, args.k, tp, tk), ws);
        if (args.bits <= 4) kernels::attach_packed4(args.x, args.bits, ws);
    }
};

void BM_LutForwardGemm(benchmark::State& state) {
    const auto lut = appmult::AppMultLut::exact(static_cast<unsigned>(state.range(0)));
    const std::int64_t o = 16, p = 256, k = 72;
    const PackedGemm g(lut, o, p, k, 1);
    std::vector<float> y(static_cast<std::size_t>(p * o));
    kernels::Workspace ws;
    for (auto _ : state) {
        ws.reset();
        kernels::lut_forward_blocked(g.args, nullptr, y.data(), ws);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(state.iterations() * o * p * k);
}
BENCHMARK(BM_LutForwardGemm)->Arg(6)->Arg(7)->Arg(8);

/// One fused LUT backward per iteration over (o, p, k); every
/// \p zero_every-th upstream gradient on average is zero (0: dense).
void run_lut_backward(benchmark::State& state, unsigned bits, std::int64_t o,
                      std::int64_t p, std::int64_t k, std::uint64_t zero_every) {
    const auto lut = appmult::AppMultLut::exact(bits);
    const auto grad = core::build_ste_grad(bits);
    const PackedGemm g(lut, o, p, k, 2);
    util::Rng rng(3);
    std::vector<float> gyp(static_cast<std::size_t>(p * o));
    for (auto& v : gyp)
        v = zero_every != 0 && rng.uniform_u64(zero_every) == 0
                ? 0.0f
                : static_cast<float>(rng.normal());
    std::vector<float> gw(static_cast<std::size_t>(o * k));
    std::vector<float> gx(static_cast<std::size_t>(p * k));
    for (auto _ : state) {
        std::fill(gw.begin(), gw.end(), 0.0f);
        std::fill(gx.begin(), gx.end(), 0.0f);
        kernels::lut_backward_blocked(g.args, gyp.data(), grad.pair_table().data(),
                                      gw.data(), gx.data());
        benchmark::DoNotOptimize(gw.data());
        benchmark::DoNotOptimize(gx.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * o * p * k);
}

void BM_LutBackwardGemm(benchmark::State& state) {
    run_lut_backward(state, static_cast<unsigned>(state.range(0)), 16, 256, 72, 0);
}
BENCHMARK(BM_LutBackwardGemm)->Arg(6)->Arg(7)->Arg(8);

/// The shape the retraining loop spends its backward on: a deep VGG-style
/// conv (o = 128 filters, patch k = 128 * 3 * 3, p = 128 positions) with
/// about half of the upstream gradient zero, as after a ReLU.
void BM_LutBackwardGemmRetrain(benchmark::State& state) {
    run_lut_backward(state, 8, 128, 128, 1152, 2);
}
BENCHMARK(BM_LutBackwardGemmRetrain)->Unit(benchmark::kMicrosecond);

void BM_BuildDifferenceGrad(benchmark::State& state) {
    const unsigned bits = static_cast<unsigned>(state.range(0));
    const auto& lut = appmult::Registry::instance().lut(
        bits == 8 ? "mul8u_rm8" : bits == 7 ? "mul7u_rm6" : "mul6u_rm4");
    for (auto _ : state) {
        auto grad = core::build_difference_grad(lut, 8);
        benchmark::DoNotOptimize(grad.dw_table().data());
    }
}
BENCHMARK(BM_BuildDifferenceGrad)->Arg(6)->Arg(7)->Arg(8);

void BM_BuildSteGrad(benchmark::State& state) {
    const unsigned bits = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        auto grad = core::build_ste_grad(bits);
        benchmark::DoNotOptimize(grad.dw_table().data());
    }
}
BENCHMARK(BM_BuildSteGrad)->Arg(7)->Arg(8);

void BM_ExhaustiveNetlistSim(benchmark::State& state) {
    const unsigned bits = static_cast<unsigned>(state.range(0));
    const auto nl = multgen::build_netlist(multgen::exact_spec(bits));
    for (auto _ : state) {
        auto result = netlist::simulate_exhaustive(nl);
        benchmark::DoNotOptimize(result.outputs.data());
    }
}
BENCHMARK(BM_ExhaustiveNetlistSim)->Arg(6)->Arg(7)->Arg(8);

void BM_FloatConvForward(benchmark::State& state) {
    util::Rng rng(3);
    approx::ApproxConv2d conv(8, 16, 3, 1, 1, rng);
    conv.set_mode(approx::ComputeMode::kFloat);
    const tensor::Tensor x = tensor::Tensor::randn(tensor::Shape{4, 8, 16, 16}, rng);
    nn::Context ctx;
    for (auto _ : state) {
        auto y = conv.forward(x, ctx);
        benchmark::DoNotOptimize(y.data());
    }
}
BENCHMARK(BM_FloatConvForward);

void BM_QuantConvForward(benchmark::State& state) {
    util::Rng rng(4);
    approx::ApproxConv2d conv(8, 16, 3, 1, 1, rng);
    conv.set_multiplier(approx::MultiplierConfig::exact_ste(8));
    conv.set_mode(approx::ComputeMode::kQuantized);
    const tensor::Tensor x = tensor::Tensor::randn(tensor::Shape{4, 8, 16, 16}, rng);
    nn::Context ctx;
    for (auto _ : state) {
        auto y = conv.forward(x, ctx);
        benchmark::DoNotOptimize(y.data());
    }
}
BENCHMARK(BM_QuantConvForward);

// ------------------------------------------------- threads-vs-throughput --
// Sweeps the runtime thread count over the two hottest kernels. Sizes are
// larger than the single-thread micro-benchmarks above so the per-job pool
// overhead is amortized and scaling is visible on multi-core machines.

void BM_LutForwardGemmThreads(benchmark::State& state) {
    runtime::set_num_threads(static_cast<unsigned>(state.range(0)));
    const std::int64_t o = 32, p = 1024, k = 72;
    const auto lut = appmult::AppMultLut::exact(8);
    const PackedGemm g(lut, o, p, k, 1);
    std::vector<float> y(static_cast<std::size_t>(p * o));
    kernels::Workspace ws;
    for (auto _ : state) {
        ws.reset();
        kernels::lut_forward_blocked(g.args, nullptr, y.data(), ws);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(state.iterations() * o * p * k);
    runtime::set_num_threads(1);
}
BENCHMARK(BM_LutForwardGemmThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_QuantConvForwardThreads(benchmark::State& state) {
    runtime::set_num_threads(static_cast<unsigned>(state.range(0)));
    util::Rng rng(4);
    approx::ApproxConv2d conv(8, 32, 3, 1, 1, rng);
    conv.set_multiplier(approx::MultiplierConfig::exact_ste(8));
    conv.set_mode(approx::ComputeMode::kQuantized);
    const tensor::Tensor x = tensor::Tensor::randn(tensor::Shape{8, 8, 32, 32}, rng);
    nn::Context ctx;
    for (auto _ : state) {
        auto y = conv.forward(x, ctx);
        benchmark::DoNotOptimize(y.data());
    }
    runtime::set_num_threads(1);
}
BENCHMARK(BM_QuantConvForwardThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_SmoothRow(benchmark::State& state) {
    std::vector<double> row(256);
    for (std::size_t i = 0; i < row.size(); ++i)
        row[i] = static_cast<double>((i * 37) % 97);
    for (auto _ : state) {
        auto s = core::smooth_row(row, static_cast<unsigned>(state.range(0)));
        benchmark::DoNotOptimize(s.data());
    }
}
BENCHMARK(BM_SmoothRow)->Arg(4)->Arg(32);

// ------------------------------------------------------------ tile sweep --

/// Shape of the sweep / kernels-json GEMM: one conv-like layer.
constexpr std::int64_t kSweepO = 64, kSweepP = 1024, kSweepK = 576;

/// Nonzero quantization constants for the sweep / kernels-json GEMM, so the
/// Eq. (8) correction and the float epilogue are exercised.
void set_sweep_constants(kernels::BlockedGemmArgs& a) {
    a.scale_w = 0.01f;
    a.scale_x = 0.02f;
    a.zero_w = 120;
    a.zero_x = 130;
}

template <typename Fn>
double time_ms(int iters, Fn&& fn) {
    fn(); // warm up
    obs::TimedSpan sw("bench.tile_sweep.timed");
    for (int i = 0; i < iters; ++i) fn();
    return sw.millis() / iters;
}

/// Best-of-N per-iteration time: the minimum is the least noisy estimator of
/// kernel cost under scheduler/frequency jitter, so the BENCH_kernels.json
/// speedups compare kernels rather than machine weather.
template <typename Fn>
double time_ms_best(int iters, Fn&& fn) {
    fn(); // warm up
    double best = 1e300;
    for (int i = 0; i < iters; ++i) {
        obs::TimedSpan sw("bench.kernels_json.timed");
        fn();
        best = std::min(best, sw.millis());
    }
    return best;
}

/// Dispatch levels to measure: scalar (the PR-8 blocked oracle) first, then
/// every vector level this build+machine supports. Levels the CPU lacks are
/// simply absent — the JSON consumers treat missing ISAs as "not available
/// here", never as a failure.
std::vector<kernels::simd::Isa> supported_isas() {
    std::vector<kernels::simd::Isa> v{kernels::simd::Isa::kScalar};
    for (const auto isa :
         {kernels::simd::Isa::kSsse3, kernels::simd::Isa::kAvx2,
          kernels::simd::Isa::kAvx512})
        if (kernels::simd::supported(isa)) v.push_back(isa);
    return v;
}

std::FILE* open_results_csv(const char* name, const char* header) {
    std::filesystem::create_directories("results");
    const std::string path = std::string("results/") + name;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f) std::fprintf(f, "%s\n", header);
    return f;
}

int run_tile_sweep() {
    const int iters = 10;

    // P/O/K panel-tile sweep on one conv-like shape, per supported SIMD
    // dispatch level (the winning tile differs between the scalar walk and
    // the gather kernels). Panels are packed outside the timed region —
    // weights are static at deployment — while the forward itself is what
    // the tuner ranks. Every config must reproduce the first one's output
    // bit for bit; the scalar winner plus per-ISA refinements are persisted
    // to results/kernel_tuning.json for kernels::Tuning::resolve().
    std::FILE* sweep = open_results_csv("kernel_tile_sweep.csv",
                                        "tp,to,tk,isa,blocked_ms,blocked_gops");
    if (!sweep) {
        std::fprintf(stderr, "cannot open results/kernel_tile_sweep.csv\n");
        return 1;
    }
    const appmult::AppMultLut lut = appmult::AppMultLut::exact(8);
    PackedGemm g(lut, kSweepO, kSweepP, kSweepK, 11);
    set_sweep_constants(g.args);
    std::vector<float> y(static_cast<std::size_t>(g.args.p * g.args.o));
    std::vector<float> y_ref;
    kernels::Workspace ws;
    const double ops = static_cast<double>(g.args.o * g.args.p * g.args.k);
    const std::vector<kernels::simd::Isa> isas = supported_isas();
    struct IsaBest {
        kernels::Tuning t;
        double ms = -1.0;
    };
    IsaBest best[4];
    for (const std::int64_t tp : {4, 8, 16}) {
        for (const std::int64_t to : {8, 16, 32, 64}) {
            for (const std::int64_t tk : {64, 128, 256, 576}) {
                g.pack(tp, to, tk);
                for (const auto isa : isas) {
                    kernels::simd::set_isa_for_test(isa);
                    const double bms = time_ms(iters, [&] {
                        ws.reset();
                        kernels::lut_forward_blocked(g.args, nullptr, y.data(), ws);
                    });
                    kernels::simd::clear_isa_override();
                    if (y_ref.empty()) y_ref = y;
                    if (std::memcmp(y_ref.data(), y.data(),
                                    y.size() * sizeof(float)) != 0) {
                        std::fprintf(
                            stderr,
                            "blocked tile (%lld,%lld,%lld) [%s] changed results\n",
                            static_cast<long long>(tp),
                            static_cast<long long>(to),
                            static_cast<long long>(tk),
                            kernels::simd::isa_name(isa));
                        return 1;
                    }
                    IsaBest& b = best[static_cast<int>(isa)];
                    if (b.ms < 0.0 || bms < b.ms) {
                        b.ms = bms;
                        b.t.tp = tp;
                        b.t.to = to;
                        b.t.tk = tk;
                    }
                    std::fprintf(sweep, "%lld,%lld,%lld,%s,%.4f,%.3f\n",
                                 static_cast<long long>(tp),
                                 static_cast<long long>(to),
                                 static_cast<long long>(tk),
                                 kernels::simd::isa_name(isa), bms,
                                 ops / bms / 1e6);
                }
            }
        }
    }
    std::fclose(sweep);
    std::printf("tile sweep written to results/kernel_tile_sweep.csv\n");

    // Persist the winners in the exact shape Tuning::resolve() scans for:
    // top-level tp/to/tk carry the portable scalar pick, the "isa" object
    // carries one refinement block per vector level; resolve() shadows the
    // top-level fields with the block matching kernels::simd::select().
    std::FILE* tuned = std::fopen("results/kernel_tuning.json", "w");
    if (!tuned) {
        std::fprintf(stderr, "cannot open results/kernel_tuning.json\n");
        return 1;
    }
    const IsaBest& sb = best[static_cast<int>(kernels::simd::Isa::kScalar)];
    std::fprintf(tuned,
                 "{\n"
                 "  \"source\": \"bench_micro --tile-sweep\",\n"
                 "  \"shape\": {\"o\": %lld, \"p\": %lld, \"k\": %lld},\n"
                 "  \"blocked_ms\": %.4f,\n"
                 "  \"tp\": %lld,\n"
                 "  \"to\": %lld,\n"
                 "  \"tk\": %lld,\n"
                 "  \"isa\": {\n",
                 static_cast<long long>(g.args.o), static_cast<long long>(g.args.p),
                 static_cast<long long>(g.args.k), sb.ms,
                 static_cast<long long>(sb.t.tp), static_cast<long long>(sb.t.to),
                 static_cast<long long>(sb.t.tk));
    for (std::size_t i = 1; i < isas.size(); ++i) {
        const IsaBest& b = best[static_cast<int>(isas[i])];
        std::fprintf(tuned,
                     "    \"%s\": {\"tp\": %lld, \"to\": %lld, \"tk\": %lld, "
                     "\"blocked_ms\": %.4f}%s\n",
                     kernels::simd::isa_name(isas[i]),
                     static_cast<long long>(b.t.tp),
                     static_cast<long long>(b.t.to),
                     static_cast<long long>(b.t.tk), b.ms,
                     i + 1 < isas.size() ? "," : "");
    }
    std::fprintf(tuned, "  }\n}\n");
    std::fclose(tuned);

    // One standalone file per level, directly loadable via AMRET_TUNING_FILE
    // and uploaded as artifacts by the bench-smoke workflow.
    for (const auto isa : isas) {
        const IsaBest& b = best[static_cast<int>(isa)];
        const std::string path = std::string("results/kernel_tuning_") +
                                 kernels::simd::isa_name(isa) + ".json";
        std::FILE* pf = std::fopen(path.c_str(), "w");
        if (!pf) {
            std::fprintf(stderr, "cannot open %s\n", path.c_str());
            return 1;
        }
        std::fprintf(pf,
                     "{\n"
                     "  \"source\": \"bench_micro --tile-sweep\",\n"
                     "  \"isa\": \"%s\",\n"
                     "  \"blocked_ms\": %.4f,\n"
                     "  \"tp\": %lld,\n"
                     "  \"to\": %lld,\n"
                     "  \"tk\": %lld\n"
                     "}\n",
                     kernels::simd::isa_name(isa), b.ms,
                     static_cast<long long>(b.t.tp),
                     static_cast<long long>(b.t.to),
                     static_cast<long long>(b.t.tk));
        std::fclose(pf);
        std::printf("best blocked tiles [%s] %lldx%lldx%lld (%.4f ms)\n",
                    kernels::simd::isa_name(isa),
                    static_cast<long long>(b.t.tp),
                    static_cast<long long>(b.t.to),
                    static_cast<long long>(b.t.tk), b.ms);
    }
    std::printf("wrote results/kernel_tuning.json (+ per-ISA "
                "results/kernel_tuning_<isa>.json)\n");
    return 0;
}

// --------------------------------------------------------- BENCH_kernels --

/// Emits results/BENCH_kernels.json: the scalar-dispatch blocked LUT-GEMM
/// forward time, every supported SIMD level's time and speedup against it
/// (8-bit gather and 4-bit nibble legs), and a quantized-conv end-to-end
/// time. Every SIMD leg carries a bitwise-equality flag; a false flag fails
/// the run (a perf shortfall only prints — machine-dependent numbers should
/// not gate CI).
int run_kernels_json() {
    const int iters = 20;

    const kernels::Tuning& tiles = kernels::Tuning::current();
    const appmult::AppMultLut lut8 = appmult::AppMultLut::exact(8);
    PackedGemm g(lut8, kSweepO, kSweepP, kSweepK, 11);
    set_sweep_constants(g.args);
    const std::size_t ny = static_cast<std::size_t>(kSweepP * kSweepO);
    kernels::Workspace ws;

    // Two operand regimes hit different vector kernels: 8-bit codes run the
    // gather path, 4-bit codes with nibble-packed activations run the
    // pshufb path. Each leg times every supported dispatch level against
    // the scalar-dispatch blocked kernel on the same packed operands; every
    // vector output must memcmp-equal the scalar one (int64 accumulator).
    const std::vector<kernels::simd::Isa> isas = supported_isas();
    bool simd_all_eq = true;
    double best_overall_speedup = 0.0;
    std::string best_overall = "none";
    double blocked_ms = 0.0; // scalar-dispatch time of the 8-bit leg
    std::vector<float> y_leg(ny), y_leg_ref(ny);
    auto time_leg = [&](const kernels::BlockedGemmArgs& la, float* out,
                        kernels::simd::Isa isa) {
        kernels::simd::set_isa_for_test(isa);
        const double ms = time_ms_best(iters, [&] {
            ws.reset();
            kernels::lut_forward_blocked(la, nullptr, out, ws);
        });
        kernels::simd::clear_isa_override();
        return ms;
    };
    // Emits the per-leg JSON object and returns the leg's scalar time.
    auto leg_json = [&](const char* leg, const kernels::BlockedGemmArgs& la,
                        double* scalar_ms_out) {
        const std::size_t bytes = ny * sizeof(float);
        const double scalar_ms = time_leg(la, y_leg_ref.data(),
                                          kernels::simd::Isa::kScalar);
        if (scalar_ms_out != nullptr) *scalar_ms_out = scalar_ms;
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "    \"%s\": {\n      \"scalar_ms\": %.4f,\n", leg,
                      scalar_ms);
        std::string j = buf;
        const char* best_isa = "scalar";
        double best_speedup = 0.0;
        for (std::size_t i = 1; i < isas.size(); ++i) {
            const char* name = kernels::simd::isa_name(isas[i]);
            const double ms = time_leg(la, y_leg.data(), isas[i]);
            const bool eq =
                std::memcmp(y_leg_ref.data(), y_leg.data(), bytes) == 0;
            simd_all_eq = simd_all_eq && eq;
            const double speedup = scalar_ms / ms;
            if (speedup > best_speedup) {
                best_speedup = speedup;
                best_isa = name;
            }
            std::snprintf(buf, sizeof(buf),
                          "      \"%s_ms\": %.4f,\n"
                          "      \"%s_speedup_vs_scalar\": %.3f,\n"
                          "      \"%s_bitwise_equal\": %s,\n",
                          name, ms, name, speedup, name, eq ? "true" : "false");
            j += buf;
            std::printf("simd %s [%s]: %.3f ms (%.2fx vs scalar blocked), "
                        "bitwise_equal=%d\n",
                        leg, name, ms, speedup, eq ? 1 : 0);
        }
        if (best_speedup > best_overall_speedup) {
            best_overall_speedup = best_speedup;
            best_overall = std::string(leg) + "/" + best_isa;
        }
        std::snprintf(buf, sizeof(buf),
                      "      \"best_isa\": \"%s\",\n"
                      "      \"best_speedup_vs_scalar\": %.3f\n    }",
                      best_isa, best_speedup);
        j += buf;
        return j;
    };

    // 4-bit leg: same GEMM shape, 4-bit exact product LUT, activations
    // nibble-packed at pack time (tr=16 keeps every panel pshufb-eligible).
    const appmult::AppMultLut lut4 = appmult::AppMultLut::exact(4);
    PackedGemm g4(lut4, kSweepO, kSweepP, kSweepK, 12);
    g4.pack(16, tiles.to, tiles.tk);
    g4.args.scale_w = g.args.scale_w;
    g4.args.scale_x = g.args.scale_x;
    g4.args.zero_w = 7;
    g4.args.zero_x = 9;

    std::string available;
    for (const auto isa : isas) {
        if (!available.empty()) available += ",";
        available += kernels::simd::isa_name(isa);
    }
    std::string simd_json = "  \"simd\": {\n";
    simd_json += std::string("    \"active_default\": \"") +
                 kernels::simd::isa_name(kernels::simd::select()) + "\",\n";
    simd_json += "    \"available_isas\": \"" + available + "\",\n";
    simd_json += leg_json("gather_bits8", g.args, &blocked_ms) + ",\n";
    simd_json += leg_json("nibble_bits4", g4.args, nullptr) + ",\n";
    {
        char buf[192];
        std::snprintf(buf, sizeof(buf),
                      "    \"best_leg\": \"%s\",\n"
                      "    \"simd_vs_blocked_speedup\": %.3f,\n"
                      "    \"target_simd_vs_blocked\": 1.5,\n"
                      "    \"bitwise_equal\": %s\n  }",
                      best_overall.c_str(), best_overall_speedup,
                      simd_all_eq ? "true" : "false");
        simd_json += buf;
    }

    // Quantized conv end to end (quantize + fused im2col pack + GEMM +
    // epilogue) at the default dispatch level.
    double conv_ms = 0.0;
    {
        util::Rng rng(4);
        approx::ApproxConv2d conv(8, 32, 3, 1, 1, rng);
        conv.set_multiplier(approx::MultiplierConfig::exact_ste(8));
        conv.set_mode(approx::ComputeMode::kQuantized);
        util::Rng xrng(5);
        const tensor::Tensor x =
            tensor::Tensor::randn(tensor::Shape{8, 8, 32, 32}, xrng);
        nn::Context ctx;
        conv_ms = time_ms_best(iters, [&] {
            auto y = conv.forward(x, ctx);
            benchmark::DoNotOptimize(y.data());
        });
    }

    std::filesystem::create_directories("results");
    std::FILE* f = std::fopen("results/BENCH_kernels.json", "w");
    if (!f) {
        std::fprintf(stderr, "cannot open results/BENCH_kernels.json\n");
        return 1;
    }
    std::fprintf(
        f,
        "{\n"
        "  \"lut_gemm_forward\": {\n"
        "    \"o\": %lld, \"p\": %lld, \"k\": %lld, \"bits\": %u,\n"
        "    \"tiles\": {\"rows_p\": %lld, \"rows_o\": %lld, \"depth\": %lld},\n"
        "    \"blocked_ms\": %.4f\n"
        "  },\n"
        "%s,\n"
        "  \"conv_forward_end_to_end\": {\n"
        "    \"batch\": 8, \"in_ch\": 8, \"out_ch\": 32, \"hw\": 32,\n"
        "    \"ms\": %.4f\n"
        "  }\n"
        "}\n",
        static_cast<long long>(kSweepO), static_cast<long long>(kSweepP),
        static_cast<long long>(kSweepK), g.args.bits,
        static_cast<long long>(tiles.tp), static_cast<long long>(tiles.to),
        static_cast<long long>(tiles.tk), blocked_ms, simd_json.c_str(), conv_ms);
    std::fclose(f);

    std::printf("lut_gemm forward (o=%lld p=%lld k=%lld): scalar-dispatch "
                "blocked %.3f ms\n",
                static_cast<long long>(kSweepO), static_cast<long long>(kSweepP),
                static_cast<long long>(kSweepK), blocked_ms);
    std::printf("conv end-to-end: %.3f ms\n", conv_ms);
    std::printf("simd best: %s at %.2fx vs scalar-dispatch blocked\n",
                best_overall.c_str(), best_overall_speedup);
    std::printf("wrote results/BENCH_kernels.json\n");
    if (!simd_all_eq) {
        std::fprintf(stderr, "BENCH_kernels: bitwise equality violated\n");
        return 1;
    }
    if (isas.size() > 1 && best_overall_speedup < 1.5)
        std::fprintf(stderr,
                     "warning: simd best %.2fx vs scalar blocked (target 1.5x)\n",
                     best_overall_speedup);
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    // Flags are parsed by hand (not util::ArgParser) because unknown flags
    // must pass through to google-benchmark untouched.
    bool quick = false, tile_sweep = false, kernels_json = false, profile = false;
    std::string trace_path;
    std::vector<char*> passthrough;
    passthrough.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--tile-sweep") == 0) {
            tile_sweep = true;
        } else if (std::strcmp(argv[i], "--kernels-json") == 0) {
            kernels_json = true;
        } else if (std::strcmp(argv[i], "--profile") == 0) {
            profile = true;
        } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
            trace_path = argv[++i];
        } else {
            passthrough.push_back(argv[i]);
        }
    }
    if (profile || !trace_path.empty()) obs::trace_start();

    int rc = 0;
    if (tile_sweep || kernels_json) {
        if (tile_sweep) rc = run_tile_sweep();
        if (rc == 0 && kernels_json) rc = run_kernels_json();
    } else {
        // Smoke mode: one tiny-budget pass over every benchmark, failing only
        // on crashes — scripts/check.sh and CI run this as a smoke stage.
        std::string min_time = "--benchmark_min_time=0.01";
        if (quick) passthrough.push_back(min_time.data());

        int pargc = static_cast<int>(passthrough.size());
        benchmark::Initialize(&pargc, passthrough.data());
        if (benchmark::ReportUnrecognizedArguments(pargc, passthrough.data())) {
            rc = 1;
        } else {
            benchmark::RunSpecifiedBenchmarks();
            benchmark::Shutdown();
        }
    }

    if (obs::trace_enabled()) {
        obs::trace_stop();
        if (profile) std::fputs(obs::profile_table().c_str(), stdout);
        if (!trace_path.empty()) {
            if (obs::write_chrome_trace(trace_path)) {
                std::printf("wrote %s (load in ui.perfetto.dev)\n",
                            trace_path.c_str());
            } else {
                std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
                rc = 1;
            }
        }
    }
    if (profile) {
        const std::string counters = obs::counters_table();
        if (!counters.empty()) std::fputs(counters.c_str(), stdout);
    }
    return rc;
}
