// perfbench_amret: runs one named workload against amret's public entry
// points, checks its outputs, and prints every metric by name, unit and
// sample count. The last stdout line is the machine-readable result:
//   {"correct": ..., "attempted": N, "failed": M, "metrics": {...}}
// With --trace 0 the metrics are the end-to-end slots, with --trace 1 the
// per-layer table below. See perfbench/README.md.
#include "common.hpp"

#include "kernels/simd/simd.hpp"

#include <cpuid.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string_view>
#include <thread>

extern char** environ;

namespace {

using namespace perfbench;
using namespace amret;

/// End-to-end slots every workload reports (setup_s is added by main).
const std::vector<std::pair<const char*, const char*>> kEndToEnd = {
    {"rate_per_s", "1/s"}, {"latency_ms", "ms"}};

/// Per-layer metrics of a traced run. A layer a workload does not run
/// reports 0.
const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"train.step_ms", "ms"},
    {"train.self_ms", "ms"},
    {"nn.optim.step_ms", "ms"},
    {"nn.loss.softmax_ce_ms", "ms"},
    {"nn.float_layers.fwd_ms", "ms"},
    {"nn.float_layers.bwd_ms", "ms"},
    {"approx.L0.fwd_ms", "ms"}, {"approx.L0.bwd_ms", "ms"},
    {"approx.L1.fwd_ms", "ms"}, {"approx.L1.bwd_ms", "ms"},
    {"approx.L2.fwd_ms", "ms"}, {"approx.L2.bwd_ms", "ms"},
    {"approx.L3.fwd_ms", "ms"}, {"approx.L3.bwd_ms", "ms"},
    {"approx.L4.fwd_ms", "ms"}, {"approx.L4.bwd_ms", "ms"},
    {"approx.L5.fwd_ms", "ms"}, {"approx.L5.bwd_ms", "ms"},
    {"approx.L6.fwd_ms", "ms"}, {"approx.L6.bwd_ms", "ms"},
    {"approx.L7.fwd_ms", "ms"}, {"approx.L7.bwd_ms", "ms"},
    {"approx.engine.batch_ms", "ms"},
    {"approx.engine.self_ms", "ms"},
    {"approx.engine.compile_ms", "ms"},
    {"kernels.quantize.self_ms", "ms"},
    {"kernels.im2col_panels.self_ms", "ms"},
    {"kernels.pack_acts.self_ms", "ms"},
    {"kernels.pack_weights.self_ms", "ms"},
    {"kernels.lut_forward_blocked.self_ms", "ms"},
    {"kernels.lut_backward_blocked.self_ms", "ms"},
    {"kernels.col2im.self_ms", "ms"},
    {"kernels.gemm.rows", "count"},
    {"kernels.gemm.backward_rows", "count"},
    {"kernels.quantize.elems", "count"},
    {"kernels.simd.panels.ssse3", "count"},
    {"kernels.simd.panels.avx2", "count"},
    {"kernels.simd.panels.avx512", "count"},
    {"kernels.simd.grad_x_blocks.avx2", "count"},
    {"kernels.simd.grad_w_blocks.avx2", "count"},
    {"kernels.workspace.regrow", "count"},
    {"core.grad_lut.build_ms.difference", "ms"},
    {"core.grad_lut.build_ms.ste", "ms"},
    {"core.diff_over_ste", "ratio"},
    {"runtime.parallel_for.self_ms", "ms"},
    {"runtime.parallel_for.calls", "count"},
    {"serve.queue_ms.p50", "ms"},
    {"serve.queue_ms.p90", "ms"},
    {"serve.compute_ms.p50", "ms"},
    {"serve.compute_ms.p90", "ms"},
    {"serve.mean_batch", "count"},
    {"serve.gen_late_ms.p99", "ms"},
    {"obs.trace_overhead", "ratio"},
};

std::string cpu_brand() {
    unsigned regs[12] = {};
    if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
    for (unsigned i = 0; i < 3; ++i)
        __get_cpuid(0x80000002u + i, &regs[i * 4], &regs[i * 4 + 1], &regs[i * 4 + 2],
                    &regs[i * 4 + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    while (!s.empty() && s.back() == ' ') s.pop_back();
    while (!s.empty() && s.front() == ' ') s.erase(s.begin());
    return s;
}

std::string json_string(std::string_view s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string number(double v) {
    if (!std::isfinite(v)) return "0";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

volatile std::uint64_t g_host_sink = 0; // keeps the walk from being elided

/// A fixed memory walk with no amret code: its time tracks the host's
/// speed, so disagreement between two sets of runs can be traced to it.
double host_reference_ms() {
    static std::vector<std::uint64_t> buf = [] {
        std::vector<std::uint64_t> b(std::size_t{1} << 22); // 32 MiB
        for (std::size_t i = 0; i < b.size(); ++i) b[i] = i * 0x9e3779b97f4a7c15ull;
        return b;
    }();
    const auto t0 = Clock::now();
    std::uint64_t acc = 0;
    for (std::uint64_t rep = 0; rep < 8; ++rep)
        for (std::size_t i = 0; i < buf.size(); i += 8) acc += buf[i] ^ rep;
    const double ms = seconds_between(t0, Clock::now()) * 1e3;
    g_host_sink = acc;
    return ms;
}

void print_fingerprint(const Options& opt, const std::string& source) {
    const kernels::Tuning& tiles = kernels::Tuning::current();
    std::string env = "{";
    for (char** e = environ; *e != nullptr; ++e) {
        const std::string_view kv(*e);
        if (kv.rfind("AMRET_", 0) != 0) continue;
        const auto eq = kv.find('=');
        if (env.size() > 1) env += ", ";
        env += json_string(kv.substr(0, eq)) + ": " +
               json_string(eq == std::string_view::npos ? "" : kv.substr(eq + 1));
    }
    env += "}";
    std::printf("perfbench env {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
                "\"trace\": %d, \"cpu\": %s, \"isa\": %s, \"nproc\": %u, "
                "\"threads\": %u, \"build\": %s, \"tiles\": \"%lldx%lldx%lld\", "
                "\"source\": %s, \"amret_env\": %s}\n",
                json_string(opt.workload).c_str(),
                static_cast<unsigned long long>(opt.seed), number(opt.seconds).c_str(),
                opt.trace ? 1 : 0, json_string(cpu_brand()).c_str(),
                json_string(kernels::simd::isa_name(kernels::simd::select())).c_str(),
                std::thread::hardware_concurrency(), runtime::num_threads(),
                json_string(PERFBENCH_BUILD_TYPE).c_str(),
                static_cast<long long>(tiles.tp), static_cast<long long>(tiles.to),
                static_cast<long long>(tiles.tk), json_string(source).c_str(), env.c_str());
}

void print_metric(const std::string& name, const Value& v) {
    std::printf("perfbench metric %-40s %14.6g %-6s n=%zu\n", name.c_str(), v.value,
                v.unit.c_str(), v.samples);
}

int usage(const char* msg) {
    std::fprintf(stderr,
                 "perfbench_amret: %s\nusage: perfbench_amret --workload "
                 "retrain-vgg11|infer-vgg11|serve-lenet-open --seed N --seconds S "
                 "--trace 0|1 [--source ID]\n",
                 msg);
    return 2;
}

} // namespace

int main(int argc, char** argv) {
    Options opt;
    std::string source = "unknown";
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string_view key = argv[i];
        const char* val = argv[i + 1];
        if (key == "--workload") opt.workload = val;
        else if (key == "--seed") opt.seed = std::strtoull(val, nullptr, 10);
        else if (key == "--seconds") opt.seconds = std::strtod(val, nullptr);
        else if (key == "--trace") opt.trace = std::strcmp(val, "0") != 0;
        else if (key == "--source") source = val;
        else return usage(("unknown flag " + std::string(key)).c_str());
    }
    if (argc % 2 == 0) return usage("flags take one value each");
    if (!(opt.seconds > 0.0 && opt.seconds <= 600.0)) return usage("--seconds out of range");

#ifndef NDEBUG
    return usage("refusing to measure a build with assertions enabled (use Release)");
#endif
    if (std::string_view(PERFBENCH_BUILD_TYPE) != "Release")
        return usage("refusing to measure a non-Release build");

    // Pin the kernel tiles to the built-in defaults: a tuning file in the
    // working directory must not change what is measured.
    kernels::Tuning::set_for_test(kernels::Tuning{});

    Outcome (*run)(const Options&) = nullptr;
    if (opt.workload == "retrain-vgg11") run = run_retrain;
    else if (opt.workload == "infer-vgg11") run = run_infer;
    else if (opt.workload == "serve-lenet-open") run = run_serve;
    else return usage("unknown workload");

    try {
        const double host_start = host_reference_ms();
        Outcome out = run(opt);
        const double host_end = host_reference_ms();

        print_fingerprint(opt, source);
        std::printf("perfbench host_ref_ms start=%.3f end=%.3f (fixed memory walk, ungated)\n",
                    host_start, host_end);
        out.detail["setup_s"] = Value{median(out.setup_s), "s", out.setup_s.size()};
        for (const auto& [name, v] : out.detail) print_metric(name, v);
        for (const auto& [name, v] : out.layers) print_metric(name, v);
        for (const std::string& note : out.notes) std::printf("perfbench FAILED %s\n", note.c_str());

        std::string metrics;
        const auto add = [&](const std::string& name, const Value& v) {
            if (!metrics.empty()) metrics += ", ";
            metrics += json_string(name) + ": {\"value\": " + number(v.value) +
                       ", \"unit\": " + json_string(v.unit) + "}";
        };
        if (opt.trace) {
            for (const auto& [name, unit] : kPerLayer) {
                const auto it = out.layers.find(name);
                add(name, Value{it != out.layers.end() ? it->second.value : 0.0, unit, 0});
            }
        } else {
            add("setup_s", out.detail["setup_s"]);
            for (const auto& [name, unit] : kEndToEnd)
                add(name, Value{out.end_to_end.at(name).value, unit, 0});
        }
        std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {%s}}\n",
                    out.failed == 0 ? "true" : "false",
                    static_cast<long long>(out.attempted), static_cast<long long>(out.failed),
                    metrics.c_str());
        std::fflush(stdout);
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench_amret: %s\n", e.what());
        return 1;
    }
}
