#include "common.hpp"

#include <cstring>
#include <stdexcept>

namespace perfbench {

using namespace amret;

std::shared_ptr<const appmult::AppMultLut> build_lut(const std::string& name) {
    const appmult::MultiplierInfo& info = appmult::Registry::instance().info(name);
    if (info.construction != appmult::Construction::kSpec)
        throw std::invalid_argument("perfbench: " + name +
                                    " is not spec-constructed; its LUT needs ALS");
    const multgen::MultiplierSpec spec = info.spec;
    return std::make_shared<const appmult::AppMultLut>(
        spec.bits,
        [&spec](std::uint64_t w, std::uint64_t x) { return multgen::behavioral(spec, w, x); });
}

Counters counters() {
    Counters out;
    for (const auto& [name, value] : obs::counters_snapshot()) out[name] = value;
    return out;
}

Counters operator-(const Counters& after, const Counters& before) {
    Counters out;
    for (const auto& [name, value] : after) {
        const auto it = before.find(name);
        const std::int64_t d = value - (it == before.end() ? 0 : it->second);
        if (d != 0) out[name] = d;
    }
    return out;
}

std::vector<Span> collect_spans() {
    std::vector<Span> out;
    for (const obs::SpanEvent& e : obs::trace_events())
        out.push_back(Span{e.name != nullptr ? e.name : "", e.tid, e.start_ns, e.end_ns});
    return out;
}

std::map<std::string, Folded> fold_trace() {
    if (obs::trace_dropped() != 0)
        throw std::runtime_error("perfbench: trace ring overflowed; spans were dropped");
    return fold_self_time(collect_spans(), "runtime.");
}

void add_self_times(const std::map<std::string, Folded>& folded, std::size_t ops,
                    std::map<std::string, Value>& layers) {
    for (const auto& [name, f] : folded) {
        if (name.rfind("kernels.", 0) == 0 || name.rfind("runtime.", 0) == 0)
            layers[name + ".self_ms"] = Value{f.self_ms / static_cast<double>(ops), "ms", ops};
    }
}

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t h) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

data::Dataset make_inputs(std::uint64_t seed, std::uint64_t stream, std::int64_t n,
                          std::int64_t size) {
    constexpr int kClasses = 10;
    data::Dataset d;
    d.channels = 3;
    d.height = d.width = size;
    d.num_classes = kClasses;
    const auto numel = static_cast<std::size_t>(d.sample_numel());
    SplitMix64 proto_rng(seed);
    std::vector<float> proto(kClasses * numel);
    for (float& v : proto) v = static_cast<float>(proto_rng.uniform() * 2.0 - 1.0);
    SplitMix64 rng(seed ^ (0x9e3779b97f4a7c15ull * (stream + 1)));
    d.images.resize(static_cast<std::size_t>(n) * numel);
    for (std::int64_t i = 0; i < n; ++i) {
        const auto label = static_cast<int>(rng.next() % kClasses);
        d.labels.push_back(label);
        const float* p = proto.data() + static_cast<std::size_t>(label) * numel;
        float* x = d.images.data() + static_cast<std::size_t>(i) * numel;
        for (std::size_t j = 0; j < numel; ++j)
            x[j] = 0.5f * p[j] + static_cast<float>(rng.uniform() - 0.5);
    }
    return d;
}

tensor::Tensor sample_tensor(const data::Dataset& set, std::int64_t i) {
    tensor::Tensor t(tensor::Shape{1, set.channels, set.height, set.width});
    const std::int64_t numel = set.sample_numel();
    std::memcpy(t.data(), set.images.data() + i * numel,
                static_cast<std::size_t>(numel) * sizeof(float));
    return t;
}

tensor::Tensor batch_tensor(const data::Dataset& set, std::int64_t n) {
    tensor::Tensor t(tensor::Shape{n, set.channels, set.height, set.width});
    std::memcpy(t.data(), set.images.data(),
                static_cast<std::size_t>(n * set.sample_numel()) * sizeof(float));
    return t;
}

} // namespace perfbench
