#include "appmult/registry.hpp"

#include "als/als.hpp"
#include "netlist/serialize.hpp"
#include "util/logging.hpp"

#include <cstdlib>
#include <filesystem>
#include <stdexcept>

namespace amret::appmult {

namespace {

MultiplierInfo spec_entry(std::string name, multgen::MultiplierSpec spec,
                          unsigned default_hws, std::string family) {
    MultiplierInfo info;
    info.name = std::move(name);
    info.bits = spec.bits;
    info.approximate = spec.is_approximate();
    info.construction = Construction::kSpec;
    info.spec = std::move(spec);
    info.default_hws = default_hws;
    info.family = std::move(family);
    return info;
}

MultiplierInfo als_entry(std::string name, unsigned bits, double nmed_budget,
                         bool wire_substitution, unsigned default_hws) {
    MultiplierInfo info;
    info.name = std::move(name);
    info.bits = bits;
    info.approximate = true;
    info.construction = Construction::kAls;
    info.spec = multgen::exact_spec(bits);
    info.als_nmed_budget = nmed_budget;
    info.als_wire_substitution = wire_substitution;
    info.default_hws = default_hws;
    info.family = "approximate logic synthesis (NMED budget " +
                  std::to_string(nmed_budget) + ")";
    return info;
}

} // namespace

Registry::Registry() {
    using multgen::broken_array_spec;
    using multgen::exact_spec;
    using multgen::or_compressed_spec;
    using multgen::perforated_spec;
    using multgen::truncated_or_spec;
    using multgen::truncated_spec;

    std::vector<MultiplierInfo> infos;
    // --- 8-bit (Table I order) ---
    infos.push_back(spec_entry("mul8u_acc", exact_spec(8), 0, "exact array"));
    infos.push_back(als_entry("mul8u_syn1", 8, 0.0028, true, 16));
    infos.push_back(als_entry("mul8u_syn2", 8, 0.0034, false, 16));
    infos.push_back(spec_entry("mul8u_2NDH", broken_array_spec(8, 7, 6, 2), 32,
                               "broken array (trunc 7, rows>=6 keep j>=2)"));
    infos.push_back(spec_entry("mul8u_17C8", truncated_or_spec(8, 7, 8), 16,
                               "truncated 7 columns, OR-compressed column 7"));
    infos.push_back(spec_entry("mul8u_1DMU", perforated_spec(8, {1, 2}), 32,
                               "perforated rows {1,2}"));
    infos.push_back(spec_entry("mul8u_17R6", or_compressed_spec(8, 9), 32,
                               "OR-compressed low 9 columns"));
    infos.push_back(spec_entry("mul8u_rm8", truncated_spec(8, 8), 16,
                               "truncated 8 columns (paper _rm8)"));
    // --- 7-bit ---
    infos.push_back(spec_entry("mul7u_acc", exact_spec(7), 0, "exact array"));
    infos.push_back(spec_entry("mul7u_06Q", or_compressed_spec(7, 6), 4,
                               "OR-compressed low 6 columns"));
    infos.push_back(spec_entry("mul7u_073", broken_array_spec(7, 5, 5, 1), 2,
                               "broken array (trunc 5, rows>=5 keep j>=1)"));
    infos.push_back(spec_entry("mul7u_rm6", truncated_spec(7, 6), 2,
                               "truncated 6 columns (paper Fig. 2)"));
    infos.push_back(als_entry("mul7u_syn1", 7, 0.0028, true, 8));
    infos.push_back(als_entry("mul7u_syn2", 7, 0.0040, false, 8));
    infos.push_back(spec_entry("mul7u_081", perforated_spec(7, {1}), 16,
                               "perforated row {1}"));
    infos.push_back(spec_entry("mul7u_08E", truncated_or_spec(7, 3, 7), 4,
                               "truncated 3 columns, OR-compressed columns 3-6"));
    // --- 6-bit ---
    infos.push_back(spec_entry("mul6u_acc", exact_spec(6), 0, "exact array"));
    infos.push_back(spec_entry("mul6u_rm4", truncated_spec(6, 4), 2,
                               "truncated 4 columns (paper _rm4)"));

    for (auto& info : infos) {
        const std::string name = info.name;
        order_.push_back(name);
        entries_[name] = Entry{std::move(info), {}, {}, {}, {}};
    }
}

Registry& Registry::instance() {
    static Registry registry;
    return registry;
}

bool Registry::contains(const std::string& name) const {
    const std::lock_guard<std::recursive_mutex> lock(mutex_);
    return entries_.count(name) > 0;
}

const MultiplierInfo& Registry::info(const std::string& name) const {
    const std::lock_guard<std::recursive_mutex> lock(mutex_);
    return entries_.at(name).info;
}

Registry::Entry& Registry::entry(const std::string& name) {
    const auto it = entries_.find(name);
    if (it == entries_.end())
        throw std::out_of_range("unknown multiplier: " + name);
    return it->second;
}

namespace {

/// Directory for caching expensive ALS results across processes; set
/// AMRET_CACHE_DIR to override, or to "0" to disable.
std::string cache_path_for(const MultiplierInfo& info) {
    const char* env = std::getenv("AMRET_CACHE_DIR");
    std::string dir = env ? env : ".amret_cache";
    if (dir == "0" || dir.empty()) return {};
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) return {};
    // Fingerprint the algorithm version and the synthesis options so stale
    // caches never resurface.
    std::string tag = "_v" + std::to_string(als::kAlgorithmVersion) + "_b" +
                      std::to_string(static_cast<int>(info.als_nmed_budget * 1e5));
    if (info.als_wire_substitution) tag += "w";
    if (info.als_zero_preserving) tag += "z";
    return dir + "/" + info.name + tag + ".netlist";
}

} // namespace

namespace {

/// Structural gate run on every circuit entering the registry: topological
/// order (the invariant sim/STA/techmap rely on) and the multiplier port
/// contract. Generators violating it are bugs, cached files violating it
/// are corruption; both must not reach simulation silently.
bool circuit_is_well_formed(const netlist::Netlist& nl, unsigned bits) {
    return nl.is_topologically_ordered() &&
           nl.num_inputs() == 2 * static_cast<std::size_t>(bits) &&
           nl.num_outputs() == 2 * static_cast<std::size_t>(bits);
}

} // namespace

void Registry::build_circuit(Entry& e) {
    if (e.circuit.has_value()) return;
    if (e.info.construction == Construction::kSpec) {
        e.circuit = multgen::build_netlist(e.info.spec);
        if (!circuit_is_well_formed(*e.circuit, e.info.bits))
            throw std::runtime_error("registry: generated netlist for '" +
                                     e.info.name + "' is malformed");
        return;
    }
    const auto synthesize = [&e] {
        util::log_info("synthesizing ", e.info.name, " (ALS, NMED budget ",
                       e.info.als_nmed_budget, ") ...");
        als::AlsOptions options;
        options.nmed_budget = e.info.als_nmed_budget;
        options.enable_wire_substitution = e.info.als_wire_substitution;
        if (e.info.als_zero_preserving)
            options.protected_patterns = als::multiplier_zero_patterns(e.info.bits);
        const auto exact = multgen::build_netlist(multgen::exact_spec(e.info.bits));
        auto result = als::synthesize(exact, options);
        util::log_info("  ", e.info.name, ": ", result.moves, " rewrites, area ",
                       result.area_before_um2, " -> ", result.area_after_um2,
                       " um^2, NMED ", result.metrics.nmed);
        if (!circuit_is_well_formed(result.netlist, e.info.bits))
            throw std::runtime_error("registry: synthesized netlist for '" +
                                     e.info.name + "' is malformed");
        return std::move(result.netlist);
    };
    const std::string cache = cache_path_for(e.info);
    if (cache.empty()) {
        e.circuit = synthesize();
        return;
    }
    // Parallel processes (ctest -j, benches) share the cache: load_or_build
    // lets one of them synthesize a missing entry while the others wait on
    // its lock file and then load the published netlist.
    e.circuit = netlist::load_or_build(
        cache,
        [&e](const netlist::Netlist& nl) {
            if (circuit_is_well_formed(nl, e.info.bits)) {
                util::log_debug("loaded ", e.info.name, " from cache");
                return true;
            }
            // A corrupt cache is recoverable: drop it and resynthesize.
            util::log_warn("cached netlist for ", e.info.name,
                           " is malformed; resynthesizing");
            return false;
        },
        synthesize);
}

const netlist::Netlist& Registry::circuit(const std::string& name) {
    const std::lock_guard<std::recursive_mutex> lock(mutex_);
    Entry& e = entry(name);
    build_circuit(e);
    return *e.circuit;
}

const AppMultLut& Registry::lut(const std::string& name) {
    const std::lock_guard<std::recursive_mutex> lock(mutex_);
    Entry& e = entry(name);
    if (!e.lut.has_value()) {
        if (e.info.construction == Construction::kSpec) {
            // Behavioural path is much cheaper than netlist simulation and is
            // verified equivalent by the test suite.
            const auto& spec = e.info.spec;
            e.lut = AppMultLut(spec.bits, [&spec](std::uint64_t w, std::uint64_t x) {
                return multgen::behavioral(spec, w, x);
            });
        } else {
            build_circuit(e);
            e.lut = AppMultLut::from_netlist(e.info.bits, *e.circuit);
        }
    }
    return *e.lut;
}

const netlist::HardwareReport& Registry::hardware(const std::string& name) {
    const std::lock_guard<std::recursive_mutex> lock(mutex_);
    Entry& e = entry(name);
    if (!e.hardware.has_value()) {
        build_circuit(e);
        e.hardware = netlist::analyze(*e.circuit);
    }
    return *e.hardware;
}

const ErrorMetrics& Registry::error(const std::string& name) {
    const std::lock_guard<std::recursive_mutex> lock(mutex_);
    Entry& e = entry(name);
    if (!e.error.has_value()) e.error = measure_error(lut(name));
    return *e.error;
}

void Registry::register_spec(const std::string& name,
                             const multgen::MultiplierSpec& spec,
                             unsigned default_hws) {
    if (name.empty())
        throw std::invalid_argument("register_spec: multiplier name is empty");
    if (const std::string problem = multgen::validate_spec(spec); !problem.empty())
        throw std::invalid_argument("register_spec('" + name + "'): " + problem);
    const std::lock_guard<std::recursive_mutex> lock(mutex_);
    MultiplierInfo info = spec_entry(name, spec, default_hws, "user-defined");
    if (!contains(name)) order_.push_back(name);
    Entry fresh{std::move(info), {}, {}, {}, {}};
    entries_[name] = std::move(fresh);
}

std::string accurate_counterpart(const std::string& name) {
    const auto underscore = name.find('_');
    if (underscore == std::string::npos) return name;
    return name.substr(0, underscore) + "_acc";
}

} // namespace amret::appmult
