#include "kernels/tuning.hpp"

#include "kernels/simd/simd.hpp"
#include "obs/obs.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace amret::kernels {

namespace {

// Sanity bounds: tiles outside these are almost certainly a corrupt tuning
// file or a typo'd env var; the accumulator tile (tp * to int64s) must stay
// far below any sane L2.
constexpr std::int64_t kMaxTileRows = 512;
constexpr std::int64_t kMaxTileDepth = 1 << 20;

bool tile_in_range(std::int64_t v, std::int64_t hi) { return v >= 1 && v <= hi; }

/// Parses "PxOxK" (also accepts ',' separators). Returns false on malformed
/// input, leaving \p t untouched.
bool parse_tiles(const char* s, Tuning& t) {
    char* end = nullptr;
    const long long tp = std::strtoll(s, &end, 10);
    if (end == s || (*end != 'x' && *end != ',')) return false;
    s = end + 1;
    const long long to = std::strtoll(s, &end, 10);
    if (end == s || (*end != 'x' && *end != ',')) return false;
    s = end + 1;
    const long long tk = std::strtoll(s, &end, 10);
    if (end == s) return false;
    if (tp < 1 || tp > kMaxTileRows || to < 1 || to > kMaxTileRows ||
        tk < 1 || tk > kMaxTileDepth)
        return false;
    t.tp = tp;
    t.to = to;
    t.tk = tk;
    return true;
}

/// Minimal scan for `"key": <int>` in a small JSON buffer. The tuner file is
/// machine-written (bench_micro --tile-sweep) with exactly these fields, so
/// a full parser would be dead weight in the kernel layer.
bool find_json_int(const char* buf, const char* key, std::int64_t* out) {
    const char* at = std::strstr(buf, key);
    if (at == nullptr) return false;
    at += std::strlen(key);
    while (*at == '"' || *at == ':' || *at == ' ' || *at == '\t') ++at;
    char* end = nullptr;
    const long long v = std::strtoll(at, &end, 10);
    if (end == at) return false;
    *out = v;
    return true;
}

/// Parses tp/to/tk out of \p buf into \p t. Returns false when any field is
/// missing or unparseable (t untouched in that case).
bool parse_tile_fields(const char* buf, Tuning& t) {
    std::int64_t tp = 0, to = 0, tk = 0;
    if (!find_json_int(buf, "\"tp\"", &tp) || !find_json_int(buf, "\"to\"", &to) ||
        !find_json_int(buf, "\"tk\"", &tk))
        return false;
    t.tp = tp;
    t.to = to;
    t.tk = tk;
    return true;
}

/// Loads the auto-tuner file. A missing file is the normal un-tuned state
/// and stays silent; a file that exists but cannot be parsed, or carries
/// out-of-range tiles, is REJECTED WHOLE with a typed warning (obs) and the
/// caller's defaults stand — a corrupt tuner file must never half-apply.
///
/// The file may carry per-ISA refinements next to the top-level pick:
///   { "tp": .., "to": .., "tk": ..,
///     "isa": { "avx2": { "tp": .., "to": .., "tk": .. }, ... } }
/// The block matching kernels::simd::select() wins when present and
/// complete; the top-level fields are the portable fallback.
bool load_tuning_file(const char* path, Tuning& t) {
    std::FILE* f = std::fopen(path, "rb");
    if (f == nullptr) return false;
    char buf[4096];
    const std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
    std::fclose(f);
    buf[n] = '\0';
    Tuning parsed = t;
    if (!parse_tile_fields(buf, parsed)) {
        obs::warn_once("tuning.file_malformed",
                       std::string(path) + // invariant-ok: once-per-process warning, not a kernel loop
                           " exists but has no parseable tp/to/tk fields; "
                           "keeping default tiles");
        return false;
    }
    // Per-ISA refinement: cut the `"<isa>": { ... }` span out of the buffer
    // and re-parse within it, so its fields shadow the top-level pick.
    const std::string isa_key = // invariant-ok: once-per-process file load
        std::string("\"") + simd::isa_name(simd::select()) + "\""; // invariant-ok: once-per-process file load
    if (const char* at = std::strstr(buf, isa_key.c_str()); at != nullptr) {
        if (const char* open = std::strchr(at, '{'); open != nullptr) {
            if (const char* close = std::strchr(open, '}'); close != nullptr) {
                char sub[512];
                const std::size_t len =
                    std::min(static_cast<std::size_t>(close - open),
                             sizeof(sub) - 1);
                std::memcpy(sub, open, len);
                sub[len] = '\0';
                parse_tile_fields(sub, parsed);
            }
        }
    }
    if (!tile_in_range(parsed.tp, kMaxTileRows) ||
        !tile_in_range(parsed.to, kMaxTileRows) ||
        !tile_in_range(parsed.tk, kMaxTileDepth)) {
        obs::warn_once("tuning.file_invalid_tiles",
                       std::string(path) + // invariant-ok: once-per-process warning, not a kernel loop
                           " carries out-of-range tile dims; keeping default "
                           "tiles");
        return false;
    }
    t = parsed;
    return true;
}

// Test overrides live beside the once-resolved values so hot-path reads stay
// a single relaxed load + (rarely) a struct copy. Overrides are only written
// while no kernels run (test/bench discipline), so plain members suffice
// behind the atomic flag.
Tuning g_tuning_override;                       // invariant-ok: guarded override slot
std::atomic<bool> g_tuning_overridden{false};   // invariant-ok: test-only hook

} // namespace

Tuning Tuning::resolve() {
    Tuning t;
    if (const char* env = std::getenv("AMRET_TILES");
        env != nullptr && parse_tiles(env, t))
        return t;
    const char* file = std::getenv("AMRET_TUNING_FILE");
    load_tuning_file(file != nullptr ? file : "results/kernel_tuning.json", t);
    return t;
}

const Tuning& Tuning::current() {
    if (g_tuning_overridden.load(std::memory_order_acquire))
        return g_tuning_override;
    static const Tuning resolved = resolve();
    return resolved;
}

void Tuning::set_for_test(const Tuning& t) {
    g_tuning_override = t;
    g_tuning_overridden.store(true, std::memory_order_release);
}

void Tuning::clear_test_override() {
    g_tuning_overridden.store(false, std::memory_order_release);
}

} // namespace amret::kernels
