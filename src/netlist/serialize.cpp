#include "netlist/serialize.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <system_error>
#include <vector>

namespace amret::netlist {

namespace {

constexpr char kMagic[8] = {'A', 'M', 'N', 'E', 'T', '1', 0, 0};

void write_u32(std::ostream& os, std::uint32_t v) {
    os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

bool read_u32(std::istream& is, std::uint32_t& v) {
    is.read(reinterpret_cast<char*>(&v), sizeof(v));
    return static_cast<bool>(is);
}

void write_string(std::ostream& os, const std::string& s) {
    write_u32(os, static_cast<std::uint32_t>(s.size()));
    os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

bool read_string(std::istream& is, std::string& s) {
    std::uint32_t n = 0;
    if (!read_u32(is, n) || n > (1u << 20)) return false;
    s.resize(n);
    is.read(s.data(), n);
    return static_cast<bool>(is);
}

void write_netlist(std::ostream& f, const Netlist& nl) {
    f.write(kMagic, sizeof(kMagic));

    write_u32(f, static_cast<std::uint32_t>(nl.num_nodes()));
    for (NetId i = 0; i < nl.num_nodes(); ++i) {
        const Node& n = nl.node(i);
        write_u32(f, static_cast<std::uint32_t>(n.type));
        write_u32(f, n.fanin0);
        write_u32(f, n.fanin1);
    }
    write_u32(f, static_cast<std::uint32_t>(nl.num_inputs()));
    for (std::size_t i = 0; i < nl.num_inputs(); ++i) {
        write_u32(f, nl.inputs()[i]);
        write_string(f, nl.input_name(i));
    }
    write_u32(f, static_cast<std::uint32_t>(nl.num_outputs()));
    for (const auto& port : nl.outputs()) {
        write_u32(f, port.net);
        write_string(f, port.name);
    }
}

} // namespace

bool save_netlist(const Netlist& nl, const std::string& path) {
    // Publish atomically: write a temp file unique to this process and call
    // in the target's directory, then rename it over the target. A reader
    // (possibly another process loading the same cache entry) sees either
    // the previous file or the complete new one, never a partial write.
    static std::atomic<std::uint64_t> seq{0};
    const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                            std::to_string(seq.fetch_add(1));
    bool ok = false;
    {
        std::ofstream f(tmp, std::ios::binary);
        if (!f) return false;
        write_netlist(f, nl);
        f.close();
        ok = static_cast<bool>(f);
    }
    std::error_code ec;
    if (ok) std::filesystem::rename(tmp, path, ec);
    if (!ok || ec) {
        std::filesystem::remove(tmp, ec);
        return false;
    }
    return true;
}

std::optional<Netlist> load_netlist(const std::string& path) {
    std::ifstream f(path, std::ios::binary);
    if (!f) return std::nullopt;
    char magic[8];
    f.read(magic, sizeof(magic));
    if (!f || std::string(magic, 6) != std::string(kMagic, 6)) return std::nullopt;

    // Reconstruct through the public API to keep all invariants checked.
    std::uint32_t num_nodes = 0;
    if (!read_u32(f, num_nodes) || num_nodes < 2 || num_nodes > (1u << 24))
        return std::nullopt;

    struct RawNode {
        std::uint32_t type, f0, f1;
    };
    std::vector<RawNode> raw(num_nodes);
    for (auto& r : raw) {
        if (!read_u32(f, r.type) || !read_u32(f, r.f0) || !read_u32(f, r.f1))
            return std::nullopt;
        if (r.type >= static_cast<std::uint32_t>(kNumCellTypes)) return std::nullopt;
    }

    std::uint32_t num_inputs = 0;
    if (!read_u32(f, num_inputs)) return std::nullopt;
    std::vector<std::pair<NetId, std::string>> inputs(num_inputs);
    for (auto& [net, name] : inputs) {
        if (!read_u32(f, net) || !read_string(f, name)) return std::nullopt;
    }

    std::uint32_t num_outputs = 0;
    if (!read_u32(f, num_outputs)) return std::nullopt;
    std::vector<std::pair<NetId, std::string>> outputs(num_outputs);
    for (auto& [net, name] : outputs) {
        if (!read_u32(f, net) || !read_string(f, name)) return std::nullopt;
    }

    Netlist nl;
    std::size_t next_input = 0;
    for (NetId i = 2; i < num_nodes; ++i) {
        const RawNode& r = raw[i];
        const auto type = static_cast<CellType>(r.type);
        if (type == CellType::kInput) {
            if (next_input >= inputs.size() || inputs[next_input].first != i)
                return std::nullopt;
            nl.add_input(inputs[next_input].second);
            ++next_input;
            continue;
        }
        if (cell_info(type).arity == 0) return std::nullopt; // extra constants
        if (r.f0 >= i || (cell_info(type).arity == 2 && r.f1 >= i))
            return std::nullopt;
        nl.add_gate(type, r.f0, cell_info(type).arity == 2 ? r.f1 : kNullNet);
    }
    if (next_input != inputs.size()) return std::nullopt;
    for (const auto& [net, name] : outputs) {
        if (net >= num_nodes) return std::nullopt;
        nl.add_output(name, net);
    }
    return nl;
}

namespace {

/// Exclusive flock on a lock file for the guard's lifetime; a no-op guard
/// when the file cannot be opened (read-only cache directory).
class FileLock {
public:
    explicit FileLock(const std::string& path)
        : fd_(::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644)) {
        if (fd_ < 0) return;
        while (::flock(fd_, LOCK_EX) != 0) {
            if (errno != EINTR) {
                ::close(fd_);
                fd_ = -1;
                return;
            }
        }
    }
    ~FileLock() {
        if (fd_ >= 0) ::close(fd_); // closing the descriptor drops the lock
    }
    FileLock(const FileLock&) = delete;
    FileLock& operator=(const FileLock&) = delete;

private:
    int fd_;
};

} // namespace

Netlist load_or_build(const std::string& path,
                      const std::function<bool(const Netlist&)>& accept,
                      const std::function<Netlist()>& build) {
    const auto load_accepted = [&]() -> std::optional<Netlist> {
        auto nl = load_netlist(path);
        if (nl && accept(*nl)) return nl;
        return std::nullopt;
    };
    if (auto nl = load_accepted()) return std::move(*nl);
    const FileLock lock(path + ".lock");
    if (auto nl = load_accepted()) return std::move(*nl);
    Netlist built = build();
    save_netlist(built, path);
    return built;
}

} // namespace amret::netlist
