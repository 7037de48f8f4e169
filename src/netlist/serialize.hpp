/// \file serialize.hpp
/// \brief Binary (de)serialization of netlists.
///
/// Used to cache ALS-synthesized multipliers on disk so bench binaries do
/// not re-run synthesis, and generally useful for persisting circuits.
#pragma once

#include "netlist/netlist.hpp"

#include <functional>
#include <optional>
#include <string>

namespace amret::netlist {

/// Writes \p nl to \p path atomically (temp file in the same directory,
/// then rename), so concurrent readers never see a partial file. Returns
/// false on I/O failure, leaving \p path untouched and no temp file behind.
bool save_netlist(const Netlist& nl, const std::string& path);

/// Reads a netlist written by save_netlist; nullopt on failure or corrupt
/// content.
std::optional<Netlist> load_netlist(const std::string& path);

/// Cross-process single flight over one cache file: returns the netlist at
/// \p path when it loads and \p accept approves it; otherwise takes an
/// exclusive lock on `<path>.lock` (flock), loads and checks again — a
/// concurrent builder may have published it meanwhile — and only then runs
/// \p build and saves its result to \p path. So concurrent processes (and
/// threads) asking for one missing entry run \p build once; the others
/// wait and load. If the lock file cannot be opened the call degrades to
/// an unlocked build. \p build may throw; the lock is released either way.
Netlist load_or_build(const std::string& path,
                      const std::function<bool(const Netlist&)>& accept,
                      const std::function<Netlist()>& build);

} // namespace amret::netlist
