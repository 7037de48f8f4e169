/// \file serialize.hpp
/// \brief Binary (de)serialization of netlists.
///
/// Used to cache ALS-synthesized multipliers on disk so bench binaries do
/// not re-run synthesis, and generally useful for persisting circuits.
#pragma once

#include "netlist/netlist.hpp"

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

} // namespace amret::netlist
