// MachineConfig <-> INI file mapping, so experiments can be described as
// data ("machine files") instead of code. See tools/nwcsim.cpp.
#pragma once

#include <string>

#include "machine/config.hpp"
#include "util/ini.hpp"

namespace nwc::machine {

/// Applies every recognized "[machine] key" of `ini` onto `cfg`.
/// Unknown keys under [machine] throw std::runtime_error (typo guard);
/// other sections are ignored. Returns the number of keys applied.
int applyIni(const util::IniFile& ini, MachineConfig& cfg);

/// applyIni for a machine file (nwcsim --config=): every key must sit
/// under [machine], so a misspelt section header throws "unknown INI key:
/// S.K" instead of silently leaving the defaults in place.
int applyMachineFile(const util::IniFile& ini, MachineConfig& cfg);

/// Serializes `cfg` as an INI [machine] section (round-trips via applyIni).
util::IniFile toIni(const MachineConfig& cfg);

/// Parses "standard" / "nwcache" / "dcd"; throws on anything else.
SystemKind systemKindFromString(const std::string& s);

/// Parses "optimal" / "naive"; throws on anything else.
Prefetch prefetchFromString(const std::string& s);

/// Parses "always" / "lru" / "sieve"; throws on anything else.
AdmissionKind admissionKindFromString(const std::string& s);

/// Parses "fifo" / "write-combine"; throws on anything else.
DestageKind destageKindFromString(const std::string& s);

}  // namespace nwc::machine
