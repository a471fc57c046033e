#pragma once

#include <string>

#include "sim/sim_config.hpp"

namespace ibsim::store {

/// Canonical text form of a fully-resolved SimConfig: one `key=value`
/// line per field, fields in a fixed order, doubles printed as C hexfloat
/// (`%a`, exact round-trip), times/integers in decimal. Every SimConfig
/// field is included: a conservative key can only cost a cache miss,
/// never return a wrong result. The exceptions are `result_store` itself,
/// which names where results are cached and must not feed the key of
/// what is cached, and `threads`, which never changes results.
///
/// Adding a field to SimConfig (or any struct it embeds) requires adding
/// it here; the round-trip tests in tests/store pin the format.
[[nodiscard]] std::string canonical_config_text(const sim::SimConfig& config);

/// The content key one run is stored under: SHA-256 over a versioned
/// header, the canonical config text (which includes the seed), and the
/// build's code-version stamp. Two processes built from the same commit
/// with clean trees compute identical keys for identical configs; any
/// config field, the seed, or the code version changing changes the key.
[[nodiscard]] std::string run_key(const sim::SimConfig& config);

/// run_key with an explicit version stamp (tests exercise version
/// sensitivity without rebuilding).
[[nodiscard]] std::string run_key_with_version(const sim::SimConfig& config,
                                               const std::string& code_version);

}  // namespace ibsim::store
