#pragma once

#include <memory>

#include "sim/simulation.hpp"
#include "sim/snapshot.hpp"

namespace ibsim::sim::testing {

/// A topology/routing snapshot built privately for `config`, bypassing
/// the process-wide SnapshotCache — the reference side of the
/// shared-vs-rebuilt bit-identity tests.
inline std::shared_ptr<const RoutingSnapshot> fresh_snapshot(const SimConfig& config) {
  return build_routing_snapshot(build_topology_snapshot(config), tie_break_for(config.topology));
}

/// run_sim on a fresh_snapshot instead of the cached one.
inline SimResult run_on_fresh_snapshot(const SimConfig& config) {
  Simulation simulation(config, fresh_snapshot(config));
  return simulation.run();
}

}  // namespace ibsim::sim::testing
