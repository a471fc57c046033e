#include "sim/sim_config.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "ccalg/registry.hpp"
#include "telemetry/trace.hpp"
#include "workload/registry.hpp"

namespace ibsim::sim {

const char* topology_name(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::SingleSwitch: return "single-switch";
    case TopologyKind::FoldedClos: return "folded-clos";
    case TopologyKind::FatTree3: return "fat-tree3";
    case TopologyKind::LinearChain: return "linear-chain";
    case TopologyKind::Dumbbell: return "dumbbell";
    case TopologyKind::Mesh2D: return "mesh2d";
  }
  return "?";
}

std::int32_t SimConfig::node_count() const {
  switch (topology) {
    case TopologyKind::SingleSwitch: return single_switch_nodes;
    case TopologyKind::FoldedClos: return clos.node_count();
    case TopologyKind::FatTree3: return fat_tree3.node_count();
    case TopologyKind::LinearChain: return chain_switches * chain_nodes_per_switch;
    case TopologyKind::Dumbbell: return 2 * dumbbell_nodes_per_side;
    case TopologyKind::Mesh2D: return mesh_rows * mesh_cols * mesh_nodes_per_switch;
  }
  return 0;
}

std::string SimConfig::describe() const {
  const std::string cc_desc = cc.enabled ? "on (" + cc_algo + ")" : "off";
  std::string traffic_desc;
  if (workload.active()) {
    char wbuf[160];
    std::snprintf(wbuf, sizeof(wbuf), "workload %s x%d (%d ranks, %lld B msgs%s)",
                  workload.name.c_str(), workload.iterations,
                  workload.ranks > 0 ? workload.ranks : node_count(),
                  static_cast<long long>(workload.message_bytes),
                  workload.background_uniform ? ", bg uniform" : "");
    traffic_desc = wbuf;
  } else {
    traffic_desc = scenario.describe();
  }
  char buf[320];
  std::snprintf(buf, sizeof(buf), "%s (%d nodes), CC %s, %s, sim %s (warmup %s), seed %llu",
                topology_name(topology), node_count(), cc_desc.c_str(),
                traffic_desc.c_str(), core::format_time(sim_time).c_str(),
                core::format_time(warmup).c_str(),
                static_cast<unsigned long long>(seed));
  return buf;
}

namespace {

/// Topology dimensions the builders accept (topo/builders.cpp), their
/// largest switch radix (SwitchDevice arbitrates with a 64-bit port
/// mask) and an end-node count that fits node_count()'s int32.
std::string validate_topology(const SimConfig& c) {
  std::int64_t radix = 0;
  std::int64_t switches = 1;  // chain and mesh: nodes = switches * per_switch
  std::int64_t per_switch = 0;
  switch (c.topology) {
    case TopologyKind::SingleSwitch:
      if (c.single_switch_nodes < 2) return "single_nodes must be at least 2";
      radix = c.single_switch_nodes;
      break;
    case TopologyKind::FoldedClos:
      if (c.clos.leaves < 1 || c.clos.spines < 1 || c.clos.nodes_per_leaf < 1)
        return "clos dimensions must be positive";
      radix = std::max<std::int64_t>(std::int64_t{c.clos.nodes_per_leaf} + c.clos.spines,
                                     c.clos.leaves);
      break;
    case TopologyKind::FatTree3: {
      const topo::FatTree3Params& f = c.fat_tree3;
      if (f.pods < 1 || f.leaves_per_pod < 1 || f.aggs_per_pod < 1 || f.cores < 1 ||
          f.nodes_per_leaf < 1)
        return "fat-tree dimensions must be positive";
      radix = std::max({std::int64_t{f.nodes_per_leaf} + f.aggs_per_pod,
                        std::int64_t{f.leaves_per_pod} + f.cores,
                        std::int64_t{f.pods} * f.aggs_per_pod});
      break;
    }
    case TopologyKind::LinearChain:
      if (c.chain_switches < 2 || c.chain_nodes_per_switch < 1)
        return "chain needs at least 2 switches and 1 node per switch";
      radix = std::int64_t{c.chain_nodes_per_switch} + 2;
      switches = c.chain_switches;
      per_switch = c.chain_nodes_per_switch;
      break;
    case TopologyKind::Dumbbell:
      if (c.dumbbell_nodes_per_side < 1) return "dumbbell_nodes must be at least 1";
      radix = std::int64_t{c.dumbbell_nodes_per_side} + 1;
      break;
    case TopologyKind::Mesh2D:
      if (c.mesh_rows < 1 || c.mesh_cols < 1 || c.mesh_nodes_per_switch < 1 ||
          std::int64_t{c.mesh_rows} * c.mesh_cols < 2)
        return "mesh needs at least 2 switches and 1 node per switch";
      radix = std::int64_t{c.mesh_nodes_per_switch} + 4;
      switches = std::int64_t{c.mesh_rows} * c.mesh_cols;
      per_switch = c.mesh_nodes_per_switch;
      break;
  }
  if (radix > 64) {
    return "switch radix " + std::to_string(radix) + " exceeds the 64-port limit";
  }
  if (per_switch > 0 && switches > std::numeric_limits<std::int32_t>::max() / per_switch) {
    return "topology has more end nodes than a 32-bit node id can address";
  }
  return {};
}

bool is_fraction(double v) { return v >= 0.0 && v <= 1.0; }  // false for NaN

}  // namespace

std::string validate(const SimConfig& c) {
  if (std::string err = validate_topology(c); !err.empty()) return err;
  const std::int32_t nodes = c.node_count();
  const std::string of_nodes = " (the topology has " + std::to_string(nodes) + " nodes)";

  if (c.workload.active()) {
    const WorkloadSettings& w = c.workload;
    if (w.name == "file") {
      if (w.file.empty()) return "workload 'file' needs workload_file";
      workload::WorkloadSpec spec;
      if (std::string err = workload::load_workload_file(w.file, &spec); !err.empty())
        return "workload file: " + err;
      if (spec.ranks > nodes)
        return "workload file needs " + std::to_string(spec.ranks) + " ranks" + of_nodes;
    } else {
      const auto& registry = workload::WorkloadRegistry::instance();
      if (!registry.contains(w.name))
        return "unknown workload '" + w.name + "' (valid: " + registry.names_joined() +
               ", or 'file')";
      const std::int32_t ranks = w.ranks > 0 ? w.ranks : nodes;
      if (ranks < 2 || ranks > nodes)
        return "workload_ranks " + std::to_string(ranks) + " must be in [2, nodes]" + of_nodes;
      if (w.message_bytes < 1) return "workload_bytes must be positive";
    }
  } else {
    const traffic::ScenarioSpec& s = c.scenario;
    if (!is_fraction(s.fraction_b)) return "fraction_b must be in [0, 1]";
    if (!is_fraction(s.p)) return "p_percent must be in [0, 100]";
    if (!is_fraction(s.fraction_c_of_rest)) return "fraction_c must be in [0, 1]";
    if (s.n_hotspots < 0 || s.n_hotspots > nodes)
      return "hotspots " + std::to_string(s.n_hotspots) + " must be in [0, nodes]" + of_nodes;
  }

  if (c.sim_time <= 0 || c.warmup < 0) return "sim_time_us must be positive, warmup_us >= 0";
  if (std::string err = c.fabric.validate(); !err.empty()) return "fabric: " + err;
  if (std::string err = c.cc.validate(); !err.empty()) return "cc: " + err;
  if (c.cc.cct_fill == ib::CctFill::Geometric && !(c.cc.cct_base > 1.0))
    return "cct_base must exceed 1 for the geometric CCT fill";
  const auto& algos = ccalg::CcAlgorithmRegistry::instance();
  if (!algos.contains(c.cc_algo))
    return "unknown cc algorithm '" + c.cc_algo + "' (valid: " + algos.names_joined() + ")";

  std::uint32_t mask = 0;
  if (!telemetry::parse_categories(c.telemetry.trace_categories, &mask))
    return "unknown trace category in '" + c.telemetry.trace_categories + "'";
  if (!c.telemetry.counters_csv.empty() && c.telemetry.sample_interval <= 0)
    return "telemetry_sample_us must be positive with counters_csv";
  return {};
}

}  // namespace ibsim::sim
