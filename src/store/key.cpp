#include "store/key.hpp"

#include <cstdio>

#include "store/hash.hpp"
#include "store/version.hpp"

namespace ibsim::store {

namespace {

/// Line-oriented canonical writer. Doubles go out as hexfloat so the
/// text identifies the exact bit pattern; two configs differing in any
/// ULP of any parameter get different keys.
class CanonicalWriter {
 public:
  void field(const char* name, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", v);
    line(name, buf);
  }
  void field(const char* name, std::int64_t v) { line(name, std::to_string(v)); }
  void field(const char* name, std::uint64_t v) { line(name, std::to_string(v)); }
  void field(const char* name, std::int32_t v) { line(name, std::to_string(v)); }
  void field(const char* name, bool v) { line(name, v ? "1" : "0"); }
  void field(const char* name, const std::string& v) { line(name, v); }

  [[nodiscard]] std::string take() { return std::move(out_); }

 private:
  void line(const char* name, const std::string& value) {
    out_ += name;
    out_ += '=';
    out_ += value;
    out_ += '\n';
  }
  std::string out_;
};

const char* cct_fill_name(ib::CctFill fill) {
  return fill == ib::CctFill::Geometric ? "geometric" : "linear";
}

/// Local copy of the topology names: ibsim_store links below ibsim_sim
/// (which defines sim::topology_name), so the key module keeps its own
/// mapping rather than creating a static-library cycle. Names are part
/// of the key format — renaming one invalidates cached entries, which
/// is the correct behaviour for a format change.
const char* topology_key_name(sim::TopologyKind kind) {
  switch (kind) {
    case sim::TopologyKind::SingleSwitch: return "single";
    case sim::TopologyKind::FoldedClos: return "clos";
    case sim::TopologyKind::FatTree3: return "fat_tree3";
    case sim::TopologyKind::LinearChain: return "chain";
    case sim::TopologyKind::Dumbbell: return "dumbbell";
    case sim::TopologyKind::Mesh2D: return "mesh";
  }
  return "unknown";
}

}  // namespace

std::string canonical_config_text(const sim::SimConfig& c) {
  CanonicalWriter w;

  // Topology. Every family's parameters are emitted regardless of the
  // selected kind: "fully resolved" means the whole struct, so the key
  // tests' "any field changes the key" property holds without a
  // per-kind field map that could drift out of date.
  w.field("topology", std::string(topology_key_name(c.topology)));
  w.field("clos.leaves", c.clos.leaves);
  w.field("clos.spines", c.clos.spines);
  w.field("clos.nodes_per_leaf", c.clos.nodes_per_leaf);
  w.field("fat_tree3.pods", c.fat_tree3.pods);
  w.field("fat_tree3.leaves_per_pod", c.fat_tree3.leaves_per_pod);
  w.field("fat_tree3.aggs_per_pod", c.fat_tree3.aggs_per_pod);
  w.field("fat_tree3.cores", c.fat_tree3.cores);
  w.field("fat_tree3.nodes_per_leaf", c.fat_tree3.nodes_per_leaf);
  w.field("single_switch_nodes", c.single_switch_nodes);
  w.field("chain_switches", c.chain_switches);
  w.field("chain_nodes_per_switch", c.chain_nodes_per_switch);
  w.field("dumbbell_nodes_per_side", c.dumbbell_nodes_per_side);
  w.field("mesh_rows", c.mesh_rows);
  w.field("mesh_cols", c.mesh_cols);
  w.field("mesh_nodes_per_switch", c.mesh_nodes_per_switch);

  // Fabric calibration.
  w.field("fabric.wire_gbps", c.fabric.wire_gbps);
  w.field("fabric.hca_inject_gbps", c.fabric.hca_inject_gbps);
  w.field("fabric.hca_drain_gbps", c.fabric.hca_drain_gbps);
  w.field("fabric.link_delay", static_cast<std::int64_t>(c.fabric.link_delay));
  w.field("fabric.switch_delay", static_cast<std::int64_t>(c.fabric.switch_delay));
  w.field("fabric.hca_rx_delay", static_cast<std::int64_t>(c.fabric.hca_rx_delay));
  w.field("fabric.credit_delay", static_cast<std::int64_t>(c.fabric.credit_delay));
  w.field("fabric.n_vls", c.fabric.n_vls);
  w.field("fabric.cnp_on_own_vl", c.fabric.cnp_on_own_vl);
  w.field("fabric.switch_ibuf_data_bytes", c.fabric.switch_ibuf_data_bytes);
  w.field("fabric.switch_ibuf_cnp_bytes", c.fabric.switch_ibuf_cnp_bytes);
  w.field("fabric.hca_ibuf_data_bytes", c.fabric.hca_ibuf_data_bytes);
  w.field("fabric.hca_ibuf_cnp_bytes", c.fabric.hca_ibuf_cnp_bytes);
  w.field("fabric.cut_through", c.fabric.cut_through);

  // Congestion control.
  w.field("cc.enabled", c.cc.enabled);
  w.field("cc.threshold_weight", static_cast<std::int64_t>(c.cc.threshold_weight));
  w.field("cc.marking_rate", static_cast<std::int64_t>(c.cc.marking_rate));
  w.field("cc.packet_size", static_cast<std::int64_t>(c.cc.packet_size));
  w.field("cc.victim_mask_hca_ports", c.cc.victim_mask_hca_ports);
  w.field("cc.ccti_increase", static_cast<std::int64_t>(c.cc.ccti_increase));
  w.field("cc.ccti_limit", static_cast<std::int64_t>(c.cc.ccti_limit));
  w.field("cc.ccti_min", static_cast<std::int64_t>(c.cc.ccti_min));
  w.field("cc.ccti_timer", static_cast<std::int64_t>(c.cc.ccti_timer));
  w.field("cc.cct_fill", std::string(cct_fill_name(c.cc.cct_fill)));
  w.field("cc.cct_base", c.cc.cct_base);
  w.field("cc.sl_level", c.cc.sl_level);
  w.field("cc_algo", c.cc_algo);

  // Traffic scenario.
  w.field("scenario.fraction_b", c.scenario.fraction_b);
  w.field("scenario.p", c.scenario.p);
  w.field("scenario.fraction_c_of_rest", c.scenario.fraction_c_of_rest);
  w.field("scenario.n_hotspots", c.scenario.n_hotspots);
  w.field("scenario.hotspot_lifetime", static_cast<std::int64_t>(c.scenario.hotspot_lifetime));
  w.field("scenario.c_nodes_active", c.scenario.c_nodes_active);
  w.field("scenario.capacity_gbps", c.scenario.capacity_gbps);

  // Application workload.
  w.field("workload.name", c.workload.name);
  w.field("workload.file", c.workload.file);
  w.field("workload.ranks", c.workload.ranks);
  w.field("workload.message_bytes", c.workload.message_bytes);
  w.field("workload.iterations", c.workload.iterations);
  w.field("workload.compute", static_cast<std::int64_t>(c.workload.compute));
  w.field("workload.background_uniform", c.workload.background_uniform);

  // Run control.
  w.field("sim_time", static_cast<std::int64_t>(c.sim_time));
  w.field("warmup", static_cast<std::int64_t>(c.warmup));
  w.field("seed", c.seed);
  w.field("latency_hist_max_us", c.latency_hist_max_us);
  // Sharded runs are deterministic per shard count but cross-shard
  // interleaving can differ between shard counts, so `shards` is part of
  // the key. `threads` is deliberately absent: worker count never
  // changes results (like result_store, it is orchestration-only).
  w.field("shards", static_cast<std::int64_t>(c.shards));

  // Telemetry: all of it feeds the key. counters/detailed change the
  // SimResult::counters map, and a CSV sampler schedules its own events
  // so events_executed differs from an unsampled run.
  w.field("telemetry.counters", c.telemetry.counters);
  w.field("telemetry.trace_path", c.telemetry.trace_path);
  w.field("telemetry.trace_categories", c.telemetry.trace_categories);
  w.field("telemetry.counters_csv", c.telemetry.counters_csv);
  w.field("telemetry.sample_interval", static_cast<std::int64_t>(c.telemetry.sample_interval));
  w.field("telemetry.trace_ring_capacity", c.telemetry.trace_ring_capacity);
  w.field("telemetry.detailed", c.telemetry.detailed);

  return w.take();
}

std::string run_key_with_version(const sim::SimConfig& config,
                                 const std::string& code_version) {
  Sha256 h;
  static const char* header = "ibsim-run-key-v1\n";
  h.update(header, std::char_traits<char>::length(header));
  const std::string text = canonical_config_text(config);
  h.update(text.data(), text.size());
  const std::string version_line = "code_version=" + code_version + "\n";
  h.update(version_line.data(), version_line.size());
  return h.hex_digest();
}

std::string run_key(const sim::SimConfig& config) {
  return run_key_with_version(config, code_version());
}

}  // namespace ibsim::store
