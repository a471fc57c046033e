#include "sim/config_file.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <type_traits>
#include <vector>

#include "ccalg/registry.hpp"
#include "telemetry/trace.hpp"
#include "workload/registry.hpp"

namespace ibsim::sim {

namespace {

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return {};
  const auto end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

bool parse_double(const std::string& value, double* out) {
  char* end = nullptr;
  *out = std::strtod(value.c_str(), &end);
  return end != nullptr && *end == '\0' && !value.empty();
}

bool parse_int(const std::string& value, std::int64_t* out) {
  char* end = nullptr;
  errno = 0;
  *out = std::strtoll(value.c_str(), &end, 10);
  return end != nullptr && *end == '\0' && !value.empty() && errno != ERANGE;
}

/// Every key apply_key recognises, in the order the header documents
/// them. Only used to produce "did you mean" suggestions — the dispatch
/// itself stays in apply_key so each key sits next to its parsing.
constexpr const char* kKnownKeys[] = {
    "topology", "clos_leaves", "clos_spines", "clos_nodes_per_leaf",
    "single_nodes", "chain_switches", "chain_nodes", "dumbbell_nodes",
    "mesh_rows", "mesh_cols", "mesh_nodes", "ft3_pods", "ft3_leaves_per_pod",
    "ft3_aggs_per_pod", "ft3_cores", "ft3_nodes_per_leaf", "fraction_b",
    "p_percent", "fraction_c", "hotspots", "c_nodes_active", "lifetime_us", "inject_gbps",
    "cc_enabled", "cc_algo", "threshold_weight", "marking_rate", "packet_size",
    "victim_mask", "ccti_increase", "ccti_limit", "ccti_min", "ccti_timer",
    "sl_level", "cct_fill", "cct_base", "wire_gbps", "hca_inject_gbps",
    "hca_drain_gbps", "n_vls", "cut_through", "switch_ibuf_bytes",
    "hca_ibuf_bytes", "workload", "workload_file", "workload_ranks",
    "workload_bytes", "workload_iters", "workload_compute_us",
    "workload_background", "sim_time_us", "warmup_us", "seed", "trace_file",
    "trace_categories", "counters_csv", "telemetry_sample_us", "trace_ring",
    "telemetry_detailed", "telemetry_counters", "result_store", "threads",
    "shards",
};

/// Levenshtein edit distance with a cutoff: stops caring past `limit`
/// (returns limit + 1), which keeps suggestion scans cheap.
std::size_t edit_distance(const std::string& a, const std::string& b, std::size_t limit) {
  if (a.size() > b.size()) return edit_distance(b, a, limit);
  if (b.size() - a.size() > limit) return limit + 1;
  std::vector<std::size_t> row(a.size() + 1);
  for (std::size_t i = 0; i <= a.size(); ++i) row[i] = i;
  for (std::size_t j = 1; j <= b.size(); ++j) {
    std::size_t prev_diag = row[0];
    row[0] = j;
    std::size_t best = row[0];
    for (std::size_t i = 1; i <= a.size(); ++i) {
      const std::size_t subst = prev_diag + (a[i - 1] == b[j - 1] ? 0 : 1);
      prev_diag = row[i];
      row[i] = std::min({row[i - 1] + 1, row[i] + 1, subst});
      best = std::min(best, row[i]);
    }
    if (best > limit) return limit + 1;
  }
  return row[a.size()];
}

/// Nearest recognised key within a small edit distance, or "" when
/// nothing is plausibly close (so a genuinely unknown key does not get
/// a nonsense suggestion).
std::string closest_known_key(const std::string& key) {
  // One typo per ~4 characters of key, at least 2: catches "topolgy",
  // "result_stor", "cc_algoo" without matching unrelated keys.
  const std::size_t limit = std::max<std::size_t>(2, key.size() / 4);
  std::string best;
  std::size_t best_distance = limit + 1;
  for (const char* candidate : kKnownKeys) {
    const std::size_t d = edit_distance(key, candidate, limit);
    if (d < best_distance) {
      best_distance = d;
      best = candidate;
    }
  }
  return best;
}

/// Apply one key. Returns an error description or empty.
std::string apply_key(const std::string& key, const std::string& value, SimConfig* c) {
  const auto want_int = [&](auto setter) -> std::string {
    std::int64_t v = 0;
    if (!parse_int(value, &v)) return "expected an integer for '" + key + "'";
    setter(v);
    return {};
  };
  // Integer keys stored in a field narrower than int64: a value the field
  // cannot hold is an error, never a silent wrap.
  const auto want_field = [&](auto* field) -> std::string {
    using T = std::remove_pointer_t<decltype(field)>;
    constexpr std::int64_t lo = std::numeric_limits<T>::min();
    constexpr std::int64_t hi = std::numeric_limits<T>::max();
    std::int64_t v = 0;
    if (!parse_int(value, &v)) return "expected an integer for '" + key + "'";
    if (v < lo || v > hi) {
      return "value for '" + key + "' out of range [" + std::to_string(lo) + ", " +
             std::to_string(hi) + "]";
    }
    *field = static_cast<T>(v);
    return {};
  };
  // Microsecond keys: the picosecond product must fit core::Time.
  const auto want_us = [&](auto setter) -> std::string {
    constexpr std::int64_t max_us = std::numeric_limits<core::Time>::max() / core::kMicrosecond;
    std::int64_t v = 0;
    if (!parse_int(value, &v)) return "expected an integer for '" + key + "'";
    if (v > max_us || v < -max_us) {
      return "value for '" + key + "' out of range (|us| <= " + std::to_string(max_us) + ")";
    }
    setter(v);
    return {};
  };
  const auto want_double = [&](auto setter) -> std::string {
    double v = 0;
    if (!parse_double(value, &v)) return "expected a number for '" + key + "'";
    setter(v);
    return {};
  };

  if (key == "topology") {
    if (value == "clos") c->topology = TopologyKind::FoldedClos;
    else if (value == "single") c->topology = TopologyKind::SingleSwitch;
    else if (value == "chain") c->topology = TopologyKind::LinearChain;
    else if (value == "dumbbell") c->topology = TopologyKind::Dumbbell;
    else if (value == "mesh") c->topology = TopologyKind::Mesh2D;
    else if (value == "fat-tree3") c->topology = TopologyKind::FatTree3;
    else return "unknown topology '" + value + "'";
    return {};
  }
  if (key == "cct_fill") {
    if (value == "geometric") c->cc.cct_fill = ib::CctFill::Geometric;
    else if (value == "linear") c->cc.cct_fill = ib::CctFill::Linear;
    else return "unknown cct_fill '" + value + "'";
    return {};
  }

  if (key == "clos_leaves") return want_field(&c->clos.leaves);
  if (key == "clos_spines") return want_field(&c->clos.spines);
  if (key == "clos_nodes_per_leaf") return want_field(&c->clos.nodes_per_leaf);
  if (key == "single_nodes") return want_field(&c->single_switch_nodes);
  if (key == "chain_switches") return want_field(&c->chain_switches);
  if (key == "chain_nodes") return want_field(&c->chain_nodes_per_switch);
  if (key == "dumbbell_nodes") return want_field(&c->dumbbell_nodes_per_side);
  if (key == "mesh_rows") return want_field(&c->mesh_rows);
  if (key == "mesh_cols") return want_field(&c->mesh_cols);
  if (key == "mesh_nodes") return want_field(&c->mesh_nodes_per_switch);
  if (key == "ft3_pods") return want_field(&c->fat_tree3.pods);
  if (key == "ft3_leaves_per_pod") return want_field(&c->fat_tree3.leaves_per_pod);
  if (key == "ft3_aggs_per_pod") return want_field(&c->fat_tree3.aggs_per_pod);
  if (key == "ft3_cores") return want_field(&c->fat_tree3.cores);
  if (key == "ft3_nodes_per_leaf") return want_field(&c->fat_tree3.nodes_per_leaf);

  if (key == "fraction_b") return want_double([&](auto v) { c->scenario.fraction_b = v; });
  if (key == "p_percent") return want_double([&](auto v) { c->scenario.p = v / 100.0; });
  if (key == "fraction_c")
    return want_double([&](auto v) { c->scenario.fraction_c_of_rest = v; });
  if (key == "hotspots") return want_field(&c->scenario.n_hotspots);
  if (key == "c_nodes_active")
    return want_int([&](auto v) { c->scenario.c_nodes_active = v != 0; });
  if (key == "lifetime_us")
    return want_us([&](auto v) {
      c->scenario.hotspot_lifetime = v > 0 ? v * core::kMicrosecond : core::kTimeNever;
    });
  if (key == "inject_gbps") return want_double([&](auto v) { c->scenario.capacity_gbps = v; });

  if (key == "cc_enabled") return want_int([&](auto v) { c->cc.enabled = v != 0; });
  if (key == "cc_algo") {
    const auto& registry = ccalg::CcAlgorithmRegistry::instance();
    if (!registry.contains(value)) {
      return "unknown cc_algo '" + value + "' (valid: " + registry.names_joined() + ")";
    }
    c->cc_algo = value;
    return {};
  }
  if (key == "threshold_weight") return want_field(&c->cc.threshold_weight);
  if (key == "marking_rate") return want_field(&c->cc.marking_rate);
  if (key == "packet_size") return want_field(&c->cc.packet_size);
  if (key == "victim_mask")
    return want_int([&](auto v) { c->cc.victim_mask_hca_ports = v != 0; });
  if (key == "ccti_increase") return want_field(&c->cc.ccti_increase);
  if (key == "ccti_limit") return want_field(&c->cc.ccti_limit);
  if (key == "ccti_min") return want_field(&c->cc.ccti_min);
  if (key == "ccti_timer") return want_field(&c->cc.ccti_timer);
  if (key == "sl_level") return want_int([&](auto v) { c->cc.sl_level = v != 0; });
  if (key == "cct_base") return want_double([&](auto v) { c->cc.cct_base = v; });

  if (key == "wire_gbps") return want_double([&](auto v) { c->fabric.wire_gbps = v; });
  if (key == "hca_inject_gbps")
    return want_double([&](auto v) { c->fabric.hca_inject_gbps = v; });
  if (key == "hca_drain_gbps")
    return want_double([&](auto v) { c->fabric.hca_drain_gbps = v; });
  if (key == "n_vls") return want_field(&c->fabric.n_vls);
  if (key == "cut_through") return want_int([&](auto v) { c->fabric.cut_through = v != 0; });
  if (key == "switch_ibuf_bytes")
    return want_int([&](auto v) { c->fabric.switch_ibuf_data_bytes = v; });
  if (key == "hca_ibuf_bytes")
    return want_int([&](auto v) { c->fabric.hca_ibuf_data_bytes = v; });

  if (key == "workload") {
    const auto& registry = workload::WorkloadRegistry::instance();
    if (value != "file" && !registry.contains(value)) {
      return "unknown workload '" + value + "' (valid: " + registry.names_joined() +
             ", or 'file' with workload_file)";
    }
    c->workload.name = value;
    return {};
  }
  if (key == "workload_file") {
    c->workload.file = value;
    return {};
  }
  if (key == "workload_ranks") return want_field(&c->workload.ranks);
  if (key == "workload_bytes")
    return want_int([&](auto v) { c->workload.message_bytes = v; });
  if (key == "workload_iters") return want_field(&c->workload.iterations);
  if (key == "workload_compute_us")
    return want_us([&](auto v) { c->workload.compute = v * core::kMicrosecond; });
  if (key == "workload_background")
    return want_int([&](auto v) { c->workload.background_uniform = v != 0; });

  if (key == "sim_time_us")
    return want_us([&](auto v) { c->sim_time = v * core::kMicrosecond; });
  if (key == "warmup_us") return want_us([&](auto v) { c->warmup = v * core::kMicrosecond; });
  if (key == "seed") return want_int([&](auto v) { c->seed = static_cast<std::uint64_t>(v); });

  if (key == "trace_file") {
    c->telemetry.trace_path = value;
    return {};
  }
  if (key == "trace_categories") {
    std::uint32_t mask = 0;
    if (!telemetry::parse_categories(value, &mask)) {
      return "unknown trace category in '" + value + "'";
    }
    c->telemetry.trace_categories = value;
    return {};
  }
  if (key == "counters_csv") {
    c->telemetry.counters_csv = value;
    return {};
  }
  if (key == "telemetry_sample_us")
    return want_us([&](auto v) { c->telemetry.sample_interval = v * core::kMicrosecond; });
  if (key == "trace_ring") return want_int([&](auto v) { c->telemetry.trace_ring_capacity = v; });
  if (key == "telemetry_detailed")
    return want_int([&](auto v) { c->telemetry.detailed = v != 0; });
  if (key == "telemetry_counters")
    return want_int([&](auto v) { c->telemetry.counters = v != 0; });

  if (key == "result_store") {
    c->result_store = value;
    return {};
  }

  // Parallelism knobs. Precedence for the worker-thread count is
  // CLI --threads > config-file threads > IBSIM_THREADS > hardware
  // (resolve_threads); both sweep workers and intra-run shard workers
  // consume the resolved value.
  if (key == "threads" || key == "shards") {
    std::int64_t v = 0;
    if (!parse_int(value, &v) || v < 0 || v > std::numeric_limits<std::int32_t>::max()) {
      return "expected a non-negative 32-bit integer for '" + key + "' (0 = auto)";
    }
    if (key == "threads") c->threads = static_cast<std::int32_t>(v);
    else c->shards = static_cast<std::int32_t>(v);
    return {};
  }

  std::string err = "unknown key '" + key + "'";
  const std::string near = closest_known_key(key);
  if (!near.empty()) err += " (did you mean '" + near + "'?)";
  return err;
}

}  // namespace

std::string apply_config_text(const std::string& text, SimConfig* config) {
  std::istringstream in(text);
  std::string line;
  int line_number = 0;
  std::map<std::string, int> seen_at;  // key -> first line, for duplicate detection
  while (std::getline(in, line)) {
    ++line_number;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      return "line " + std::to_string(line_number) + ": expected 'key = value'";
    }
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (key.empty() || value.empty()) {
      return "line " + std::to_string(line_number) + ": empty key or value";
    }
    const auto [it, inserted] = seen_at.emplace(key, line_number);
    if (!inserted) {
      // Silent last-wins hides typos and merge accidents; make the
      // collision loud and point at both occurrences.
      return "line " + std::to_string(line_number) + ": duplicate key '" + key +
             "' (already set at line " + std::to_string(it->second) + ")";
    }
    const std::string err = apply_key(key, value, config);
    if (!err.empty()) return "line " + std::to_string(line_number) + ": " + err;
  }
  return {};
}

std::string apply_config_file(const std::string& path, SimConfig* config) {
  std::ifstream in(path);
  if (!in.good()) return "cannot open config file '" + path + "'";
  std::stringstream buf;
  buf << in.rdbuf();
  return apply_config_text(buf.str(), config);
}

}  // namespace ibsim::sim
