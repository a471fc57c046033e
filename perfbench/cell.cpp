// One repetition of one benchmark workload, run in a fresh process.
//
//   perfbench_cell <table2_silent|ft3_10k_windy|a2a_648> <seed> <trace 0|1>
//
// Times each layer from outside by wrapping the public calls: the
// topology and routing snapshot builds (topo), the workload spec build
// (workload, traced runs only), the Simulation constructor, run() and
// destruction. Prints one JSON object on stdout: provenance, per-cell
// timings and the SimResult fields run.py checks and aggregates. With
// trace 1 it also turns end-of-run counters on, measures the RSS the
// constructor adds, and lists its spans. With trace 0 it then sets the
// cells up again without running them and reports every set-up time.

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "sim/experiment.hpp"
#include "sim/simulation.hpp"
#include "sim/snapshot.hpp"
#include "store/version.hpp"
#include "workload/registry.hpp"

namespace {

using namespace ibsim;
using Clock = std::chrono::steady_clock;

struct Cell {
  std::string label;
  sim::SimConfig config;
};

/// Paper Table II: {C active} x {CC off, on} on the Sun DCS 648 with the
/// quick preset's windows and CC loop, serial.
std::vector<Cell> table2_cells(std::uint64_t seed) {
  sim::SimConfig base = sim::ExperimentPreset::quick().base_config();
  base.scenario.fraction_b = 0.0;
  base.scenario.fraction_c_of_rest = 0.8;
  base.scenario.n_hotspots = 8;
  base.seed = seed;
  base.shards = 1;
  base.threads = 1;
  std::vector<Cell> cells;
  for (const bool c_active : {false, true}) {
    for (const bool cc_on : {false, true}) {
      sim::SimConfig config = base;
      config.scenario.c_nodes_active = c_active;
      config.cc.enabled = cc_on;
      cells.push_back({std::string(c_active ? "hotspots" : "no_hotspots") +
                           (cc_on ? "_cc_on" : "_cc_off"),
                       config});
    }
  }
  return cells;
}

/// 10240-HCA three-level fat-tree, windy forest (all B, p = 50 %,
/// 8 hotspots), per-QP CC, on the sharded engine.
std::vector<Cell> ft3_cells(std::uint64_t seed) {
  sim::SimConfig config;
  config.topology = sim::TopologyKind::FatTree3;
  config.fat_tree3 = topo::FatTree3Params::scale_10k();
  config.sim_time = 250 * core::kMicrosecond;
  config.warmup = 50 * core::kMicrosecond;
  config.cc.enabled = true;
  config.cc.sl_level = false;
  config.cc.ccti_increase = 4;
  config.cc.ccti_timer = 38;
  config.scenario.fraction_b = 1.0;
  config.scenario.p = 0.5;
  config.scenario.n_hotspots = 8;
  config.seed = seed;
  config.shards = 2;
  config.threads = 2;
  return {{"windy_p50", config}};
}

/// Personalized all-to-all across all 648 ranks of the DCS 648, 4 KiB
/// messages, two iterations, no background traffic.
std::vector<Cell> a2a_cells(std::uint64_t seed) {
  sim::SimConfig config = sim::ExperimentPreset::quick().base_config();
  config.sim_time = 20 * core::kMillisecond;
  config.warmup = 0;
  config.cc.enabled = true;
  config.workload.name = "all_to_all";
  config.workload.ranks = 0;
  config.workload.message_bytes = 4096;
  config.workload.iterations = 2;
  config.workload.background_uniform = false;
  config.seed = seed;
  config.shards = 2;
  config.threads = 2;
  return {{"all_to_all", config}};
}

double seconds_since(Clock::time_point origin) {
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::int64_t current_rss_bytes() {
  long pages = 0;
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long size = 0;
  if (std::fscanf(f, "%ld %ld", &size, &pages) != 2) pages = 0;
  std::fclose(f);
  return static_cast<std::int64_t>(pages) * sysconf(_SC_PAGESIZE);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out;
}

struct Span {
  std::string name;
  int cell = 0;
  double start_s = 0.0;
  double end_s = 0.0;
};

struct CellOutcome {
  std::string label;
  std::int32_t nodes = 0;
  std::int32_t shards = 1;
  double window_us = 0.0;  ///< measurement window the rates are taken over
  double topology_s = 0.0;
  double routing_s = 0.0;
  double spec_build_s = 0.0;
  double construct_s = 0.0;  ///< whole constructor, spec build included
  double run_s = 0.0;
  double teardown_s = 0.0;
  std::int64_t construct_bytes = 0;
  sim::SimResult result;
};

class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}
  /// Open a span; returns its start in seconds since the origin.
  double begin() const { return seconds_since(origin_); }
  /// Close a span opened at `start`; returns its duration.
  double end(const char* name, int cell, double start) {
    const double stop = seconds_since(origin_);
    spans_.push_back({name, cell, start, stop});
    return stop - start;
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

CellOutcome run_cell(const Cell& cell, int index, bool trace, SpanLog& log) {
  CellOutcome out;
  out.label = cell.label;
  sim::SimConfig config = cell.config;
  config.telemetry.counters = trace;
  out.nodes = config.node_count();
  out.window_us = static_cast<double>(config.sim_time - config.warmup) / core::kMicrosecond;

  double t = log.begin();
  auto topology = sim::build_topology_snapshot(config);
  out.topology_s = log.end("topo.topology", index, t);
  t = log.begin();
  auto routing = sim::build_routing_snapshot(topology, sim::tie_break_for(config.topology));
  out.routing_s = log.end("topo.routing", index, t);
  topology.reset();

  if (trace && config.workload.active()) {
    // The constructor builds the spec itself; this separate build only
    // splits its cost out of sim.construct_s in the traced run.
    workload::WorkloadParams params;
    params.ranks = config.workload.ranks > 0 ? config.workload.ranks : config.node_count();
    params.message_bytes = config.workload.message_bytes;
    params.iterations = config.workload.iterations;
    params.compute = config.workload.compute;
    t = log.begin();
    (void)workload::WorkloadRegistry::instance().build(config.workload.name, params);
    out.spec_build_s = log.end("workload.spec_build", index, t);
  }

  const std::int64_t rss_before = trace ? current_rss_bytes() : 0;
  t = log.begin();
  auto simulation = std::make_unique<sim::Simulation>(config, std::move(routing));
  out.construct_s = log.end("sim.construct", index, t);
  if (trace) out.construct_bytes = current_rss_bytes() - rss_before;
  out.shards = simulation->effective_shards();

  t = log.begin();
  out.result = simulation->run();
  out.run_s = log.end("sim.run", index, t);

  t = log.begin();
  simulation.reset();
  out.teardown_s = log.end("sim.teardown", index, t);
  return out;
}

/// One set-up of every cell (snapshot build + constructor) without
/// running it; returns the set-up seconds, teardown excluded.
double setup_only(const std::vector<Cell>& cells) {
  double total = 0.0;
  for (const Cell& cell : cells) {
    const Clock::time_point start = Clock::now();
    auto routing = sim::build_routing_snapshot(sim::build_topology_snapshot(cell.config),
                                               sim::tie_break_for(cell.config.topology));
    auto simulation = std::make_unique<sim::Simulation>(cell.config, std::move(routing));
    total += seconds_since(start);
  }
  return total;
}

void print_cell(const CellOutcome& c, bool first) {
  const sim::SimResult& r = c.result;
  std::printf("%s{\"label\": \"%s\", \"nodes\": %d, \"shards\": %d, \"window_us\": %.17g",
              first ? "" : ", ", c.label.c_str(), c.nodes, c.shards, c.window_us);
  std::printf(", \"topology_s\": %.9g, \"routing_s\": %.9g, \"spec_build_s\": %.9g"
              ", \"construct_s\": %.9g, \"run_s\": %.9g, \"teardown_s\": %.9g"
              ", \"construct_bytes\": %" PRId64,
              c.topology_s, c.routing_s, c.spec_build_s, c.construct_s, c.run_s,
              c.teardown_s, c.construct_bytes);
  std::printf(", \"hotspot_rcv_gbps\": %.17g, \"non_hotspot_rcv_gbps\": %.17g"
              ", \"all_rcv_gbps\": %.17g, \"total_throughput_gbps\": %.17g",
              r.hotspot_rcv_gbps, r.non_hotspot_rcv_gbps, r.all_rcv_gbps,
              r.total_throughput_gbps);
  std::printf(", \"fecn_marked\": %" PRIu64 ", \"cnps_sent\": %" PRIu64
              ", \"becn_received\": %" PRIu64 ", \"delivered_bytes\": %" PRId64
              ", \"delivered_packets\": %" PRIu64 ", \"events\": %" PRIu64,
              r.fecn_marked, r.cnps_sent, r.becn_received, r.delivered_bytes,
              r.delivered_packets, r.events_executed);
  std::printf(", \"events_by_kind\": [");
  for (std::size_t k = 0; k < r.events_by_kind.size(); ++k) {
    std::printf("%s%" PRIu64, k == 0 ? "" : ", ", r.events_by_kind[k]);
  }
  std::printf("]");
  const sim::WorkloadResult& w = r.workload;
  std::printf(", \"workload\": {\"ran\": %s, \"completed\": %s, \"messages_completed\": %" PRIu64
              ", \"messages_total\": %" PRIu64 ", \"makespan_us\": %.17g}",
              w.ran ? "true" : "false", w.completed ? "true" : "false", w.messages_completed,
              w.messages_total, w.makespan_us());
  std::printf(", \"counters\": {");
  bool first_counter = true;
  for (const auto& [name, value] : r.counters) {
    if (name.rfind("sched.shard.", 0) != 0) continue;
    std::printf("%s\"%s\": %" PRId64, first_counter ? "" : ", ", name.c_str(), value);
    first_counter = false;
  }
  std::printf("}}");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 4) {
    std::fprintf(stderr, "usage: %s <table2_silent|ft3_10k_windy|a2a_648> <seed> <trace 0|1>\n",
                 argv[0]);
    return 2;
  }
  const std::string workload = argv[1];
  char* end = nullptr;
  const unsigned long long seed = std::strtoull(argv[2], &end, 10);
  if (end == argv[2] || *end != '\0') {
    std::fprintf(stderr, "bad seed '%s'\n", argv[2]);
    return 2;
  }
  const std::string trace_arg = argv[3];
  if (trace_arg != "0" && trace_arg != "1") {
    std::fprintf(stderr, "trace must be 0 or 1\n");
    return 2;
  }
  const bool trace = trace_arg == "1";

  // Extra set-ups per repetition: enough that a workload whose set-up
  // takes tens of milliseconds still gives run.py a steady median.
  std::vector<Cell> cells;
  int extra_setups = 0;
  if (workload == "table2_silent") {
    cells = table2_cells(seed);
    extra_setups = 5;
  } else if (workload == "ft3_10k_windy") {
    cells = ft3_cells(seed);
  } else if (workload == "a2a_648") {
    cells = a2a_cells(seed);
    extra_setups = 2;
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return 2;
  }

  const Clock::time_point origin = Clock::now();
  SpanLog log(origin);
  std::vector<CellOutcome> outcomes;
  outcomes.reserve(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    outcomes.push_back(run_cell(cells[i], static_cast<int>(i), trace, log));
  }
  const double wall_s = seconds_since(origin);
  const double peak_mib = peak_rss_mib();

  std::vector<double> setup_samples;
  double timed_setup = 0.0;
  for (const CellOutcome& c : outcomes) timed_setup += c.topology_s + c.routing_s + c.construct_s;
  setup_samples.push_back(timed_setup);
  if (!trace) {
    for (int k = 0; k < extra_setups; ++k) setup_samples.push_back(setup_only(cells));
  }

  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d", workload.c_str(), seed,
              trace ? 1 : 0);
  std::printf(", \"provenance\": {\"version\": \"%s\", \"compiler\": \"%s\", \"flags\": \"%s\""
              ", \"build_type\": \"%s\"}",
              json_escape(store::version_line("perfbench_cell")).c_str(),
              json_escape(PERFBENCH_COMPILER).c_str(), json_escape(PERFBENCH_CXX_FLAGS).c_str(),
              json_escape(PERFBENCH_BUILD_TYPE).c_str());
  std::printf(", \"wall_s\": %.9g, \"peak_rss_mib\": %.9g, \"setup_samples_s\": [", wall_s,
              peak_mib);
  for (std::size_t i = 0; i < setup_samples.size(); ++i) {
    std::printf("%s%.9g", i == 0 ? "" : ", ", setup_samples[i]);
  }
  std::printf("]");
  std::printf(", \"cells\": [");
  for (std::size_t i = 0; i < outcomes.size(); ++i) print_cell(outcomes[i], i == 0);
  std::printf("], \"spans\": [");
  if (trace) {
    for (std::size_t i = 0; i < log.spans().size(); ++i) {
      const Span& s = log.spans()[i];
      std::printf("%s{\"name\": \"%s\", \"cell\": %d, \"start_s\": %.9g, \"end_s\": %.9g}",
                  i == 0 ? "" : ", ", s.name.c_str(), s.cell, s.start_s, s.end_s);
    }
  }
  std::printf("]}\n");
  return 0;
}
