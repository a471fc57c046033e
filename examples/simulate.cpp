// General-purpose simulation runner: every knob of the library exposed
// on the command line, results as a table and optional CSV timeline.
// This is the "use the library without writing C++" entry point for
// downstream users.
//
//   ./simulate --topology=clos --leaves=36 --spines=18 --nodes-per-leaf=18
//              --fraction-b=1.0 --p=60 --hotspots=8 --sim-time-us=10000
//
// Run ./simulate --help for the full knob list.

#include <chrono>
#include <cstdio>
#include <limits>
#include <string>
#include <type_traits>

#include "ccalg/registry.hpp"
#include "core/log.hpp"
#include "sim/cli.hpp"
#include "sim/config_file.hpp"
#include "sim/simulation.hpp"
#include "sim/timeline.hpp"
#include "store/key.hpp"
#include "store/result_store.hpp"
#include "store/version.hpp"
#include "telemetry/summary.hpp"
#include "workload/registry.hpp"

namespace {

/// The headline result block — shared by the live-run path and the
/// result-store hit path, which must print identical stdout (the store's
/// contract is that a cached run is indistinguishable from a fresh one).
void print_results(const ibsim::sim::SimConfig& config, const ibsim::sim::SimResult& r) {
  using ibsim::core::kMicrosecond;
  using ibsim::core::kTimeNever;
  std::printf("\nresults over the measurement window:\n");
  std::printf("  avg receive rate, hotspots      %10.3f Gb/s\n", r.hotspot_rcv_gbps);
  std::printf("  avg receive rate, non-hotspots  %10.3f Gb/s\n", r.non_hotspot_rcv_gbps);
  std::printf("  avg receive rate, all nodes     %10.3f Gb/s\n", r.all_rcv_gbps);
  std::printf("  total network throughput        %10.1f Gb/s\n", r.total_throughput_gbps);
  std::printf("  Jain fairness (non-hotspots)    %10.4f\n", r.jain_non_hotspot);
  std::printf("  median / p99 packet latency     %7.1f / %.1f us\n", r.median_latency_us,
              r.p99_latency_us);
  std::printf("  FECN marked / CNPs / BECNs      %llu / %llu / %llu\n",
              static_cast<unsigned long long>(r.fecn_marked),
              static_cast<unsigned long long>(r.cnps_sent),
              static_cast<unsigned long long>(r.becn_received));
  std::printf("  events executed                 %llu\n",
              static_cast<unsigned long long>(r.events_executed));

  if (r.workload.ran) {
    std::printf("\napplication workload (%s):\n", config.workload.name.c_str());
    std::printf("  messages completed              %llu / %llu\n",
                static_cast<unsigned long long>(r.workload.messages_completed),
                static_cast<unsigned long long>(r.workload.messages_total));
    if (r.workload.completed) {
      std::printf("  makespan                        %10.1f us\n", r.workload.makespan_us());
    } else {
      std::printf("  makespan                        did not finish within sim-time\n");
    }
    std::printf("  per-phase finish times (us):");
    for (std::size_t p = 0; p < r.workload.phase_finish.size(); ++p) {
      const ibsim::core::Time t = r.workload.phase_finish[p];
      if (t == kTimeNever) {
        std::printf(" -");
      } else {
        std::printf(" %.1f", static_cast<double>(t) / kMicrosecond);
      }
    }
    std::printf("\n  per-rank finish times (us):");
    for (std::size_t rr = 0; rr < r.workload.rank_finish.size(); ++rr) {
      const ibsim::core::Time t = r.workload.rank_finish[rr];
      if (t == kTimeNever) {
        std::printf(" -");
      } else {
        std::printf(" %.1f", static_cast<double>(t) / kMicrosecond);
      }
    }
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ibsim;

  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--version") {
      std::printf("%s\n", store::version_line("simulate").c_str());
      return 0;
    }
  }

  sim::Cli cli("simulate: run one InfiniBand CC simulation from the command line");
  // Topology.
  cli.add_string("topology", "clos", "clos | single | chain | dumbbell | mesh | ft3");
  cli.add_int("leaves", 12, "clos: leaf switches");
  cli.add_int("spines", 6, "clos: spine switches");
  cli.add_int("nodes-per-leaf", 6, "clos: end nodes per leaf");
  cli.add_int("switch-nodes", 8, "single: end nodes on the crossbar");
  cli.add_int("chain-switches", 4, "chain: switches");
  cli.add_int("chain-nodes", 2, "chain: nodes per switch");
  cli.add_int("dumbbell-nodes", 4, "dumbbell: nodes per side");
  cli.add_int("mesh-rows", 4, "mesh: rows");
  cli.add_int("mesh-cols", 4, "mesh: columns");
  cli.add_int("mesh-nodes", 4, "mesh: nodes per switch");
  cli.add_string("ft3-preset", "", "ft3: canned shape, 2k | 10k (overrides the ft3-* knobs)");
  cli.add_int("ft3-pods", 4, "ft3: pods");
  cli.add_int("ft3-leaves", 2, "ft3: leaf switches per pod");
  cli.add_int("ft3-aggs", 2, "ft3: aggregation switches per pod");
  cli.add_int("ft3-cores", 4, "ft3: core switches");
  cli.add_int("ft3-nodes", 4, "ft3: end nodes per leaf");
  // Traffic.
  cli.add_double("fraction-b", 0.0, "share of B nodes (0..1)");
  cli.add_double("p", 50.0, "B-node hotspot percentage (0..100)");
  cli.add_double("fraction-c", 0.8, "C share of the non-B nodes (0..1)");
  cli.add_int("hotspots", 1, "number of hotspots");
  cli.add_int("lifetime-us", 0, "hotspot lifetime (0 = static)");
  cli.add_double("inject-gbps", 13.5, "per-node injection capacity");
  // Application workload (replaces the synthetic scenario when set).
  cli.add_string("workload", "",
                 "application workload (incast | ring_allreduce | tree_allreduce | "
                 "all_to_all | stencil | idle | file; 'help' lists)");
  cli.add_flag("list-workloads", "print the registered workloads and exit");
  cli.add_string("workload-file", "", "workload DSL file (with --workload=file)");
  cli.add_int("workload-ranks", 0, "ranks of the canned patterns (0 = all nodes)");
  cli.add_int("workload-bytes", 64 * 1024, "payload bytes per workload message");
  cli.add_int("workload-iters", 1, "iterations of the canned patterns");
  cli.add_int("workload-compute-us", 0, "per-iteration compute delay");
  cli.add_flag("workload-no-background", "leave non-rank nodes silent");
  // Congestion control.
  cli.add_flag("no-cc", "disable congestion control");
  cli.add_string("cc-algo", "iba_a10",
                 "reaction-point algorithm (iba_a10 | dcqcn | aimd | none; 'help' lists)");
  cli.add_flag("list-cc-algos", "print the registered CC algorithms and exit");
  cli.add_int("threshold", 15, "threshold weight 0..15");
  cli.add_int("marking-rate", 0, "Marking_Rate");
  cli.add_int("ccti-increase", 1, "CCTI_Increase");
  cli.add_int("ccti-limit", 127, "CCTI_Limit");
  cli.add_int("ccti-timer", 150, "CCTI_Timer (1.024us units)");
  cli.add_flag("sl-level", "operate CC per SL instead of per QP");
  cli.add_flag("linear-cct", "linear CCT fill instead of geometric");
  // Run control.
  cli.add_int("sim-time-us", 5000, "simulated microseconds");
  cli.add_int("warmup-us", 1000, "warmup microseconds excluded from metrics");
  cli.add_int("seed", 1, "random seed");
  cli.add_int("shards", 1,
              "fabric shards for intra-run parallelism (1 = serial engine, "
              "0 = one per resolved thread)");
  cli.add_int("threads", 0,
              "worker threads (shard workers here, sweep workers elsewhere); "
              "precedence: --threads > config-file threads > IBSIM_THREADS > hardware");
  cli.add_int("timeline-us", 0, "sampling interval for --timeline-csv (0 = off)");
  cli.add_string("timeline-csv", "", "write a telemetry time series CSV");
  cli.add_string("config", "", "key=value config file applied before the flags");
  cli.add_string("result-store", "",
                 "on-disk result store directory: serve this run from cache if "
                 "present, publish it otherwise");
  cli.add_flag("version", "print the code version stamp and exit");
  cli.add_flag("verbose", "info-level logging");
  // Telemetry.
  cli.add_string("trace", "", "write a Chrome trace-event JSON (Perfetto-loadable)");
  cli.add_string("trace-categories", "all", "trace categories: cc,credits,queues,arb");
  cli.add_int("trace-ring", 1 << 20, "trace ring capacity (events)");
  cli.add_string("counters-csv", "", "write a counter time-series CSV");
  cli.add_int("telemetry-sample-us", 50, "counter CSV sampling interval");
  cli.add_flag("telemetry-detailed", "per-port/per-node instruments, not just aggregates");
  cli.add_flag("counters", "collect and print fabric counters even without a file");
  if (!cli.parse(argc, argv)) return 0;

  if (cli.flag("verbose")) core::Log::set_level(core::LogLevel::Info);

  if (cli.flag("list-cc-algos") || cli.get_string("cc-algo") == "help") {
    std::printf("registered congestion-control algorithms:\n");
    for (const std::string& name : ccalg::CcAlgorithmRegistry::instance().names()) {
      std::printf("  %s\n", name.c_str());
    }
    return 0;
  }
  if (cli.flag("list-workloads") || cli.get_string("workload") == "help") {
    std::printf("registered workloads:\n");
    for (const std::string& name : workload::WorkloadRegistry::instance().names()) {
      std::printf("  %s\n", name.c_str());
    }
    std::printf("  file (DSL file via --workload-file)\n");
    return 0;
  }

  sim::SimConfig config;
  if (!cli.get_string("config").empty()) {
    const std::string err = sim::apply_config_file(cli.get_string("config"), &config);
    if (!err.empty()) {
      std::fprintf(stderr, "config error: %s\n", err.c_str());
      return 2;
    }
  }
  // Without --config every flag applies, defaults included; with a config
  // file only the flags given on the command line override it.
  const bool from_file = !cli.get_string("config").empty();
  const auto given = [&](const char* name) { return !from_file || cli.was_set(name); };
  // Integer flag into a narrower field: a value the field cannot hold
  // exits 2 instead of wrapping.
  bool bad_value = false;
  const auto take_int = [&](const char* name, auto* field) {
    if (!given(name)) return;
    using T = std::remove_pointer_t<decltype(field)>;
    constexpr std::int64_t lo = std::numeric_limits<T>::min();
    constexpr std::int64_t hi = std::numeric_limits<T>::max();
    const std::int64_t v = cli.get_int(name);
    if (v < lo || v > hi) {
      std::fprintf(stderr, "--%s=%lld is out of range [%lld, %lld]\n", name,
                   static_cast<long long>(v), static_cast<long long>(lo),
                   static_cast<long long>(hi));
      bad_value = true;
      return;
    }
    *field = static_cast<T>(v);
  };
  // Microsecond flag into a picosecond time: the product must fit.
  const auto take_us = [&](const char* name, core::Time* field) {
    if (!given(name)) return;
    constexpr std::int64_t max_us = std::numeric_limits<core::Time>::max() / core::kMicrosecond;
    const std::int64_t v = cli.get_int(name);
    if (v > max_us || v < -max_us) {
      std::fprintf(stderr, "--%s=%lld is out of range (|us| <= %lld)\n", name,
                   static_cast<long long>(v), static_cast<long long>(max_us));
      bad_value = true;
      return;
    }
    *field = v * core::kMicrosecond;
  };

  if (given("topology")) {
    const std::string topology = cli.get_string("topology");
    if (topology == "clos") {
      config.topology = sim::TopologyKind::FoldedClos;
    } else if (topology == "single") {
      config.topology = sim::TopologyKind::SingleSwitch;
    } else if (topology == "chain") {
      config.topology = sim::TopologyKind::LinearChain;
    } else if (topology == "dumbbell") {
      config.topology = sim::TopologyKind::Dumbbell;
    } else if (topology == "mesh") {
      config.topology = sim::TopologyKind::Mesh2D;
    } else if (topology == "ft3") {
      config.topology = sim::TopologyKind::FatTree3;
    } else {
      std::fprintf(stderr, "unknown topology '%s'\n", topology.c_str());
      return 2;
    }
  }
  switch (config.topology) {
    case sim::TopologyKind::FoldedClos:
      take_int("leaves", &config.clos.leaves);
      take_int("spines", &config.clos.spines);
      take_int("nodes-per-leaf", &config.clos.nodes_per_leaf);
      break;
    case sim::TopologyKind::SingleSwitch:
      take_int("switch-nodes", &config.single_switch_nodes);
      break;
    case sim::TopologyKind::LinearChain:
      take_int("chain-switches", &config.chain_switches);
      take_int("chain-nodes", &config.chain_nodes_per_switch);
      break;
    case sim::TopologyKind::Dumbbell:
      take_int("dumbbell-nodes", &config.dumbbell_nodes_per_side);
      break;
    case sim::TopologyKind::Mesh2D:
      take_int("mesh-rows", &config.mesh_rows);
      take_int("mesh-cols", &config.mesh_cols);
      take_int("mesh-nodes", &config.mesh_nodes_per_switch);
      break;
    case sim::TopologyKind::FatTree3: {
      const std::string preset = cli.get_string("ft3-preset");
      if (preset == "2k") {
        config.fat_tree3 = topo::FatTree3Params::scale_2k();
      } else if (preset == "10k") {
        config.fat_tree3 = topo::FatTree3Params::scale_10k();
      } else if (!preset.empty()) {
        std::fprintf(stderr, "unknown ft3 preset '%s' (valid: 2k | 10k)\n", preset.c_str());
        return 2;
      } else {
        take_int("ft3-pods", &config.fat_tree3.pods);
        take_int("ft3-leaves", &config.fat_tree3.leaves_per_pod);
        take_int("ft3-aggs", &config.fat_tree3.aggs_per_pod);
        take_int("ft3-cores", &config.fat_tree3.cores);
        take_int("ft3-nodes", &config.fat_tree3.nodes_per_leaf);
      }
      break;
    }
  }

  if (given("fraction-b")) config.scenario.fraction_b = cli.get_double("fraction-b");
  if (given("p")) config.scenario.p = cli.get_double("p") / 100.0;
  if (given("fraction-c")) config.scenario.fraction_c_of_rest = cli.get_double("fraction-c");
  take_int("hotspots", &config.scenario.n_hotspots);
  if (given("inject-gbps")) config.scenario.capacity_gbps = cli.get_double("inject-gbps");
  if (cli.get_int("lifetime-us") > 0) take_us("lifetime-us", &config.scenario.hotspot_lifetime);

  if (cli.was_set("workload")) config.workload.name = cli.get_string("workload");
  if (cli.was_set("workload-file")) config.workload.file = cli.get_string("workload-file");
  take_int("workload-ranks", &config.workload.ranks);
  if (cli.was_set("workload-bytes")) config.workload.message_bytes = cli.get_int("workload-bytes");
  take_int("workload-iters", &config.workload.iterations);
  take_us("workload-compute-us", &config.workload.compute);
  if (cli.flag("workload-no-background")) config.workload.background_uniform = false;

  if (given("no-cc")) config.cc.enabled = !cli.flag("no-cc");
  if (cli.was_set("cc-algo") || config.cc_algo.empty()) {
    config.cc_algo = cli.get_string("cc-algo");
  }
  take_int("threshold", &config.cc.threshold_weight);
  take_int("marking-rate", &config.cc.marking_rate);
  take_int("ccti-increase", &config.cc.ccti_increase);
  take_int("ccti-limit", &config.cc.ccti_limit);
  take_int("ccti-timer", &config.cc.ccti_timer);
  if (given("sl-level")) config.cc.sl_level = cli.flag("sl-level");
  if (given("linear-cct")) {
    config.cc.cct_fill = cli.flag("linear-cct") ? ib::CctFill::Linear : ib::CctFill::Geometric;
  }

  take_us("sim-time-us", &config.sim_time);
  take_us("warmup-us", &config.warmup);
  if (given("seed")) config.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  if (cli.was_set("shards") && cli.get_int("shards") < 0) {
    std::fprintf(stderr, "--shards must be >= 0 (0 = one per resolved thread)\n");
    return 2;
  }
  if (cli.was_set("threads") && cli.get_int("threads") < 0) {
    std::fprintf(stderr, "--threads must be >= 0 (0 = IBSIM_THREADS, then hardware)\n");
    return 2;
  }
  if (cli.was_set("shards")) take_int("shards", &config.shards);
  if (cli.was_set("threads")) take_int("threads", &config.threads);
  if (config.shards != 1 && cli.get_int("timeline-us") > 0) {
    std::fprintf(stderr, "timeline sampling needs the serial engine; forcing --shards=1\n");
    config.shards = 1;
  }

  if (!cli.get_string("trace").empty()) config.telemetry.trace_path = cli.get_string("trace");
  if (cli.was_set("trace-categories")) {
    config.telemetry.trace_categories = cli.get_string("trace-categories");
  }
  if (cli.was_set("trace-ring")) config.telemetry.trace_ring_capacity = cli.get_int("trace-ring");
  if (!cli.get_string("counters-csv").empty()) {
    config.telemetry.counters_csv = cli.get_string("counters-csv");
  }
  take_us("telemetry-sample-us", &config.telemetry.sample_interval);
  if (bad_value) return 2;
  if (cli.flag("telemetry-detailed")) config.telemetry.detailed = true;
  if (cli.flag("counters")) config.telemetry.counters = true;
  if (const std::string err = sim::validate(config); !err.empty()) {
    std::fprintf(stderr, "config error: %s\n", err.c_str());
    return 2;
  }

  // Result store: the --result-store flag overrides a config-file
  // result_store key. Timeline and telemetry outputs need a live
  // simulation (they sample it as it runs), so those runs bypass the
  // store rather than silently produce empty side files on a hit.
  if (cli.was_set("result-store")) config.result_store = cli.get_string("result-store");
  std::shared_ptr<store::ResultStore> result_store;
  if (!config.result_store.empty()) {
    if (config.telemetry.active() || cli.get_int("timeline-us") > 0) {
      std::fprintf(stderr,
                   "result store bypassed: telemetry/timeline output needs a live run\n");
    } else {
      result_store = store::StoreRegistry::instance().open(config.result_store);
      if (!result_store->error().empty()) {
        std::fprintf(stderr, "result store disabled: %s\n", result_store->error().c_str());
      }
    }
  }

  std::printf("%s\n", config.describe().c_str());

  std::string run_key;
  sim::SimResult cached_result;
  bool cached = false;
  if (result_store != nullptr) {
    run_key = store::run_key(config);
    cached = result_store->get(run_key, &cached_result);
  }

  if (cached) {
    std::fprintf(stderr, "result store hit: %s\n", run_key.c_str());
    print_results(config, cached_result);
  } else {
    sim::Simulation simulation(config);
    std::unique_ptr<sim::TimelineSampler> timeline;
    if (cli.get_int("timeline-us") > 0) {
      timeline = std::make_unique<sim::TimelineSampler>(
          &simulation.fabric(), &simulation.metrics(),
          cli.get_int("timeline-us") * core::kMicrosecond);
      timeline->install(simulation.sched());
    }
    const auto wall_start = std::chrono::steady_clock::now();
    const sim::SimResult r = simulation.run();
    const double wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
    if (result_store != nullptr) {
      result_store->put(run_key, store::canonical_config_text(config), r, wall_seconds);
    }

    print_results(config, r);

    const std::string timeline_csv = cli.get_string("timeline-csv");
    if (timeline != nullptr && !timeline_csv.empty()) {
      timeline->write_csv(timeline_csv);
      std::printf("timeline written to %s\n", timeline_csv.c_str());
    }

    if (const telemetry::Telemetry* t = simulation.telemetry(); t != nullptr) {
      std::printf("\n%s",
                  telemetry::counters_table(t->registry(), t->detailed()).render().c_str());
      if (t->tracer() != nullptr) {
        std::printf("trace: %s -> %s\n", telemetry::describe_tracer(*t->tracer()).c_str(),
                    config.telemetry.trace_path.c_str());
      }
      if (!config.telemetry.counters_csv.empty()) {
        std::printf("counters CSV written to %s\n", config.telemetry.counters_csv.c_str());
      }
    }
  }
  if (result_store != nullptr) {
    std::fprintf(stderr, "%s\n", result_store->stats_line().c_str());
  }
  return 0;
}
