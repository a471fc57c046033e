// Snapshot-layer semantics: sharing cached topology/routing snapshots
// across runs must be observationally invisible. SimResults are compared
// field-for-field (EXPECT_EQ, no tolerance) between runs on a cached
// snapshot and on a privately built one, and across run_parallel thread
// counts — the "gated on bit-identical results" guarantee of the
// sweep-engine overhaul.

#include "sim/snapshot.hpp"

#include <gtest/gtest.h>

#include "fresh_snapshot.hpp"
#include "sim/experiment.hpp"
#include "sim/simulation.hpp"

namespace ibsim::sim {
namespace {

SimConfig small_base() {
  SimConfig config;
  config.topology = TopologyKind::FoldedClos;
  config.clos = topo::FoldedClosParams::scaled(4, 2, 3);  // 12 nodes
  config.sim_time = core::kMillisecond;
  config.warmup = 250 * core::kMicrosecond;
  config.cc.ccti_increase = 4;
  config.cc.ccti_timer = 38;
  config.scenario.n_hotspots = 2;
  return config;
}

/// The three congestion-tree classes of the paper's taxonomy.
std::vector<SimConfig> taxonomy_configs() {
  std::vector<SimConfig> configs;
  SimConfig silent = small_base();
  silent.scenario.fraction_b = 0.0;
  silent.scenario.fraction_c_of_rest = 0.8;
  configs.push_back(silent);

  SimConfig windy = small_base();
  windy.scenario.fraction_b = 1.0;
  windy.scenario.p = 0.5;
  configs.push_back(windy);

  SimConfig moving = small_base();
  moving.scenario.fraction_b = 0.0;
  moving.scenario.fraction_c_of_rest = 0.8;
  moving.scenario.hotspot_lifetime = 200 * core::kMicrosecond;
  configs.push_back(moving);
  return configs;
}

void expect_identical(const SimResult& a, const SimResult& b, const std::string& what) {
  EXPECT_EQ(a.hotspot_rcv_gbps, b.hotspot_rcv_gbps) << what;
  EXPECT_EQ(a.non_hotspot_rcv_gbps, b.non_hotspot_rcv_gbps) << what;
  EXPECT_EQ(a.all_rcv_gbps, b.all_rcv_gbps) << what;
  EXPECT_EQ(a.total_throughput_gbps, b.total_throughput_gbps) << what;
  EXPECT_EQ(a.jain_non_hotspot, b.jain_non_hotspot) << what;
  EXPECT_EQ(a.median_latency_us, b.median_latency_us) << what;
  EXPECT_EQ(a.p99_latency_us, b.p99_latency_us) << what;
  EXPECT_EQ(a.fecn_marked, b.fecn_marked) << what;
  EXPECT_EQ(a.cnps_sent, b.cnps_sent) << what;
  EXPECT_EQ(a.becn_received, b.becn_received) << what;
  EXPECT_EQ(a.delivered_bytes, b.delivered_bytes) << what;
  EXPECT_EQ(a.events_executed, b.events_executed) << what;
  EXPECT_EQ(a.counters, b.counters) << what;
}

TEST(SnapshotKeys, EncodeEveryTopologyParameterAndTieBreak) {
  SimConfig a = small_base();
  SimConfig b = a;
  EXPECT_EQ(topology_snapshot_key(a), topology_snapshot_key(b));
  b.clos.spines = 3;
  EXPECT_NE(topology_snapshot_key(a), topology_snapshot_key(b));

  // Scenario / CC / seed / timing are not part of the fabric's identity.
  b = a;
  b.seed = 99;
  b.scenario.p = 0.9;
  b.cc.enabled = false;
  b.sim_time = 2 * core::kMillisecond;
  EXPECT_EQ(routing_snapshot_key(a), routing_snapshot_key(b));

  SimConfig mesh = small_base();
  mesh.topology = TopologyKind::Mesh2D;
  EXPECT_NE(topology_snapshot_key(a), topology_snapshot_key(mesh));
  EXPECT_EQ(tie_break_for(mesh.topology), topo::RoutingTables::TieBreak::FirstPort);
  EXPECT_NE(routing_snapshot_key(mesh).find("first_port"), std::string::npos);
  EXPECT_NE(routing_snapshot_key(a).find("dmodk"), std::string::npos);
}

TEST(SnapshotCacheTest, CacheOnOffBitIdenticalAcrossTaxonomy) {
  SnapshotCache::instance().clear();
  for (SimConfig config : taxonomy_configs()) {
    config.telemetry.counters = true;  // compare counter snapshots too
    const SimResult warm = run_sim(config);
    const SimResult cold = testing::run_on_fresh_snapshot(config);
    // Run the cached variant again: the second run really hits the cache.
    const SimResult warm2 = run_sim(config);
    expect_identical(warm, cold, config.scenario.describe() + " (cached vs fresh snapshot)");
    expect_identical(warm, warm2, config.scenario.describe() + " (cold vs warm cache)");
  }
}

TEST(SnapshotCacheTest, SimulationsShareOneSnapshotInstance) {
  SnapshotCache::instance().clear();
  const SimConfig config = small_base();
  Simulation a(config);
  Simulation b(config);
  EXPECT_EQ(a.snapshot_ref().get(), b.snapshot_ref().get());
  EXPECT_EQ(&a.topology(), &b.topology());
  EXPECT_EQ(&a.routing(), &b.routing());

  Simulation c(config, testing::fresh_snapshot(config));
  EXPECT_NE(a.snapshot_ref().get(), c.snapshot_ref().get());
}

TEST(SnapshotCacheTest, HitMissAccounting) {
  SnapshotCache& cache = SnapshotCache::instance();
  cache.clear();
  cache.reset_stats();
  const SimConfig config = small_base();

  { Simulation sim(config); }  // cold: topology miss + routing miss
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.size(), 2u);

  { Simulation sim(config); }  // warm: one routing-level hit
  { Simulation sim(config); }
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().hits, 2u);

  SimConfig other = config;
  other.clos = topo::FoldedClosParams::scaled(2, 1, 2);
  { Simulation sim(other); }  // distinct key: two fresh misses
  EXPECT_EQ(cache.stats().misses, 4u);
  EXPECT_EQ(cache.size(), 4u);

  { Simulation sim(config, testing::fresh_snapshot(config)); }  // bypasses the cache
  EXPECT_EQ(cache.stats().misses, 4u);
  EXPECT_EQ(cache.stats().hits, 2u);
}

TEST(RunParallelInvariance, AnyThreadCountYieldsIdenticalOrderedResults) {
  SnapshotCache::instance().clear();
  // Mixed scenario classes and seeds → wildly different run lengths, the
  // case a static partition handles worst and work-stealing must not
  // reorder or cross-seed.
  std::vector<SimConfig> configs;
  for (SimConfig config : taxonomy_configs()) {
    config.seed = static_cast<std::uint64_t>(configs.size() + 1);
    configs.push_back(config);
    config.seed += 100;
    config.sim_time = config.sim_time / 2;
    configs.push_back(config);
  }
  const std::vector<SimResult> one = run_parallel(configs, 1);
  const std::vector<SimResult> two = run_parallel(configs, 2);
  const std::vector<SimResult> five = run_parallel(configs, 5);
  ASSERT_EQ(one.size(), configs.size());
  ASSERT_EQ(two.size(), configs.size());
  ASSERT_EQ(five.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const std::string what = "config " + std::to_string(i);
    expect_identical(one[i], two[i], what + " (1 vs 2 threads)");
    expect_identical(one[i], five[i], what + " (1 vs 5 threads)");
  }
}

TEST(RunParallelReport, AccountsEveryRunAndPublishesUtilization) {
  std::vector<SimConfig> configs(4, small_base());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    configs[i].seed = static_cast<std::uint64_t>(i + 1);
  }
  SweepReport report;
  const std::vector<SimResult> results = run_parallel(configs, 2, &report);
  ASSERT_EQ(results.size(), 4u);
  // Two workers asked for; the pool is capped at the hardware threads.
  ASSERT_EQ(report.workers.size(), sweep_pool_size(2, hardware_threads(), configs.size()));
  std::uint64_t runs = 0;
  double busy = 0.0;
  for (const SweepWorkerStats& w : report.workers) {
    EXPECT_GE(w.busy_seconds, 0.0);
    runs += w.runs;
    busy += w.busy_seconds;
  }
  EXPECT_EQ(runs, configs.size());
  EXPECT_GT(report.wall_seconds, 0.0);
  EXPECT_GT(busy, 0.0);
  EXPECT_GT(report.utilization(), 0.0);
  EXPECT_LE(report.utilization(), 1.0 + 1e-9);
  EXPECT_EQ(report.store_hits, 0u);  // no result_store configured
  EXPECT_EQ(report.store_misses, 0u);
}

TEST(RunParallelReport, EmptySweepReportsNoWorkers) {
  SweepReport report;
  report.workers.push_back({1.0, 1});  // stale contents must be cleared
  EXPECT_TRUE(run_parallel({}, 4, &report).empty());
  EXPECT_TRUE(report.workers.empty());
  EXPECT_EQ(report.utilization(), 0.0);
}

}  // namespace
}  // namespace ibsim::sim
