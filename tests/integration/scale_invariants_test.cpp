// Scale-path invariants for the SoA/arena fabric (DESIGN.md §13).
//
// The layout refactor must be observationally invisible at the
// ~2k-endpoint scale the CI smoke job exercises: snapshot-cache sharing,
// sweep-level parallelism and scheduler reuse may not perturb a single
// bit of any SimResult. These run the scale_2k fat-tree with short
// windows — large enough to light up every arbitration mask and arena
// regrowth path, short enough for a test suite.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../fabric/fabric_fixture.hpp"
#include "../sim/fresh_snapshot.hpp"
#include "sim/experiment.hpp"
#include "sim/simulation.hpp"
#include "sim/snapshot.hpp"
#include "topo/builders.hpp"

namespace ibsim::sim {
namespace {

SimConfig scale2k_config() {
  SimConfig config;
  config.topology = TopologyKind::FatTree3;
  config.fat_tree3 = topo::FatTree3Params::scale_2k();
  config.sim_time = 150 * core::kMicrosecond;
  config.warmup = 50 * core::kMicrosecond;
  config.cc.ccti_increase = 4;
  config.cc.ccti_timer = 38;
  config.scenario.fraction_b = 1.0;
  config.scenario.p = 0.5;
  config.scenario.n_hotspots = 2;
  return config;
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
}

TEST(ScaleInvariants, SnapshotCacheOnOffBitIdenticalAt2k) {
  SnapshotCache::instance().clear();
  const SimConfig config = scale2k_config();
  const SimResult warm = run_sim(config);
  const SimResult cold = testing::run_on_fresh_snapshot(config);
  const SimResult warm2 = run_sim(config);  // second run really hits the cache
  expect_identical(warm, cold, "2k scale, cached vs fresh snapshot");
  expect_identical(warm, warm2, "2k scale, cold vs warm cache");
}

TEST(ScaleInvariants, RunParallelThreadCountsBitIdenticalAt2k) {
  SnapshotCache::instance().clear();
  std::vector<SimConfig> configs;
  configs.push_back(scale2k_config());
  configs.push_back(scale2k_config());
  configs.back().cc = ib::CcParams::disabled();
  configs.back().seed = 7;
  configs.push_back(scale2k_config());
  configs.back().seed = 42;
  configs.back().sim_time = 100 * core::kMicrosecond;

  const std::vector<SimResult> one = run_parallel(configs, 1);
  const std::vector<SimResult> two = run_parallel(configs, 2);
  const std::vector<SimResult> five = run_parallel(configs, 5);
  ASSERT_EQ(one.size(), configs.size());
  ASSERT_EQ(two.size(), configs.size());
  ASSERT_EQ(five.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const std::string what = "2k scale, config " + std::to_string(i);
    expect_identical(one[i], two[i], what + " (1 vs 2 threads)");
    expect_identical(one[i], five[i], what + " (1 vs 5 threads)");
  }
}

}  // namespace
}  // namespace ibsim::sim

namespace ibsim::fabric::testing {
namespace {

/// Drive one full many-to-one + cross-traffic run on the given scheduler
/// and return every delivery in order. The run drains completely, so the
/// arena must end with zero live packets.
std::vector<Delivery> replay_run(core::Scheduler& sched) {
  const topo::Topology topo = topo::fat_tree3({2, 2, 2, 2, 4});  // 16 nodes
  const topo::RoutingTables routing = topo::RoutingTables::compute(topo);
  const FabricParams fparams;
  cc::CcManager ccm(ib::CcParams::paper_table1(), 128, fparams.hca_inject_gbps);
  Fabric fabric(topo, routing, fparams, ccm, sched);
  RecordingObserver observer;
  for (ib::NodeId n = 0; n < topo.node_count(); ++n) {
    fabric.hca(n).attach_observer(&observer);
  }
  std::vector<std::unique_ptr<ScriptedSource>> sources;
  for (ib::NodeId n = 1; n < topo.node_count(); ++n) {
    auto src = std::make_unique<ScriptedSource>(n, &fabric.arena());
    // Everyone hammers node 0 (the hotspot), plus a cross-flow to the
    // neighbouring node so victim traffic shares the congested leaves.
    src->add_burst(0, ib::kMtuBytes, 60);
    src->add_burst((n % (topo.node_count() - 1)) + 1, ib::kMtuBytes, 20);
    fabric.hca(n).attach_source(src.get());
    sources.push_back(std::move(src));
  }
  fabric.start(sched);
  sched.run();
  EXPECT_EQ(fabric.arena().live(), 0) << "drained run left live packets";
  return observer.deliveries;
}

TEST(ScaleInvariants, SchedulerClearReplaysBitIdentical) {
  // Scheduler::clear between runs rewinds time and the insertion
  // sequence; tie-breaking is (at, seq), so a replay on a reused
  // scheduler must reproduce the exact delivery stream of a replay on a
  // pristine one — even though the calendar wheel keeps its grown bucket
  // capacities across clear().
  core::Scheduler reused;
  const std::vector<Delivery> first = replay_run(reused);
  reused.clear();
  const std::vector<Delivery> second = replay_run(reused);
  core::Scheduler pristine;
  const std::vector<Delivery> control = replay_run(pristine);

  ASSERT_FALSE(first.empty());
  ASSERT_EQ(first.size(), second.size());
  ASSERT_EQ(first.size(), control.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].node, second[i].node) << i;
    EXPECT_EQ(first[i].src, second[i].src) << i;
    EXPECT_EQ(first[i].bytes, second[i].bytes) << i;
    EXPECT_EQ(first[i].fecn, second[i].fecn) << i;
    EXPECT_EQ(first[i].injected_at, second[i].injected_at) << i;
    EXPECT_EQ(first[i].at, second[i].at) << i;
    EXPECT_EQ(first[i].at, control[i].at) << i;
    EXPECT_EQ(first[i].node, control[i].node) << i;
    EXPECT_EQ(first[i].src, control[i].src) << i;
  }
}

}  // namespace
}  // namespace ibsim::fabric::testing
