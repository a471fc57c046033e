#include "workload/engine.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "../sim/fresh_snapshot.hpp"
#include "ccalg/registry.hpp"
#include "sim/experiment.hpp"
#include "sim/simulation.hpp"
#include "workload/registry.hpp"

namespace ibsim::workload {
namespace {

/// Small single-switch fabric: 4 ranks + 4 background nodes.
sim::SimConfig small_config(const std::string& workload_name) {
  sim::SimConfig config;
  config.topology = sim::TopologyKind::SingleSwitch;
  config.single_switch_nodes = 8;
  config.workload.name = workload_name;
  config.workload.ranks = 4;
  config.workload.message_bytes = 16 * 1024;
  config.workload.iterations = 2;
  config.sim_time = 4 * core::kMillisecond;
  config.warmup = 0;
  return config;
}

/// Two-leaf clos where the incast root's leaf is the bottleneck — the
/// configuration the CC-sensitivity guard runs on.
sim::SimConfig clos_config() {
  sim::SimConfig config;
  config.topology = sim::TopologyKind::FoldedClos;
  config.clos = topo::FoldedClosParams::scaled(6, 3, 4);
  config.workload.name = "incast";
  config.workload.ranks = 8;
  config.workload.message_bytes = 64 * 1024;
  config.workload.iterations = 2;
  config.sim_time = 5 * core::kMillisecond;
  config.warmup = 0;
  return config;
}

void expect_same_workload(const sim::SimResult& a, const sim::SimResult& b) {
  EXPECT_EQ(a.workload.completed, b.workload.completed);
  EXPECT_EQ(a.workload.makespan, b.workload.makespan);
  EXPECT_EQ(a.workload.rank_finish, b.workload.rank_finish);
  EXPECT_EQ(a.workload.phase_finish, b.workload.phase_finish);
  EXPECT_EQ(a.workload.messages_completed, b.workload.messages_completed);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.delivered_bytes, b.delivered_bytes);
}

TEST(WorkloadEngine, IncastCompletesWithProgressMetrics) {
  const sim::SimResult r = sim::run_sim(small_config("incast"));
  ASSERT_TRUE(r.workload.ran);
  EXPECT_TRUE(r.workload.completed);
  EXPECT_EQ(r.workload.messages_total, 6u);  // 3 senders x 2 iterations
  EXPECT_EQ(r.workload.messages_completed, 6u);
  EXPECT_GT(r.workload.makespan, 0);
  EXPECT_GT(r.workload.makespan_us(), 0.0);
  // Phases complete in order, and the barrier separates them strictly.
  ASSERT_EQ(r.workload.phase_finish.size(), 2u);
  EXPECT_LT(r.workload.phase_finish[0], r.workload.phase_finish[1]);
  EXPECT_EQ(r.workload.phase_finish[1], r.workload.makespan);
  // Every rank finishes by the makespan.
  ASSERT_EQ(r.workload.rank_finish.size(), 4u);
  for (const core::Time t : r.workload.rank_finish) {
    EXPECT_NE(t, core::kTimeNever);
    EXPECT_LE(t, r.workload.makespan);
  }
}

TEST(WorkloadEngine, DependenciesGateInjection) {
  // With dependencies honoured, iteration 2 cannot start before every
  // iteration-1 message has drained: the makespan of 2 iterations must
  // exceed the slowest single iteration by at least the second round's
  // serialized service time, which rules out concurrent iterations.
  sim::SimConfig one = small_config("incast");
  one.workload.iterations = 1;
  sim::SimConfig two = small_config("incast");
  const sim::SimResult r1 = sim::run_sim(one);
  const sim::SimResult r2 = sim::run_sim(two);
  ASSERT_TRUE(r1.workload.completed);
  ASSERT_TRUE(r2.workload.completed);
  EXPECT_GT(r2.workload.makespan, r1.workload.makespan + r1.workload.makespan / 2);
}

TEST(WorkloadEngine, AllCannedWorkloadsCompleteUnderEveryAlgorithm) {
  for (const char* name : {"incast", "ring_allreduce", "tree_allreduce", "all_to_all",
                           "stencil"}) {
    for (const std::string& algo : ccalg::CcAlgorithmRegistry::instance().names()) {
      sim::SimConfig config = small_config(name);
      config.workload.iterations = 1;
      config.cc_algo = algo;
      const sim::SimResult r = sim::run_sim(config);
      EXPECT_TRUE(r.workload.completed) << name << " under " << algo << ": "
                                        << r.workload.messages_completed << "/"
                                        << r.workload.messages_total;
      EXPECT_GT(r.workload.makespan, 0) << name << " under " << algo;
      for (const core::Time t : r.workload.phase_finish) EXPECT_NE(t, core::kTimeNever);
    }
  }
}

TEST(WorkloadEngine, IdleCompletesImmediatelyAndBackgroundRuns) {
  const sim::SimResult r = sim::run_sim(small_config("idle"));
  ASSERT_TRUE(r.workload.ran);
  EXPECT_TRUE(r.workload.completed);
  EXPECT_EQ(r.workload.makespan, 0);
  EXPECT_EQ(r.workload.messages_total, 0u);
  EXPECT_DOUBLE_EQ(r.workload.makespan_us(), 0.0);
  // The background senders still load the fabric (the victim baseline).
  EXPECT_GT(r.non_hotspot_rcv_gbps, 1.0);
}

TEST(WorkloadEngine, NoBackgroundLeavesVictimsSilent) {
  sim::SimConfig config = small_config("incast");
  config.workload.background_uniform = false;
  const sim::SimResult r = sim::run_sim(config);
  EXPECT_TRUE(r.workload.completed);
  // Non-rank nodes neither send nor receive: all traffic is rank-to-rank.
  EXPECT_DOUBLE_EQ(r.non_hotspot_rcv_gbps, 0.0);
}

TEST(WorkloadEngine, ResultsIdenticalAcrossSnapshotCacheModes) {
  const sim::SimConfig config = clos_config();
  expect_same_workload(sim::run_sim(config), sim::testing::run_on_fresh_snapshot(config));
}

TEST(WorkloadEngine, ResultsIdenticalAcrossRunParallelThreadCounts) {
  std::vector<sim::SimConfig> configs;
  for (const char* name : {"incast", "ring_allreduce", "all_to_all"}) {
    sim::SimConfig config = small_config(name);
    config.workload.iterations = 1;
    configs.push_back(config);
  }
  const std::vector<sim::SimResult> one = sim::run_parallel(configs, 1);
  const std::vector<sim::SimResult> two = sim::run_parallel(configs, 2);
  const std::vector<sim::SimResult> five = sim::run_parallel(configs, 5);
  ASSERT_EQ(one.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    ASSERT_TRUE(one[i].workload.completed) << i;
    expect_same_workload(one[i], two[i]);
    expect_same_workload(one[i], five[i]);
  }
}

TEST(WorkloadEngine, CcOnOffChangesIncastCompletionTime) {
  // The regression guard for the CC feedback loop: if the workload
  // engine stopped consulting the per-flow gate (or completions stopped
  // flowing through the fabric), CC-on and CC-off would become
  // bit-identical. They must differ measurably instead.
  sim::SimConfig on = clos_config();
  sim::SimConfig off = clos_config();
  off.cc.enabled = false;
  const sim::SimResult r_on = sim::run_sim(on);
  const sim::SimResult r_off = sim::run_sim(off);
  ASSERT_TRUE(r_on.workload.completed);
  ASSERT_TRUE(r_off.workload.completed);
  EXPECT_NE(r_on.workload.makespan, r_off.workload.makespan);
  const core::Time diff = r_on.workload.makespan > r_off.workload.makespan
                              ? r_on.workload.makespan - r_off.workload.makespan
                              : r_off.workload.makespan - r_on.workload.makespan;
  EXPECT_GT(diff, core::kMicrosecond);
}

TEST(WorkloadEngine, RankNodesClassedAsHotspotsForMetrics) {
  sim::Simulation simulation(small_config("incast"));
  ASSERT_NE(simulation.workload_engine(), nullptr);
  const auto& ranks = simulation.workload_engine()->rank_nodes();
  ASSERT_EQ(ranks.size(), 4u);
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    EXPECT_EQ(ranks[i], static_cast<ib::NodeId>(i));
  }
}

TEST(WorkloadEngine, FileWorkloadRunsEndToEnd) {
  const std::string path = ::testing::TempDir() + "/ibsim_workload_test.wl";
  {
    std::ofstream out(path);
    out << "name filetest\nranks 3\n"
           "op src 1 dst 0 bytes 8192\n"
           "op src 2 dst 0 bytes 8192\n"
           "op src 0 dst 2 bytes 8192 after 0,1\n";
  }
  sim::SimConfig config = small_config("file");
  config.workload.file = path;
  const sim::SimResult r = sim::run_sim(config);
  std::remove(path.c_str());
  ASSERT_TRUE(r.workload.ran);
  EXPECT_TRUE(r.workload.completed);
  EXPECT_EQ(r.workload.messages_total, 3u);
  // The dependent op finishes last.
  ASSERT_EQ(r.workload.rank_finish.size(), 3u);
  EXPECT_EQ(r.workload.rank_finish[2], r.workload.makespan);
}

TEST(WorkloadEngine, ScenarioRunsUnaffectedWhenWorkloadInactive) {
  sim::SimConfig config;
  config.topology = sim::TopologyKind::SingleSwitch;
  config.single_switch_nodes = 8;
  config.scenario.n_hotspots = 1;
  config.sim_time = 500 * core::kMicrosecond;
  config.warmup = 100 * core::kMicrosecond;
  const sim::SimResult r = sim::run_sim(config);
  EXPECT_FALSE(r.workload.ran);
  EXPECT_GT(r.delivered_bytes, 0);
}

}  // namespace
}  // namespace ibsim::workload
