#include "sim/sim_config.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "sim/experiment.hpp"

namespace ibsim::sim {
namespace {

TEST(SimConfig, NodeCountPerTopology) {
  SimConfig config;
  config.topology = TopologyKind::FoldedClos;
  EXPECT_EQ(config.node_count(), 648);
  config.topology = TopologyKind::SingleSwitch;
  config.single_switch_nodes = 12;
  EXPECT_EQ(config.node_count(), 12);
  config.topology = TopologyKind::LinearChain;
  config.chain_switches = 3;
  config.chain_nodes_per_switch = 4;
  EXPECT_EQ(config.node_count(), 12);
  config.topology = TopologyKind::Dumbbell;
  config.dumbbell_nodes_per_side = 5;
  EXPECT_EQ(config.node_count(), 10);
}

TEST(SimConfig, DescribeMentionsKeyFacts) {
  SimConfig config;
  const std::string desc = config.describe();
  EXPECT_NE(desc.find("folded-clos"), std::string::npos);
  EXPECT_NE(desc.find("648"), std::string::npos);
  EXPECT_NE(desc.find("CC on"), std::string::npos);
  EXPECT_NE(desc.find("iba_a10"), std::string::npos);
}

TEST(SimConfig, DescribeNamesTheSelectedAlgorithm) {
  SimConfig config;
  config.cc_algo = "dcqcn";
  EXPECT_NE(config.describe().find("CC on (dcqcn)"), std::string::npos);
  config.cc.enabled = false;
  EXPECT_NE(config.describe().find("CC off"), std::string::npos);
  EXPECT_EQ(config.describe().find("dcqcn"), std::string::npos);
}

TEST(SimConfig, TopologyNames) {
  EXPECT_STREQ(topology_name(TopologyKind::SingleSwitch), "single-switch");
  EXPECT_STREQ(topology_name(TopologyKind::FoldedClos), "folded-clos");
  EXPECT_STREQ(topology_name(TopologyKind::LinearChain), "linear-chain");
  EXPECT_STREQ(topology_name(TopologyKind::Dumbbell), "dumbbell");
}

TEST(SimConfig, DefaultsMatchPaperSetup) {
  SimConfig config;
  EXPECT_EQ(config.clos.node_count(), 648);
  EXPECT_TRUE(config.cc.enabled);
  EXPECT_EQ(config.cc.ccti_timer, 150);
  EXPECT_DOUBLE_EQ(config.fabric.hca_inject_gbps, 13.5);
  EXPECT_DOUBLE_EQ(config.fabric.hca_drain_gbps, 13.6);
}

TEST(ExperimentPreset, QuickScalesLoopConsistently) {
  const ExperimentPreset quick = ExperimentPreset::quick();
  const ExperimentPreset paper = ExperimentPreset::paper();
  // The quick preset's CCTI loop runs 4x faster...
  EXPECT_EQ(quick.ccti_increase, 4 * paper.ccti_increase);
  EXPECT_NEAR(static_cast<double>(paper.ccti_timer) / quick.ccti_timer, 4.0, 0.1);
  // ...and its lifetime axis is compressed by the same factor.
  ASSERT_EQ(quick.lifetimes.size(), paper.lifetimes.size());
  for (std::size_t i = 0; i < quick.lifetimes.size(); ++i) {
    EXPECT_EQ(paper.lifetimes[i], 4 * quick.lifetimes[i]);
  }
}

TEST(ExperimentPreset, PaperUsesTable1Values) {
  const ExperimentPreset paper = ExperimentPreset::paper();
  EXPECT_EQ(paper.ccti_increase, 1);
  EXPECT_EQ(paper.ccti_timer, 150);
  const SimConfig config = paper.base_config();
  EXPECT_EQ(config.cc.ccti_increase, 1);
  EXPECT_EQ(config.cc.ccti_limit, 127);
}

TEST(ExperimentPreset, BaseConfigCarriesTiming) {
  ExperimentPreset preset = ExperimentPreset::quick();
  preset.seed = 77;
  const SimConfig config = preset.base_config();
  EXPECT_EQ(config.sim_time, preset.static_sim_time);
  EXPECT_EQ(config.warmup, preset.static_warmup);
  EXPECT_EQ(config.seed, 77u);
  EXPECT_EQ(config.topology, TopologyKind::FoldedClos);
}

TEST(ExperimentPreset, PValuesCoverPaperAxis) {
  const ExperimentPreset preset = ExperimentPreset::quick();
  ASSERT_FALSE(preset.p_values.empty());
  EXPECT_DOUBLE_EQ(preset.p_values.front(), 0.0);
  EXPECT_DOUBLE_EQ(preset.p_values.back(), 1.0);
}

TEST(SimConfigValidate, ShippedConfigsAreValid) {
  EXPECT_EQ(validate(SimConfig{}), "");
  EXPECT_EQ(validate(ExperimentPreset::quick().base_config()), "");
  SimConfig ft3;
  ft3.topology = TopologyKind::FatTree3;
  for (const auto& shape : {topo::FatTree3Params::scale_2k(), topo::FatTree3Params::scale_10k()}) {
    ft3.fat_tree3 = shape;
    EXPECT_EQ(validate(ft3), "");
  }
}

TEST(SimConfigValidate, HotspotCountMustFitTheNodeCount) {
  // The config-file case: a small topology that leaves hotspots at 8.
  SimConfig config;
  config.topology = TopologyKind::SingleSwitch;
  config.single_switch_nodes = 4;
  const std::string err = validate(config);
  EXPECT_NE(err.find("hotspots 8"), std::string::npos) << err;
  EXPECT_NE(err.find("4 nodes"), std::string::npos) << err;
  config.scenario.n_hotspots = 4;
  EXPECT_EQ(validate(config), "");
  config.scenario.n_hotspots = -1;
  EXPECT_NE(validate(config), "");
  // A workload replaces the scenario, so its hotspot count is unused.
  config.scenario.n_hotspots = 8;
  config.workload.name = "incast";
  EXPECT_EQ(validate(config), "");
}

TEST(SimConfigValidate, RejectsWhatTheBuildersAndFabricAssertOn) {
  const auto invalid = [](auto mutate) {
    SimConfig config;
    config.topology = TopologyKind::SingleSwitch;
    config.scenario.n_hotspots = 1;
    mutate(config);
    return !validate(config).empty();
  };
  EXPECT_TRUE(invalid([](SimConfig& c) { c.single_switch_nodes = 1; }));
  EXPECT_TRUE(invalid([](SimConfig& c) { c.single_switch_nodes = 65; }));  // radix
  EXPECT_TRUE(invalid([](SimConfig& c) {
    c.topology = TopologyKind::FoldedClos;
    c.clos.spines = 0;
  }));
  EXPECT_TRUE(invalid([](SimConfig& c) {
    c.topology = TopologyKind::FatTree3;
    c.fat_tree3.pods = 40;  // core radix 40 x 2
  }));
  EXPECT_TRUE(invalid([](SimConfig& c) {
    c.topology = TopologyKind::Mesh2D;
    c.mesh_rows = 1;
    c.mesh_cols = 1;
  }));
  EXPECT_TRUE(invalid([](SimConfig& c) {
    c.topology = TopologyKind::Mesh2D;
    c.mesh_rows = 1 << 20;
    c.mesh_cols = 1 << 20;  // more nodes than an int32 holds
  }));
  EXPECT_TRUE(invalid([](SimConfig& c) { c.scenario.fraction_b = 1.5; }));
  EXPECT_TRUE(invalid([](SimConfig& c) { c.scenario.fraction_c_of_rest = 2.0; }));
  EXPECT_TRUE(invalid([](SimConfig& c) { c.scenario.p = std::nan(""); }));
  EXPECT_TRUE(invalid([](SimConfig& c) { c.sim_time = 0; }));
  EXPECT_TRUE(invalid([](SimConfig& c) { c.warmup = -1; }));
  EXPECT_TRUE(invalid([](SimConfig& c) { c.fabric.n_vls = 0; }));
  EXPECT_TRUE(invalid([](SimConfig& c) { c.cc.ccti_timer = 0; }));
  EXPECT_TRUE(invalid([](SimConfig& c) { c.cc.cct_base = 1.0; }));
  EXPECT_TRUE(invalid([](SimConfig& c) { c.cc_algo = "bogus"; }));
  EXPECT_TRUE(invalid([](SimConfig& c) { c.telemetry.trace_categories = "cc,bogus"; }));
  EXPECT_TRUE(invalid([](SimConfig& c) {
    c.telemetry.counters_csv = "c.csv";
    c.telemetry.sample_interval = 0;
  }));
  EXPECT_TRUE(invalid([](SimConfig& c) { c.workload.name = "bogus"; }));
  EXPECT_TRUE(invalid([](SimConfig& c) { c.workload.name = "file"; }));
  EXPECT_TRUE(invalid([](SimConfig& c) {
    c.workload.name = "file";
    c.workload.file = "/nonexistent/ibsim.wl";
  }));
  EXPECT_TRUE(invalid([](SimConfig& c) {
    c.workload.name = "incast";
    c.workload.ranks = 9;  // 8 nodes
  }));
  EXPECT_TRUE(invalid([](SimConfig& c) {
    c.workload.name = "incast";
    c.workload.ranks = 1;
  }));
  EXPECT_TRUE(invalid([](SimConfig& c) {
    c.workload.name = "incast";
    c.workload.message_bytes = 0;
  }));
  EXPECT_FALSE(invalid([](SimConfig&) {}));
}

}  // namespace
}  // namespace ibsim::sim
