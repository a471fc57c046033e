#include "sim/sweep.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "sim/experiment.hpp"
#include "store/key.hpp"
#include "store/serialize.hpp"

namespace ibsim::sim {
namespace {

SimConfig tiny_base() {
  SimConfig config;
  config.topology = TopologyKind::SingleSwitch;
  config.single_switch_nodes = 6;
  config.sim_time = 200 * core::kMicrosecond;
  config.warmup = 0;
  config.scenario.n_hotspots = 1;
  return config;
}

std::string expand_error(const SimConfig& base, const std::vector<SweepAxis>& axes) {
  std::vector<SweepCell> cells;
  const std::string err = expand_sweep(base, axes, &cells);
  EXPECT_TRUE(err.empty() || cells.empty()) << "a failed expansion leaves no cells";
  return err;
}

TEST(SweepRequest, ExpandsCartesianProductRowMajor) {
  const std::vector<SweepAxis> axes = {{"cc_enabled", {"0", "1"}}, {"seed", {"1", "2", "3"}}};
  std::vector<SweepCell> cells;
  ASSERT_EQ(expand_sweep(tiny_base(), axes, &cells), "");
  ASSERT_EQ(cells.size(), 6u);
  // Last axis varies fastest.
  EXPECT_EQ(cells[0].values, (std::vector<std::string>{"0", "1"}));
  EXPECT_EQ(cells[1].values, (std::vector<std::string>{"0", "2"}));
  EXPECT_EQ(cells[3].values, (std::vector<std::string>{"1", "1"}));
  EXPECT_FALSE(cells[0].config.cc.enabled);
  EXPECT_TRUE(cells[5].config.cc.enabled);
  EXPECT_EQ(cells[5].config.seed, 3u);
  // The base reaches every cell, and each cell carries its store key.
  for (const SweepCell& cell : cells) {
    EXPECT_EQ(cell.config.scenario.n_hotspots, 1);
    EXPECT_EQ(cell.run_key, store::run_key(cell.config));
  }
}

TEST(SweepRequest, AxisOverridesBaseAndErrorsPropagate) {
  SimConfig base = tiny_base();
  base.seed = 9;
  std::vector<SweepCell> cells;
  ASSERT_EQ(expand_sweep(base, {{"seed", {"1", "2"}}}, &cells), "");
  EXPECT_EQ(cells[0].config.seed, 1u);
  EXPECT_EQ(cells[1].config.seed, 2u);

  // Unknown keys and bad values get the config parser's diagnostic, with
  // the axis as its line number and did-you-mean included.
  const std::string typo = expand_error(base, {{"hotspost", {"1"}}});
  EXPECT_NE(typo.find("line 1: unknown key 'hotspost'"), std::string::npos) << typo;
  EXPECT_NE(typo.find("did you mean 'hotspots'"), std::string::npos) << typo;
  const std::string bad = expand_error(base, {{"seed", {"1"}}, {"fraction_b", {"half"}}});
  EXPECT_NE(bad.find("line 2: expected a number for 'fraction_b'"), std::string::npos) << bad;
}

TEST(SweepRequest, AxislessRequestIsOneCell) {
  SimConfig base = tiny_base();
  base.seed = 5;
  std::vector<SweepCell> cells;
  ASSERT_EQ(expand_sweep(base, {}, &cells), "");
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_TRUE(cells[0].values.empty());
  EXPECT_EQ(cells[0].config.seed, 5u);
}

TEST(Sweep, ParsesAxisArguments) {
  SweepAxis axis;
  ASSERT_EQ(parse_sweep_axis("p_percent=0,50,100", &axis), "");
  EXPECT_EQ(axis.key, "p_percent");
  EXPECT_EQ(axis.values, (std::vector<std::string>{"0", "50", "100"}));
  for (const char* bad : {"seed", "=1,2", "seed=", "seed=1,,2", "seed=1,"}) {
    EXPECT_NE(parse_sweep_axis(bad, &axis), "") << bad;
  }
}

TEST(Sweep, RejectsInputsThatCouldOnlyWasteOrRace) {
  const SimConfig base = tiny_base();
  EXPECT_NE(expand_error(base, {{"seed", {}}}).find("no values"), std::string::npos);
  EXPECT_NE(expand_error(base, {{"seed", {"1"}}, {"cc_enabled", {"0"}}, {"seed", {"2"}}})
                .find("given twice"),
            std::string::npos);
  EXPECT_NE(expand_error(base, {{"threads", {"1", "2"}}}).find("--threads"), std::string::npos);
  EXPECT_NE(expand_error(base, {{"result_store", {"a"}}}).find("--result-store"),
            std::string::npos);
  // A repeated value, in any spelling the config parser reads as equal.
  EXPECT_NE(expand_error(base, {{"seed", {"1", "2", "1"}}}).find("same run as cell 'seed=1'"),
            std::string::npos);
  EXPECT_NE(expand_error(base, {{"p_percent", {"50", "50.0"}}}).find("same run"),
            std::string::npos);
  // Every cell would write the same side file.
  EXPECT_NE(expand_error(base, {{"counters_csv", {"c.csv"}}}).find("counters_csv"),
            std::string::npos);
  SimConfig traced = base;
  traced.telemetry.trace_path = "t.json";
  EXPECT_NE(expand_error(traced, {}).find("trace_file"), std::string::npos);
}

TEST(Sweep, ValidatesEveryCellBeforeRunning) {
  // The last cell cannot run; the expansion fails as a whole.
  const std::string err = expand_error(tiny_base(), {{"hotspots", {"1", "2", "9"}}});
  EXPECT_NE(err.find("cell 'hotspots=9'"), std::string::npos) << err;
  EXPECT_NE(err.find("6 nodes"), std::string::npos) << err;
}

TEST(Sweep, RowsEqualRunParallelOnHandBuiltConfigsBitForBit) {
  const std::vector<SweepAxis> axes = {{"cc_enabled", {"0", "1"}}, {"seed", {"1", "2"}}};
  std::vector<SweepCell> cells;
  ASSERT_EQ(expand_sweep(tiny_base(), axes, &cells), "");
  std::vector<SimConfig> swept;
  std::vector<SimConfig> by_hand;
  for (const bool cc : {false, true}) {
    for (const std::uint64_t seed : {1u, 2u}) {
      SimConfig config = tiny_base();
      config.cc.enabled = cc;
      config.seed = seed;
      by_hand.push_back(config);
    }
  }
  for (const SweepCell& cell : cells) swept.push_back(cell.config);
  const std::vector<SimResult> got = run_parallel(swept, 2);
  const std::vector<SimResult> want = run_parallel(by_hand, 2);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(store::canonical_config_text(swept[i]), store::canonical_config_text(by_hand[i]));
    EXPECT_EQ(store::serialize_result(got[i]), store::serialize_result(want[i])) << i;
  }

  // The printed rows parse back to the hand-built results exactly.
  std::istringstream csv(sweep_table(axes, cells, got).render_csv());
  std::string line;
  std::getline(csv, line);
  EXPECT_EQ(line.rfind("cc_enabled,seed,run_key,hotspot_rcv_gbps,", 0), 0u) << line;
  for (const SimResult& r : want) {
    ASSERT_TRUE(std::getline(csv, line));
    std::vector<std::string> f;
    std::istringstream fields(line);
    for (std::string field; std::getline(fields, field, ',');) f.push_back(field);
    ASSERT_EQ(f.size(), 14u) << line;
    const double doubles[] = {r.hotspot_rcv_gbps, r.non_hotspot_rcv_gbps, r.all_rcv_gbps,
                              r.total_throughput_gbps, r.jain_non_hotspot,
                              r.median_latency_us, r.p99_latency_us};
    for (std::size_t d = 0; d < 7; ++d) {
      EXPECT_EQ(std::strtod(f[3 + d].c_str(), nullptr), doubles[d]) << f[3 + d];
    }
    EXPECT_EQ(f[10], std::to_string(r.fecn_marked));
    EXPECT_EQ(f[13], std::to_string(r.events_executed));
  }
  EXPECT_FALSE(std::getline(csv, line));
}

}  // namespace
}  // namespace ibsim::sim
