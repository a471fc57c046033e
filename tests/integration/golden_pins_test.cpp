// Exact golden pins for the production simulation path across the
// paper's scenario taxonomy, plus one application workload and one
// ft3-2k run.
//
// Every behavioural SimResult field is pinned bit for bit (doubles as
// hexfloats), together with events_executed and the full per-kind event
// breakdown. The values were captured while the reference paths (the
// one-event-per-action fabric chain and the plain 4-ary heap scheduler)
// still existed, at a tree where both agreed with the production path on
// every behavioural field; the pins therefore carry those references'
// verdict forward (DESIGN.md §8, §11). The simulator is deterministic
// down to the bit: integer-picosecond time, IEEE-754 doubles without FMA
// contraction in generic builds, and no std::random.
//
// On a mismatch the test prints the run's actual pins in initializer
// form. Only paste them back after confirming the behaviour change was
// intended, and record the re-capture in CHANGES.md.

#include <gtest/gtest.h>

#include <array>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "sim/simulation.hpp"

namespace ibsim::sim {
namespace {

using KindCounts = std::array<std::uint64_t, core::Scheduler::kKindSlots>;

struct Pins {
  double hotspot_rcv_gbps;
  double non_hotspot_rcv_gbps;
  double all_rcv_gbps;
  double total_throughput_gbps;
  double jain_non_hotspot;
  double median_latency_us;
  double p99_latency_us;
  std::uint64_t fecn_marked;
  std::uint64_t cnps_sent;
  std::uint64_t becn_received;
  std::int64_t delivered_bytes;
  std::uint64_t delivered_packets;
  std::uint64_t events_executed;
  KindCounts events_by_kind;
};

std::string format_pins(const SimResult& r) {
  char buf[1024];
  std::snprintf(buf, sizeof buf,
                "{%a, %a, %a,\n %a, %a, %a,\n %a, %" PRIu64 ", %" PRIu64 ", %" PRIu64
                ", %" PRId64 ", %" PRIu64 ", %" PRIu64 ",\n {%" PRIu64 ", %" PRIu64
                ", %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64 "}}",
                r.hotspot_rcv_gbps, r.non_hotspot_rcv_gbps, r.all_rcv_gbps,
                r.total_throughput_gbps, r.jain_non_hotspot, r.median_latency_us,
                r.p99_latency_us, r.fecn_marked, r.cnps_sent, r.becn_received,
                r.delivered_bytes, r.delivered_packets, r.events_executed,
                r.events_by_kind[0], r.events_by_kind[1], r.events_by_kind[2],
                r.events_by_kind[3], r.events_by_kind[4], r.events_by_kind[5],
                r.events_by_kind[6]);
  return buf;
}

void expect_pinned(const SimResult& r, const Pins& p) {
  // Bitwise comparisons on purpose: EXPECT_DOUBLE_EQ's 4-ULP slack would
  // hide a real behaviour change.
  EXPECT_EQ(r.hotspot_rcv_gbps, p.hotspot_rcv_gbps);
  EXPECT_EQ(r.non_hotspot_rcv_gbps, p.non_hotspot_rcv_gbps);
  EXPECT_EQ(r.all_rcv_gbps, p.all_rcv_gbps);
  EXPECT_EQ(r.total_throughput_gbps, p.total_throughput_gbps);
  EXPECT_EQ(r.jain_non_hotspot, p.jain_non_hotspot);
  EXPECT_EQ(r.median_latency_us, p.median_latency_us);
  EXPECT_EQ(r.p99_latency_us, p.p99_latency_us);
  EXPECT_EQ(r.fecn_marked, p.fecn_marked);
  EXPECT_EQ(r.cnps_sent, p.cnps_sent);
  EXPECT_EQ(r.becn_received, p.becn_received);
  EXPECT_EQ(r.delivered_bytes, p.delivered_bytes);
  EXPECT_EQ(r.delivered_packets, p.delivered_packets);
  EXPECT_EQ(r.events_executed, p.events_executed);
  EXPECT_EQ(r.events_by_kind, p.events_by_kind);
  EXPECT_GT(r.delivered_bytes, 0);  // the scenario actually ran
  if (::testing::Test::HasFailure()) ADD_FAILURE() << "actual pins:\n" << format_pins(r);
}

SimConfig small_clos(std::uint64_t seed) {
  SimConfig config;
  config.topology = TopologyKind::FoldedClos;
  config.clos = topo::FoldedClosParams::scaled(4, 2, 3);  // 12 nodes
  config.sim_time = core::kMillisecond;
  config.warmup = 200 * core::kMicrosecond;
  config.seed = seed;
  return config;
}

TEST(GoldenPins, Table2SilentForest) {
  // Table II: silent congestion trees (no background traffic), CC on.
  // Victims answer with CNPs only — the HCA-side wakeup elision's case.
  SimConfig config = small_clos(42);
  config.scenario.fraction_b = 0.0;
  config.scenario.n_hotspots = 2;
  expect_pinned(run_sim(config),
                {0x1.db22d0e560418p+2, 0x1.b43526527a205p+0, 0x1.5421c044284ep+1,
                 0x1.fe32a0663c75p+4, 0x1.d1aa986978624p-1, 0x1.d7a125fd84587p+5,
                 0x1.cf01696969696p+7, 1268, 999, 999, 3188736, 2053, 33763,
                 {0, 11507, 6960, 11493, 3052, 679, 72}});
}

TEST(GoldenPins, Table2SilentForestCcOff) {
  SimConfig config = small_clos(42);
  config.scenario.fraction_b = 0.0;
  config.scenario.n_hotspots = 2;
  config.cc.enabled = false;
  expect_pinned(run_sim(config),
                {0x1.b328b6d86ec18p+3, 0x1.711947cfa26a2p-2, 0x1.488dc6b5eac15p+1,
                 0x1.ecd4aa10e022p+4, 0x1.c6b18e539c6bp-1, 0x1.571d56985ea3cp+7,
                 0x1.7f50a7ac29eb1p+8, 0, 0, 0, 3080192, 1988, 23417,
                 {0, 7508, 6739, 7170, 1988, 12, 0}});
}

TEST(GoldenPins, WindyForestHalfP) {
  // Figures 5-8 regime: all background nodes windy with p = 0.5. Busy
  // outputs keep queued work, so eager and elided wakeups interleave.
  SimConfig config = small_clos(7);
  config.scenario.fraction_b = 1.0;
  config.scenario.p = 0.5;
  config.scenario.n_hotspots = 2;
  expect_pinned(run_sim(config),
                {0x1.23a29c779a6b5p+3, 0x1.86db50f40e5a3p+1, 0x1.041195e2e41ebp+2,
                 0x1.861a60d4562e1p+5, 0x1.f4592e45b6e72p-1, 0x1.b16bb60131877p+5,
                 0x1.c61ap+7, 1439, 1083, 1083, 4876288, 3163, 45655,
                 {0, 15577, 9432, 15571, 4246, 757, 72}});
}

TEST(GoldenPins, MovingHotspots) {
  // Figures 9-10 regime: congestion trees relocate every 200 µs, which
  // nudges idle HCAs (deferred-wakeup materialization) and exercises the
  // calendar queue's far tier (hotspot moves, CCTI timers).
  SimConfig config = small_clos(11);
  config.scenario.fraction_b = 0.5;
  config.scenario.p = 0.4;
  config.scenario.n_hotspots = 2;
  config.scenario.hotspot_lifetime = 200 * core::kMicrosecond;
  expect_pinned(run_sim(config),
                {0x1.cf56eac860568p+2, 0x1.63baba7b9170ep+2, 0x1.75aa17ddb3ec8p+2,
                 0x1.183f91e646f16p+6, 0x1.a4ca7589f1261p-1, 0x1.faff457703668p+5,
                 0x1.f1d1dc47711dcp+7, 3593, 2764, 2760, 7006208, 4307, 79034,
                 {0, 26255, 18845, 25954, 7067, 836, 77}});
}

TEST(GoldenPins, IncastWorkload) {
  // Application layer: an 8-rank incast over a two-level clos with
  // uniform background senders, so dependency-gated injection and the
  // delivery observer chain run under congestion.
  SimConfig config;
  config.topology = TopologyKind::FoldedClos;
  config.clos = topo::FoldedClosParams::scaled(6, 3, 4);
  config.workload.name = "incast";
  config.workload.ranks = 8;
  config.workload.message_bytes = 64 * 1024;
  config.workload.iterations = 2;
  config.sim_time = 5 * core::kMillisecond;
  config.warmup = 0;
  const SimResult r = run_sim(config);
  expect_pinned(r,
                {0x1.94daedf7bfbfap+2, 0x1.706e272507f74p+2, 0x1.7c92696b453a3p+2,
                 0x1.1d6dcf1073ebap+7, 0x1.ff816de740b63p-1, 0x1.5032e4d879ec4p+5,
                 0x1.98421b490739p+7, 15485, 13651, 13647, 89196544, 43553, 620965,
                 {0, 216169, 122672, 216091, 57200, 8097, 736}});
  EXPECT_TRUE(r.workload.completed);
  EXPECT_EQ(r.workload.messages_completed, 14u);
  EXPECT_EQ(r.workload.messages_total, 14u);
  EXPECT_EQ(r.workload.makespan, 1389580272);
  EXPECT_EQ(r.workload.phase_finish, (std::vector<core::Time>{705852250, 1389580272}));
  EXPECT_EQ(r.workload.rank_finish,
            (std::vector<core::Time>{1389580272, 1015461692, 1029918164, 1013052280,
                                     1389580272, 1373858860, 1378978860, 1384098860}));
}

TEST(GoldenPins, FatTree3Scale2kWindy) {
  // 2048-endpoint three-tier fat-tree, windy forest: lights up every
  // arbitration mask and the arena at the scale the CI smoke job runs.
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
  expect_pinned(run_sim(config),
                {0x1.b328b6d86ec18p+3, 0x1.8ddd47f8743e3p-1, 0x1.94467381d7dc4p-1,
                 0x1.94467381d7dc4p+10, 0x1.3872fcfd608c8p-1, 0x1.1a171bdc99674p+6,
                 0x1.34fc9cfbdf354p+7, 31959, 13431, 13217, 20213760, 15123, 569261,
                 {0, 210547, 152636, 170062, 28340, 2048, 5628}});
}

}  // namespace
}  // namespace ibsim::sim
