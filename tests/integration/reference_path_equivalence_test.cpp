// The production simulation path against the two reference paths it
// replaced, across the paper's scenario taxonomy. Both references were
// deleted once their results were frozen: the one-event-per-action
// fabric chain (an eager wakeup per link-free, one event per credit
// return) and the plain 4-ary-heap scheduler. The results below are
// their output, captured at the last tree that still ran them, with the
// same compiler and build flags as the golden pins. The A/B checks the
// two suites made while both sides existed now run against that output:
//
//  - FastPathEquivalence: every behavioural field bit-identical to the
//    one-event-per-action chain, strictly fewer events executed, and the
//    saving only in link-free and credit-update events (packet arrivals
//    and sink drains are real work and never elided).
//  - QueueEquivalence: bit-identical to the heap-scheduler run in every
//    field, down to events_executed and the per-kind breakdown.
//
// DESIGN.md §8 and §11 carry the determinism argument.

#include <gtest/gtest.h>

#include <array>
#include <numeric>

#include "fabric/events.hpp"
#include "sim/simulation.hpp"

namespace ibsim::sim {
namespace {

using KindCounts = std::array<std::uint64_t, core::Scheduler::kKindSlots>;

/// A reference path's frozen SimResult. None of the scenarios runs a
/// workload, and every reference run's WorkloadResult was the default.
struct Reference {
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

SimConfig base_config(std::uint64_t seed) {
  SimConfig config;
  config.topology = TopologyKind::FoldedClos;
  config.clos = topo::FoldedClosParams::scaled(4, 2, 3);  // 12 nodes
  config.sim_time = core::kMillisecond;
  config.warmup = 200 * core::kMicrosecond;
  config.seed = seed;
  return config;
}

SimConfig table2_silent_forest() {
  // Table II: silent congestion trees (no background traffic), CC on.
  // Victims answer with CNPs only — the HCA-side wakeup elision's case.
  SimConfig config = base_config(42);
  config.scenario.fraction_b = 0.0;
  config.scenario.n_hotspots = 2;
  return config;
}

SimConfig table2_silent_forest_cc_off() {
  SimConfig config = table2_silent_forest();
  config.cc.enabled = false;
  return config;
}

SimConfig windy_forest_half_p() {
  // Figures 5-8 regime: all background nodes windy with p = 0.5. Busy
  // outputs keep queued work, so eager and elided wakeups interleave.
  SimConfig config = base_config(7);
  config.scenario.fraction_b = 1.0;
  config.scenario.p = 0.5;
  config.scenario.n_hotspots = 2;
  return config;
}

SimConfig moving_hotspots() {
  // Figures 9-10 regime: congestion trees relocate every 200 µs, which
  // nudges idle HCAs (deferred-wakeup materialization) and exercises the
  // calendar queue's far tier (hotspot moves, CCTI timers).
  SimConfig config = base_config(11);
  config.scenario.fraction_b = 0.5;
  config.scenario.p = 0.4;
  config.scenario.n_hotspots = 2;
  config.scenario.hotspot_lifetime = 200 * core::kMicrosecond;
  return config;
}

std::uint64_t kind_sum(const KindCounts& counts) {
  return std::accumulate(counts.begin(), counts.end(), std::uint64_t{0});
}

/// Every behavioural field bit for bit; events are checked by the callers.
void expect_same_behaviour(const SimResult& r, const Reference& ref) {
  EXPECT_EQ(r.hotspot_rcv_gbps, ref.hotspot_rcv_gbps);
  EXPECT_EQ(r.non_hotspot_rcv_gbps, ref.non_hotspot_rcv_gbps);
  EXPECT_EQ(r.all_rcv_gbps, ref.all_rcv_gbps);
  EXPECT_EQ(r.total_throughput_gbps, ref.total_throughput_gbps);
  EXPECT_EQ(r.jain_non_hotspot, ref.jain_non_hotspot);
  EXPECT_EQ(r.median_latency_us, ref.median_latency_us);
  EXPECT_EQ(r.p99_latency_us, ref.p99_latency_us);
  EXPECT_EQ(r.fecn_marked, ref.fecn_marked);
  EXPECT_EQ(r.cnps_sent, ref.cnps_sent);
  EXPECT_EQ(r.becn_received, ref.becn_received);
  EXPECT_EQ(r.delivered_bytes, ref.delivered_bytes);
  EXPECT_EQ(r.delivered_packets, ref.delivered_packets);
  const WorkloadResult none;
  EXPECT_EQ(r.workload.completed, none.completed);
  EXPECT_EQ(r.workload.makespan, none.makespan);
  EXPECT_EQ(r.workload.rank_finish, none.rank_finish);
  EXPECT_EQ(r.workload.phase_finish, none.phase_finish);
  EXPECT_EQ(r.workload.messages_completed, none.messages_completed);
  EXPECT_GT(r.delivered_bytes, 0);  // the scenario actually ran
}

/// The production run against the one-event-per-action chain: same
/// behaviour, strictly fewer events, saved only where elision applies.
void expect_fast_path_equivalent(const SimConfig& config, const Reference& slow) {
  const SimResult fast = run_sim(config);
  expect_same_behaviour(fast, slow);

  EXPECT_LT(fast.events_executed, slow.events_executed);
  EXPECT_EQ(fast.events_by_kind[fabric::kEvPacketArrive],
            slow.events_by_kind[fabric::kEvPacketArrive]);
  EXPECT_EQ(fast.events_by_kind[fabric::kEvSinkFree],
            slow.events_by_kind[fabric::kEvSinkFree]);
  EXPECT_LE(fast.events_by_kind[fabric::kEvLinkFree],
            slow.events_by_kind[fabric::kEvLinkFree]);
  EXPECT_LE(fast.events_by_kind[fabric::kEvCreditUpdate],
            slow.events_by_kind[fabric::kEvCreditUpdate]);

  // The per-kind breakdown accounts for every executed event, both ways.
  EXPECT_EQ(kind_sum(fast.events_by_kind), fast.events_executed);
  EXPECT_EQ(kind_sum(slow.events_by_kind), slow.events_executed);
}

/// The production run against the heap scheduler: identical in every
/// field, down to the executed-event count and its per-kind breakdown.
void expect_queue_equivalent(const SimConfig& config, const Reference& heap) {
  const SimResult two_tier = run_sim(config);
  expect_same_behaviour(two_tier, heap);
  EXPECT_EQ(two_tier.events_executed, heap.events_executed);
  EXPECT_EQ(two_tier.events_by_kind, heap.events_by_kind);
}

TEST(FastPathEquivalence, Table2SilentForest) {
  expect_fast_path_equivalent(
      table2_silent_forest(),
      {0x1.db22d0e560418p+2, 0x1.b43526527a205p+0, 0x1.5421c044284ep+1,
       0x1.fe32a0663c75p+4, 0x1.d1aa986978624p-1, 0x1.d7a125fd84587p+5,
       0x1.cf01696969696p+7, 1268, 999, 999, 3188736, 2053, 38301,
       {0, 11507, 11498, 11493, 3052, 679, 72}});
}

TEST(FastPathEquivalence, Table2SilentForestCcOff) {
  expect_fast_path_equivalent(
      table2_silent_forest_cc_off(),
      {0x1.b328b6d86ec18p+3, 0x1.711947cfa26a2p-2, 0x1.488dc6b5eac15p+1,
       0x1.ecd4aa10e022p+4, 0x1.c6b18e539c6bp-1, 0x1.571d56985ea3cp+7,
       0x1.7f50a7ac29eb1p+8, 0, 0, 0, 3080192, 1988, 24176,
       {0, 7508, 7498, 7170, 1988, 12, 0}});
}

TEST(FastPathEquivalence, WindyForestHalfP) {
  expect_fast_path_equivalent(
      windy_forest_half_p(),
      {0x1.23a29c779a6b5p+3, 0x1.86db50f40e5a3p+1, 0x1.041195e2e41ebp+2,
       0x1.861a60d4562e1p+5, 0x1.f4592e45b6e72p-1, 0x1.b16bb60131877p+5,
       0x1.c61ap+7, 1439, 1083, 1083, 4876288, 3163, 51796,
       {0, 15577, 15573, 15571, 4246, 757, 72}});
}

TEST(FastPathEquivalence, MovingHotspots) {
  expect_fast_path_equivalent(
      moving_hotspots(),
      {0x1.cf56eac860568p+2, 0x1.63baba7b9170ep+2, 0x1.75aa17ddb3ec8p+2,
       0x1.183f91e646f16p+6, 0x1.a4ca7589f1261p-1, 0x1.faff457703668p+5,
       0x1.f1d1dc47711dcp+7, 3593, 2764, 2760, 7006208, 4307, 86433,
       {0, 26255, 26243, 25955, 7067, 836, 77}});
}

TEST(QueueEquivalence, Table2SilentForest) {
  expect_queue_equivalent(
      table2_silent_forest(),
      {0x1.db22d0e560418p+2, 0x1.b43526527a205p+0, 0x1.5421c044284ep+1,
       0x1.fe32a0663c75p+4, 0x1.d1aa986978624p-1, 0x1.d7a125fd84587p+5,
       0x1.cf01696969696p+7, 1268, 999, 999, 3188736, 2053, 33763,
       {0, 11507, 6960, 11493, 3052, 679, 72}});
}

TEST(QueueEquivalence, Table2SilentForestCcOff) {
  expect_queue_equivalent(
      table2_silent_forest_cc_off(),
      {0x1.b328b6d86ec18p+3, 0x1.711947cfa26a2p-2, 0x1.488dc6b5eac15p+1,
       0x1.ecd4aa10e022p+4, 0x1.c6b18e539c6bp-1, 0x1.571d56985ea3cp+7,
       0x1.7f50a7ac29eb1p+8, 0, 0, 0, 3080192, 1988, 23417,
       {0, 7508, 6739, 7170, 1988, 12, 0}});
}

TEST(QueueEquivalence, WindyForestHalfP) {
  expect_queue_equivalent(
      windy_forest_half_p(),
      {0x1.23a29c779a6b5p+3, 0x1.86db50f40e5a3p+1, 0x1.041195e2e41ebp+2,
       0x1.861a60d4562e1p+5, 0x1.f4592e45b6e72p-1, 0x1.b16bb60131877p+5,
       0x1.c61ap+7, 1439, 1083, 1083, 4876288, 3163, 45655,
       {0, 15577, 9432, 15571, 4246, 757, 72}});
}

TEST(QueueEquivalence, MovingHotspots) {
  expect_queue_equivalent(
      moving_hotspots(),
      {0x1.cf56eac860568p+2, 0x1.63baba7b9170ep+2, 0x1.75aa17ddb3ec8p+2,
       0x1.183f91e646f16p+6, 0x1.a4ca7589f1261p-1, 0x1.faff457703668p+5,
       0x1.f1d1dc47711dcp+7, 3593, 2764, 2760, 7006208, 4307, 79034,
       {0, 26255, 18845, 25954, 7067, 836, 77}});
}

}  // namespace
}  // namespace ibsim::sim
