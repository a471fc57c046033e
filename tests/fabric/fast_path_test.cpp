// Unit tests for the fabric's event economy at the single-device level:
// the lazy-wakeup elision (no kEvLinkFree for an output whose queues
// drained), wakeups kept while work is queued, and coalescing of
// same-(port, vl, time) credit returns. Each scenario pins the exact
// per-kind event counts and the full delivery sequence. The counts were
// captured while the one-event-per-action reference chain still existed
// and delivered the identical sequence; its counts are quoted in the
// comments. Full-simulation pins live in
// tests/integration/golden_pins_test.cpp.

#include <gtest/gtest.h>

#include <vector>

#include "fabric/events.hpp"
#include "fabric_fixture.hpp"
#include "ib/types.hpp"
#include "topo/builders.hpp"

namespace ibsim::fabric::testing {
namespace {

using KindCounts = std::array<std::uint64_t, core::Scheduler::kKindSlots>;

void expect_deliveries(const std::vector<Delivery>& got, const std::vector<Delivery>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].node, want[i].node) << "delivery " << i;
    EXPECT_EQ(got[i].src, want[i].src) << "delivery " << i;
    EXPECT_EQ(got[i].bytes, want[i].bytes) << "delivery " << i;
    EXPECT_EQ(got[i].fecn, want[i].fecn) << "delivery " << i;
    EXPECT_EQ(got[i].injected_at, want[i].injected_at) << "delivery " << i;
    EXPECT_EQ(got[i].at, want[i].at) << "delivery " << i;
  }
}

// One packet across one switch. The switch output drains with the grant,
// so its kEvLinkFree is elided; the source HCA keeps its wakeup (an
// attached source must be re-polled). The reference chain ran one wakeup
// per grant: 2 kEvLinkFree, 7 events in all.
TEST(FastPath, DrainedOutputSchedulesNoWakeup) {
  FabricFixture fx(topo::single_switch(4), ib::CcParams::disabled());
  fx.source(0).add_burst(3, ib::kMtuBytes, 1);
  fx.run();
  expect_deliveries(fx.observer.deliveries, {{3, 0, 2048, false, 0, 1764706}});
  // Arrivals at the switch and the sink HCA, one wakeup, credit returns
  // from both hops, one sink drain.
  EXPECT_EQ(fx.sched.executed_by_kind(), (KindCounts{0, 2, 1, 2, 1, 0, 0}));
  EXPECT_EQ(fx.sched.executed(), 6u);
}

// Fan-in backlog: two sources feed one output faster than the wire
// drains it, so the output's VoQ is non-empty at (almost) every grant
// and real wakeups keep being scheduled — laziness only elides provably
// dead events, it never parks a backlogged port. Only the tail grant
// that drains the VoQ is elided: 23 kEvLinkFree against the reference
// chain's one-per-grant 24 (84 events in all).
TEST(FastPath, BackloggedOutputKeepsEagerWakeups) {
  FabricFixture fx(topo::single_switch(4), ib::CcParams::disabled());
  fx.source(0).add_burst(3, ib::kMtuBytes, 6);
  fx.source(1).add_burst(3, ib::kMtuBytes, 6);
  fx.run();
  std::vector<Delivery> want;
  for (int i = 0; i < 12; ++i) {
    // The two sources alternate at the sink; each injects one paced MTU
    // per 1213630 ps and the sink drains one MTU per 1204706 ps.
    const auto src = static_cast<ib::NodeId>(i % 2);
    const core::Time injected = static_cast<core::Time>(i / 2) * 1213630;
    const core::Time at = 1764706 + static_cast<core::Time>(i) * 1204706;
    want.push_back({3, src, 2048, false, injected, at});
  }
  expect_deliveries(fx.observer.deliveries, want);
  EXPECT_EQ(fx.sched.executed_by_kind(), (KindCounts{0, 24, 23, 24, 12, 0, 0}));
  EXPECT_EQ(fx.sched.executed(), 83u);
}

// Engineered same-instant credit returns: two primer packets of equal
// size seize outputs 2 and 3 at the same arrival instant, while the
// probe source's two equal-size packets wait behind them in input 0's
// VoQs. Both outputs free at the same tick, both grants dequeue from
// input 0, and both credit returns target (HCA 0, VL 0) at the same
// future time — they fuse into one kEvCreditUpdate. The trailing filler
// burst keeps HCA 0's injector busy past the refund instant; coalescing
// only merges into a port that is provably busy through the refund time
// (an idle port could grant there and observe the split).
TEST(FastPath, SameInstantCreditReturnsCoalesce) {
  FabricFixture fx(topo::single_switch(6), ib::CcParams::disabled());
  ScriptedSource& probe = fx.source(0);
  probe.add_burst(1, 256, 1);  // decoy: occupies the injector so the
                               // probes arrive after the primers grant
  probe.add_burst(2, 256, 1);
  probe.add_burst(3, 256, 1);
  probe.add_burst(2, ib::kMtuBytes, 1);  // filler: keeps HCA 0 injecting
                                         // through the probes' credit-return
                                         // instant; parked behind busy output
                                         // 2 so its own credit return is
                                         // scheduled only after the merge
  fx.source(4).add_burst(2, ib::kMtuBytes, 1);  // primer for output 2
  fx.source(5).add_burst(3, ib::kMtuBytes, 1);  // primer for output 3
  fx.run();
  expect_deliveries(fx.observer.deliveries, {{1, 0, 256, false, 0, 710588},
                                             {2, 4, 2048, false, 0, 1764706},
                                             {3, 5, 2048, false, 0, 1764706},
                                             {2, 0, 256, false, 151704, 1915294},
                                             {3, 0, 256, false, 303408, 1915294},
                                             {2, 0, 2048, false, 455112, 3120000}});
  // One credit event per switch dequeue (6) plus one per sink drain (6),
  // less exactly one merge: 11 against the reference chain's 12. The
  // switch outputs' drained wakeups are elided too: 9 kEvLinkFree
  // against 12.
  EXPECT_EQ(fx.sched.executed_by_kind(), (KindCounts{0, 12, 9, 11, 6, 0, 0}));
  EXPECT_EQ(fx.sched.executed(), 38u);
}

}  // namespace
}  // namespace ibsim::fabric::testing
