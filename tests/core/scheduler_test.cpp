#include "core/scheduler.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "core/rng.hpp"

namespace ibsim::core {
namespace {

/// Records the order and payloads of events it receives.
class Recorder : public EventHandler {
 public:
  void on_event(Scheduler& sched, const Event& ev) override {
    times.push_back(sched.now());
    kinds.push_back(ev.kind);
    payloads.push_back(ev.a);
  }
  std::vector<Time> times;
  std::vector<std::uint32_t> kinds;
  std::vector<std::uint64_t> payloads;
};

/// Handler that schedules a follow-up event on itself.
class Chainer : public EventHandler {
 public:
  explicit Chainer(int remaining) : remaining_(remaining) {}
  void on_event(Scheduler& sched, const Event&) override {
    ++fired;
    if (--remaining_ > 0) sched.schedule_in(10, this, 0);
  }
  int fired = 0;

 private:
  int remaining_;
};

TEST(Scheduler, HeapAllocatedSchedulersStartOnTheirOwnCacheLine) {
  // The sharded engine allocates one scheduler per shard; each must
  // start a cache line so neighbouring shards never share one.
  std::vector<std::unique_ptr<Scheduler>> shards;
  for (int i = 0; i < 8; ++i) {
    shards.push_back(std::make_unique<Scheduler>());
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(shards.back().get()) % 64, 0u) << "shard " << i;
  }
}

TEST(Scheduler, StartsAtTimeZeroEmpty) {
  Scheduler sched;
  EXPECT_EQ(sched.now(), 0);
  EXPECT_EQ(sched.pending(), 0u);
  EXPECT_EQ(sched.executed(), 0u);
}

TEST(Scheduler, ExecutesInTimeOrder) {
  Scheduler sched;
  Recorder rec;
  sched.schedule_at(30, &rec, 3);
  sched.schedule_at(10, &rec, 1);
  sched.schedule_at(20, &rec, 2);
  sched.run();
  ASSERT_EQ(rec.kinds.size(), 3u);
  EXPECT_EQ(rec.kinds, (std::vector<std::uint32_t>{1, 2, 3}));
  EXPECT_EQ(rec.times, (std::vector<Time>{10, 20, 30}));
}

TEST(Scheduler, TiesBreakByInsertionOrder) {
  Scheduler sched;
  Recorder rec;
  for (std::uint64_t i = 0; i < 100; ++i) sched.schedule_at(42, &rec, 0, i);
  sched.run();
  ASSERT_EQ(rec.payloads.size(), 100u);
  for (std::uint64_t i = 0; i < 100; ++i) EXPECT_EQ(rec.payloads[i], i);
}

TEST(Scheduler, RunUntilStopsAtHorizonInclusive) {
  Scheduler sched;
  Recorder rec;
  sched.schedule_at(10, &rec, 1);
  sched.schedule_at(20, &rec, 2);
  sched.schedule_at(21, &rec, 3);
  const std::uint64_t n = sched.run_until(20);
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(sched.pending(), 1u);
  EXPECT_EQ(sched.now(), 20);
}

TEST(Scheduler, RunUntilAdvancesClockWhenQueueDrains) {
  Scheduler sched;
  Recorder rec;
  sched.schedule_at(5, &rec, 1);
  sched.run_until(1000);
  EXPECT_EQ(sched.now(), 1000);
}

TEST(Scheduler, ResumesAfterHorizon) {
  Scheduler sched;
  Recorder rec;
  sched.schedule_at(10, &rec, 1);
  sched.schedule_at(30, &rec, 2);
  sched.run_until(15);
  EXPECT_EQ(rec.kinds.size(), 1u);
  sched.run_until(40);
  EXPECT_EQ(rec.kinds.size(), 2u);
}

TEST(Scheduler, HandlersCanScheduleDuringExecution) {
  Scheduler sched;
  Chainer chain(5);
  sched.schedule_at(0, &chain, 0);
  sched.run();
  EXPECT_EQ(chain.fired, 5);
  EXPECT_EQ(sched.now(), 40);
}

TEST(Scheduler, StopAbortsTheLoop) {
  class Stopper : public EventHandler {
   public:
    void on_event(Scheduler& sched, const Event&) override {
      ++fired;
      sched.stop();
    }
    int fired = 0;
  };
  Scheduler sched;
  Stopper stopper;
  sched.schedule_at(1, &stopper, 0);
  sched.schedule_at(2, &stopper, 0);
  sched.run();
  EXPECT_EQ(stopper.fired, 1);
  EXPECT_EQ(sched.pending(), 1u);
  // A subsequent run resumes.
  sched.run();
  EXPECT_EQ(stopper.fired, 2);
}

TEST(Scheduler, ClearDropsPendingEvents) {
  Scheduler sched;
  Recorder rec;
  sched.schedule_at(10, &rec, 1);
  sched.clear();
  sched.run();
  EXPECT_TRUE(rec.kinds.empty());
}

TEST(Scheduler, ClearResetsClockAndSequence) {
  // Regression: clear() used to drop the queue but keep now_ and
  // next_seq_, so a reused scheduler aborted on schedule_at(t) for any
  // t below the previous run's end time.
  Scheduler sched;
  Recorder rec;
  sched.schedule_at(500, &rec, 1);
  sched.run();
  ASSERT_EQ(sched.now(), 500);
  sched.clear();
  EXPECT_EQ(sched.now(), 0);
  sched.schedule_at(10, &rec, 2);  // earlier than the previous now_
  sched.run();
  ASSERT_EQ(rec.kinds.size(), 2u);
  EXPECT_EQ(rec.kinds[1], 2u);
  EXPECT_EQ(sched.now(), 10);
  // executed() is the lifetime count and survives clear().
  EXPECT_EQ(sched.executed(), 2u);
}

TEST(Scheduler, NextEventTimePeeksWithoutExecuting) {
  Scheduler sched;
  Recorder rec;
  EXPECT_EQ(sched.next_event_time(), kTimeNever);
  sched.schedule_at(30, &rec, 1);
  sched.schedule_at(10, &rec, 2);
  EXPECT_EQ(sched.next_event_time(), 10);
  EXPECT_EQ(sched.pending(), 2u);  // peek must not pop
  sched.run_until(10);
  EXPECT_EQ(sched.next_event_time(), 30);
  sched.run();
  EXPECT_EQ(sched.next_event_time(), kTimeNever);
}

TEST(Scheduler, ClearResetsExternalEventCount) {
  // The shard engine counts mailbox-drain injections per scheduler; a
  // reused per-shard scheduler must start its replay at zero or the
  // sched.shard.absorbed gauge would leak across runs.
  Scheduler sched;
  EXPECT_EQ(sched.external_events(), 0u);
  sched.note_external_event();
  sched.note_external_event();
  EXPECT_EQ(sched.external_events(), 2u);
  sched.clear();
  EXPECT_EQ(sched.external_events(), 0u);
}

TEST(Scheduler, ClearResetsStopFlag) {
  class Stopper : public EventHandler {
   public:
    void on_event(Scheduler& sched, const Event&) override { sched.stop(); }
  };
  Scheduler sched;
  Stopper stopper;
  Recorder rec;
  sched.schedule_at(1, &stopper, 0);
  sched.run();
  sched.clear();
  sched.schedule_at(1, &rec, 1);
  sched.run();
  EXPECT_EQ(rec.kinds.size(), 1u);
}

TEST(Scheduler, ExecutedCountsAcrossRuns) {
  Scheduler sched;
  Recorder rec;
  for (Time t = 1; t <= 10; ++t) sched.schedule_at(t, &rec, 0);
  sched.run_until(5);
  sched.run_until(10);
  EXPECT_EQ(sched.executed(), 10u);
}

TEST(Scheduler, SchedulingAtCurrentTimeDuringEventWorks) {
  class SameTime : public EventHandler {
   public:
    void on_event(Scheduler& sched, const Event& ev) override {
      ++fired;
      if (ev.kind == 0) sched.schedule_at(sched.now(), this, 1);
    }
    int fired = 0;
  };
  Scheduler sched;
  SameTime handler;
  sched.schedule_at(7, &handler, 0);
  sched.run();
  EXPECT_EQ(handler.fired, 2);
  EXPECT_EQ(sched.now(), 7);
}

TEST(SchedulerDeath, PastSchedulingAborts) {
  Scheduler sched;
  Recorder rec;
  sched.schedule_at(100, &rec, 0);
  sched.run();
  EXPECT_DEATH(sched.schedule_at(50, &rec, 0), "past");
}

TEST(SchedulerDeath, NullTargetAborts) {
  Scheduler sched;
  EXPECT_DEATH(sched.schedule_at(1, nullptr, 0), "target");
}

TEST(Scheduler, LargeRandomBatchStaysSorted) {
  Scheduler sched;
  Recorder rec;
  std::uint64_t state = 99;
  for (int i = 0; i < 10000; ++i) {
    sched.schedule_at(static_cast<Time>(splitmix64(state) % 1000000), &rec, 0);
  }
  sched.run();
  ASSERT_EQ(rec.times.size(), 10000u);
  for (std::size_t i = 1; i < rec.times.size(); ++i) {
    EXPECT_LE(rec.times[i - 1], rec.times[i]);
  }
}

// ---------------------------------------------------------------------------
// Every ordering property must hold whichever tier of the calendar queue
// an event enters. TwoTier schedules from t = 0, inside the wheel horizon
// (the wheel's buckets and the current bucket's overlay); Heap shifts
// every time past the horizon, so each event first enters the queue's
// 4-ary HeapQueue far tier and reaches the wheel by migration.
// ---------------------------------------------------------------------------
enum class EntryTier : std::uint8_t { kTwoTier, kHeap };

/// Twice the wheel horizon as seen from t = 0.
constexpr Time kFarTierOffset =
    2 * static_cast<Time>(CalendarQueue::kNumBuckets) * CalendarQueue::kBucketWidth;

class SchedulerQueueKind : public ::testing::TestWithParam<EntryTier> {
 protected:
  /// Added to every scheduled time of a test.
  [[nodiscard]] Time offset() const {
    return GetParam() == EntryTier::kHeap ? kFarTierOffset : 0;
  }
};

INSTANTIATE_TEST_SUITE_P(BothQueues, SchedulerQueueKind,
                         ::testing::Values(EntryTier::kTwoTier, EntryTier::kHeap),
                         [](const auto& info) {
                           return info.param == EntryTier::kTwoTier ? "TwoTier" : "Heap";
                         });

TEST_P(SchedulerQueueKind, ExecutesInTimeThenInsertionOrder) {
  Scheduler sched;
  Recorder rec;
  sched.schedule_at(offset() + 30, &rec, 0, 4);
  sched.schedule_at(offset() + 10, &rec, 0, 1);
  sched.schedule_at(offset() + 10, &rec, 0, 2);
  sched.schedule_at(offset() + 20, &rec, 0, 3);
  sched.run();
  EXPECT_EQ(rec.payloads, (std::vector<std::uint64_t>{1, 2, 3, 4}));
}

TEST_P(SchedulerQueueKind, MixedHorizonsReplayIdentically) {
  // The same seeded pushes through the scheduler and through a plain
  // HeapQueue: times span from sub-bucket to beyond the calendar horizon,
  // and the scheduler's execution order must be the heap's extraction
  // order, i.e. ascending (time, insertion sequence).
  Scheduler sched;
  Recorder rec;
  HeapQueue heap;
  Rng rng(7);
  for (std::uint64_t i = 0; i < 5000; ++i) {
    // Up to ~286 µs: crosses the 67 µs wheel horizon regularly.
    const Time at = offset() + static_cast<Time>(rng.next_below(1u << 28));
    const std::uint64_t seq = sched.schedule_at(at, &rec, 0, i);
    heap.push(Event{at, seq, &rec, i, 0, 0});
  }
  sched.run();
  std::vector<std::uint64_t> expected;
  for (; !heap.empty(); heap.pop()) expected.push_back(heap.top().a);
  EXPECT_EQ(rec.payloads, expected);
}

TEST_P(SchedulerQueueKind, ChainedSchedulingAdvances) {
  Scheduler sched;
  Chainer chain(1000);
  sched.schedule_at(offset(), &chain, 0);
  sched.run();
  EXPECT_EQ(chain.fired, 1000);
  EXPECT_EQ(sched.executed(), 1000u);
  EXPECT_EQ(sched.now(), offset() + 999 * 10);
}

// ---------------------------------------------------------------------------
// Reserved sequence slots, the collision watch and the per-kind counters
// — the scheduler-side contract the fabric's lazy wakeups and credit
// coalescing are built on.
// ---------------------------------------------------------------------------

TEST_P(SchedulerQueueKind, ReservedSeqKeepsItsSlotInSameTimeTies) {
  // A slot reserved early but scheduled late must still execute at its
  // reserved position: before every same-timestamp event with a higher
  // sequence, even though those were pushed into the queue first.
  Scheduler sched;
  Recorder rec;
  const Time at = offset() + 100;
  sched.schedule_at(at, &rec, 0, 1);
  const std::uint64_t reserved = sched.reserve_seq();
  sched.schedule_at(at, &rec, 0, 3);
  sched.schedule_at(at, &rec, 0, 4);
  sched.schedule_at_reserved(at, reserved, &rec, 0, 2);  // materialize late
  sched.run();
  EXPECT_EQ(rec.payloads, (std::vector<std::uint64_t>{1, 2, 3, 4}));
}

TEST_P(SchedulerQueueKind, ReserveSeqBurnsExactlyOneSequence) {
  // Interleaving reservations must not shift the sequence numbering the
  // surrounding schedule_at calls observe — parity with a run that
  // scheduled a real event in each slot.
  Scheduler sched;
  Recorder rec;
  const std::uint64_t s0 = sched.schedule_at(offset() + 10, &rec, 0);
  const std::uint64_t r0 = sched.reserve_seq();
  const std::uint64_t s1 = sched.schedule_at(offset() + 10, &rec, 0);
  EXPECT_EQ(r0, s0 + 1);
  EXPECT_EQ(s1, r0 + 1);
  sched.run();  // an unmaterialized reservation simply never fires
  EXPECT_EQ(sched.executed(), 2u);
}

TEST(Scheduler, WatchReportsOnlyTheArmedTimestamp) {
  Scheduler sched;
  Recorder rec;
  sched.arm_watch(50);
  EXPECT_FALSE(sched.watch_hit());
  sched.schedule_at(49, &rec, 0);
  sched.schedule_at(51, &rec, 0);
  EXPECT_FALSE(sched.watch_hit());  // near misses do not trip it
  sched.schedule_at(50, &rec, 0);
  EXPECT_TRUE(sched.watch_hit());
  // The hit latches until the watch is re-armed.
  sched.schedule_at(60, &rec, 0);
  EXPECT_TRUE(sched.watch_hit());
  sched.arm_watch(60);
  EXPECT_FALSE(sched.watch_hit());
}

TEST(Scheduler, WatchSeesReservedSlotMaterialization) {
  // schedule_at_reserved must trip the watch like schedule_at: a
  // deferred wakeup landing on the watched timestamp is an observer the
  // credit coalescer has to assume can see the merge window.
  Scheduler sched;
  Recorder rec;
  const std::uint64_t seq = sched.reserve_seq();
  sched.arm_watch(70);
  sched.schedule_at_reserved(70, seq, &rec, 0);
  EXPECT_TRUE(sched.watch_hit());
}

TEST(Scheduler, CurrentSeqMatchesDispatchedEvent) {
  class SeqProbe : public EventHandler {
   public:
    void on_event(Scheduler& sched, const Event& ev) override {
      seen.push_back(sched.current_seq());
      expected.push_back(ev.seq);
    }
    std::vector<std::uint64_t> seen;
    std::vector<std::uint64_t> expected;
  };
  Scheduler sched;
  SeqProbe probe;
  sched.schedule_at(5, &probe, 0);
  (void)sched.reserve_seq();
  sched.schedule_at(5, &probe, 0);
  sched.run();
  EXPECT_EQ(probe.seen, probe.expected);
  ASSERT_EQ(probe.seen.size(), 2u);
  EXPECT_LT(probe.seen[0] + 1, probe.seen[1]);  // the burnt slot shows up
}

TEST(Scheduler, PerKindCountersMapFabricKindsAndOverflow) {
  Scheduler sched;
  Recorder rec;
  sched.schedule_at(1, &rec, 0);      // slot 0: kind-0 driver events
  sched.schedule_at(2, &rec, 2);      // slot 2: a fabric kind
  sched.schedule_at(3, &rec, 2);
  sched.schedule_at(4, &rec, 5);      // slot 5: highest dedicated kind
  sched.schedule_at(5, &rec, 6);      // first aggregated kind
  sched.schedule_at(6, &rec, 0xCC01); // far-off kind, same bucket
  sched.run();
  const auto& by_kind = sched.executed_by_kind();
  EXPECT_EQ(by_kind[0], 1u);
  EXPECT_EQ(by_kind[1], 0u);
  EXPECT_EQ(by_kind[2], 2u);
  EXPECT_EQ(by_kind[5], 1u);
  EXPECT_EQ(by_kind[Scheduler::kKindSlots - 1], 2u);
  std::uint64_t total = 0;
  for (const std::uint64_t n : by_kind) total += n;
  EXPECT_EQ(total, sched.executed());
}

TEST(Scheduler, PerKindCountersSurviveClear) {
  Scheduler sched;
  Recorder rec;
  sched.schedule_at(1, &rec, 3);
  sched.run();
  sched.clear();
  sched.schedule_at(1, &rec, 3);
  sched.run();
  EXPECT_EQ(sched.executed_by_kind()[3], 2u);
  EXPECT_EQ(sched.executed(), 2u);
}

TEST(SchedulerDeath, ReservedSeqMustComeFromReserveSeq) {
  Scheduler sched;
  Recorder rec;
  EXPECT_DEATH(sched.schedule_at_reserved(10, 99, &rec, 0), "reserve");
}

}  // namespace
}  // namespace ibsim::core
