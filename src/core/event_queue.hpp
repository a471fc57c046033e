#pragma once

#include <cstdint>
#include <vector>

#include "core/event.hpp"
#include "core/time.hpp"

namespace ibsim::core {

/// 4-ary min-heap of events ordered by (time, insertion sequence): the
/// calendar queue's far-future tier and same-bucket overlay. The wider
/// fan-out halves the tree depth of a binary heap and keeps sift paths
/// within fewer cache lines.
class HeapQueue {
 public:
  [[nodiscard]] std::size_t size() const { return heap_.size(); }
  [[nodiscard]] bool empty() const { return heap_.empty(); }

  /// Minimum event by (at, seq); undefined when empty.
  [[nodiscard]] const Event& top() const { return heap_.front(); }

  void push(const Event& ev);
  void pop();
  void clear() { heap_.clear(); }

 private:
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);

  std::vector<Event> heap_;
};

/// Two-tier pending-event set: a calendar wheel of fixed-width buckets
/// covering the near future, backed by a HeapQueue for events beyond the
/// wheel horizon.
///
/// The busy-fabric event mix (`kEvLinkFree`, `kEvPacketArrive`,
/// `kEvCreditUpdate`, `kEvSinkFree`) schedules within a few
/// link-serialization times of `now` (an MTU at 16 Gb/s serializes in
/// ~1 us), so nearly every hot-path event lands in the wheel, where push
/// is an O(1) append and pop is an amortized O(1) walk of a sorted
/// bucket. Far-future events (CCTI timers at ~150 us, hotspot
/// relocations at ms scale) overflow into the heap and migrate into
/// their bucket when the wheel reaches them.
///
/// Determinism contract: extraction order is exactly ascending (at, seq)
/// — identical to a plain HeapQueue over the same pushes (checked by
/// CalendarQueue.MatchesHeapOnRandomWorkload) — because every
/// bucket is sorted by (at, seq) before it drains, migrated heap events
/// join the bucket before that sort, and same-bucket insertions made
/// while the bucket drains go through a (at, seq)-ordered overlay heap
/// that is merged on extraction.
class CalendarQueue {
 public:
  /// Bucket width of 2^16 ps ~= 65.5 ns: an MTU serialization spans ~16
  /// buckets, so concurrent link events spread instead of piling into
  /// one bucket.
  static constexpr int kBucketBits = 16;
  static constexpr Time kBucketWidth = Time{1} << kBucketBits;
  /// 1024 buckets -> ~67 us horizon; comfortably past every
  /// link-layer delay yet small enough that a full rotation of empty
  /// buckets is a trivial scan.
  static constexpr std::size_t kNumBuckets = 1024;

  CalendarQueue() : buckets_(kNumBuckets) {}

  [[nodiscard]] std::size_t size() const {
    return wheel_count_ + overlay_.size() + far_.size();
  }
  [[nodiscard]] bool empty() const { return size() == 0; }

  void push(const Event& ev);

  /// Minimum pending event by (at, seq), or nullptr when empty. Lazily
  /// advances the wheel (migrating + sorting buckets), which is why this
  /// is non-const; simulation time is not affected.
  [[nodiscard]] const Event* peek();

  /// Remove the event returned by the immediately preceding peek().
  void pop();

  void clear();

 private:
  /// Advance to the next bucket that can hold the earliest event:
  /// one step forward when the wheel still holds events, or a direct
  /// jump to the heap-top's bucket when it does not. Migrates heap
  /// events that fall inside the new bucket, then sorts it.
  void advance();

  [[nodiscard]] Time horizon() const {
    return base_ + static_cast<Time>(kNumBuckets) * kBucketWidth;
  }

  std::vector<std::vector<Event>> buckets_;
  std::size_t cur_ = 0;          ///< index of the bucket starting at base_
  std::size_t pos_ = 0;          ///< drain position within buckets_[cur_]
  Time base_ = 0;                ///< start time of the current bucket
  std::size_t wheel_count_ = 0;  ///< undrained events across all buckets
  bool front_in_overlay_ = false;  ///< where the last peek() found the min
  HeapQueue overlay_;  ///< current-bucket insertions made while it drains
  HeapQueue far_;      ///< events at or beyond the wheel horizon
};

}  // namespace ibsim::core
