#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/assert.hpp"
#include "core/time.hpp"

namespace ibsim::ccalg {

/// Open-addressed map from a flow id (a non-negative destination index)
/// to per-flow state `V`. Linear probing over a power-of-two slot array
/// with Fibonacci hashing, so strided destination sets (every k-th node)
/// still spread; erase shifts the rest of the probe chain back, so there
/// are no tombstones and an absent key's probe ends at the first empty
/// slot. The table holds nothing until the first insert and doubles when
/// an insert would take it past half full. References returned by find()
/// and insert() stay valid until the next insert or erase.
template <class V>
class FlowTable {
 public:
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

  [[nodiscard]] V* find(std::int32_t key) {
    if (size_ == 0) return nullptr;
    Slot& s = slots_[probe(key)];
    return s.key == key ? &s.value : nullptr;
  }
  [[nodiscard]] const V* find(std::int32_t key) const {
    return const_cast<FlowTable*>(this)->find(key);
  }

  /// The entry for `key`, value-initialised when it was absent.
  V& insert(std::int32_t key) {
    IBSIM_ASSERT(key >= 0, "flow table keys are non-negative");
    if ((size_ + 1) * 2 > slots_.size()) grow();
    Slot& s = slots_[probe(key)];
    if (s.key != key) {
      s.key = key;
      s.value = V{};
      ++size_;
    }
    return s.value;
  }

  /// Remove `key`; returns whether it was present.
  bool erase(std::int32_t key) {
    if (size_ == 0) return false;
    std::size_t hole = probe(key);
    if (slots_[hole].key != key) return false;
    // Backward-shift: walk the rest of the chain and pull back every
    // entry whose home slot lies cyclically at or before the hole, so
    // the chain stays contiguous from each entry's home.
    for (std::size_t j = (hole + 1) & mask_; slots_[j].key != kEmpty; j = (j + 1) & mask_) {
      const std::size_t home = home_slot(slots_[j].key);
      if (((j - home) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    slots_[hole] = Slot{};
    --size_;
    return true;
  }

  /// Slot index `key` hashes to in the current array (requires
  /// capacity() > 0). Public so tests can build colliding key sets.
  [[nodiscard]] std::size_t home_slot(std::int32_t key) const {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(key)) * 0x9E3779B97F4A7C15ull) >>
        shift_);
  }

 private:
  static constexpr std::int32_t kEmpty = -1;
  static constexpr std::size_t kMinCapacity = 8;

  struct Slot {
    std::int32_t key = kEmpty;
    V value{};
  };

  /// Index of `key`'s slot, or of the empty slot ending its probe chain.
  [[nodiscard]] std::size_t probe(std::int32_t key) const {
    std::size_t i = home_slot(key);
    while (slots_[i].key != key && slots_[i].key != kEmpty) i = (i + 1) & mask_;
    return i;
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    const std::size_t cap = old.empty() ? kMinCapacity : 2 * old.size();
    slots_.assign(cap, Slot{});
    mask_ = cap - 1;
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(cap));
    for (Slot& s : old) {
      if (s.key != kEmpty) slots_[probe(s.key)] = std::move(s);
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
  std::size_t size_ = 0;
};

/// The per-port flow state every throttling reaction point keeps, held
/// sparsely: a FlowTable entry exists only for a flow whose `State` is
/// off its resting value (throttled, or carrying memory such as DCQCN's
/// alpha), or for a just-recovered flow whose paced `ready_at` is still
/// ahead. An absent flow reads as resting with `ready_at` 0 — callers
/// that need a recovered flow's past ready time keep it themselves (the
/// CaCcAgent remembers its last grant). Memory is therefore O(throttled
/// flows), not O(destinations).
///
/// The active list is the recovery timer's visit order: a flow joins it
/// on its first BECN and leaves by swap-remove when it fully recovers,
/// exactly the order the dense per-destination layout produced.
///
/// `State` provides `bool active`, `core::Time ready_at` and
/// `bool at_rest() const` (true when dropping the entry loses nothing
/// but its ready time).
template <class State>
class ThrottledFlows {
 public:
  explicit ThrottledFlows(std::int32_t n_flows) : n_flows_(n_flows) {
    IBSIM_ASSERT(n_flows > 0, "reaction point needs at least one flow slot");
  }

  [[nodiscard]] const State* find(std::int32_t flow) const {
    check(flow);
    return table_.find(flow);
  }

  [[nodiscard]] core::Time ready_at(std::int32_t flow) const {
    const State* s = find(flow);
    return s != nullptr ? s->ready_at : 0;
  }

  /// A packet of `flow` finishes injection at `end`; `delay(state)` is the
  /// gap its throttle inserts. Returns the flow's next-ready time. A
  /// resting, inactive entry is dropped here: its ready time is `end`,
  /// which the caller receives.
  template <class Delay>
  core::Time on_send(std::int32_t flow, core::Time end, Delay&& delay) {
    check(flow);
    State* s = table_.find(flow);
    if (s == nullptr) return end;
    const core::Time ready = end + delay(*s);
    if (!s->active && s->at_rest()) {
      table_.erase(flow);
    } else {
      s->ready_at = ready;
    }
    return ready;
  }

  /// `flow`'s state for a BECN, inserted when absent and put on the
  /// active list when it was not on it (`*newly` reports that).
  State& throttle(std::int32_t flow, bool* newly) {
    check(flow);
    State& s = table_.insert(flow);
    *newly = !s.active;
    if (!s.active) {
      s.active = true;
      active_.push_back(flow);
    }
    return s;
  }

  /// One recovery-timer expiry at `now`. Drops recovered entries whose
  /// ready time has passed, then calls `step(state)` on every active flow
  /// in list order; `step` returns true when the flow fully recovered,
  /// which swap-removes it from the list (and appends it to `ended`).
  template <class Step>
  void on_timer(core::Time now, std::vector<std::int32_t>* ended, Step&& step) {
    std::size_t kept = 0;
    for (const std::int32_t flow : lingering_) {
      const State* s = table_.find(flow);
      if (s == nullptr || s->active) continue;  // resent, or throttled again
      if (s->ready_at <= now) {
        table_.erase(flow);
      } else {
        lingering_[kept++] = flow;
      }
    }
    lingering_.resize(kept);

    for (std::size_t i = 0; i < active_.size();) {
      const std::int32_t flow = active_[i];
      State& s = *table_.find(flow);
      if (!step(s)) {
        ++i;
        continue;
      }
      s.active = false;
      if (s.at_rest()) {
        if (s.ready_at <= now) {
          table_.erase(flow);
        } else {
          lingering_.push_back(flow);
        }
      }
      active_[i] = active_.back();
      active_.pop_back();
      if (ended != nullptr) ended->push_back(flow);
    }
  }

  [[nodiscard]] std::int32_t active_count() const {
    return static_cast<std::int32_t>(active_.size());
  }

 private:
  void check(std::int32_t flow) const {
    IBSIM_ASSERT(flow >= 0 && flow < n_flows_, "flow index out of range");
  }

  std::int32_t n_flows_;
  FlowTable<State> table_;
  /// Flows on the timer's visit list, in visit order.
  std::vector<std::int32_t> active_;
  /// Recovered, resting flows kept only for a ready time still ahead.
  std::vector<std::int32_t> lingering_;
};

}  // namespace ibsim::ccalg
