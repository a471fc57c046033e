#pragma once

#include <cstdint>
#include <vector>

#include "ib/types.hpp"
#include "topo/topology.hpp"

namespace ibsim::topo {

/// Deterministic destination-based routing: one linear forwarding table
/// (LFT) per switch, mapping destination NodeId to output port — exactly
/// the "routing using linear forwarding tables" of the paper's model.
///
/// Each switch forwards towards a destination on a shortest path; among
/// equal-length next hops it picks candidate[dst % candidates], the d-mod-k
/// rule that yields the standard non-blocking spreading on fat-trees. HCAs
/// have a single port and are never transit hops, so every HCA on one
/// attachment switch sees the same distance field: compute() runs one BFS
/// per attachment switch over the switch-only graph and shares each
/// switch's candidate list across that switch's HCAs (DESIGN.md §10).
///
/// Storage is one contiguous byte array, stride-indexed by dense switch
/// slot: entry (slot, dst) lives at slot * stride + dst, and kNoRoute marks
/// a destination the switch cannot reach. compute() requires every switch
/// radix to stay below kNoRoute. Sweeps share one RoutingTables across
/// many concurrent runs (see sim::RoutingSnapshot), so lookups walking a
/// destination range stay within one cache-friendly row instead of chasing
/// a per-switch heap allocation.
class RoutingTables {
 public:
  /// How a switch chooses among equal-length next hops.
  enum class TieBreak : std::uint8_t {
    /// candidate[dst %% candidates]: the classic d-mod-k spreading that
    /// balances fat-tree up-paths (the default).
    DModK,
    /// Always the lowest candidate port. With the mesh2d port layout
    /// (X ports before Y ports) this yields dimension-order (XY)
    /// routing, which is deadlock-free on meshes.
    FirstPort,
  };

  /// flat() / lft_row() entry for a destination the switch cannot reach.
  static constexpr std::uint8_t kNoRoute = 0xFF;

  /// Compute LFTs for every switch in `topo`.
  [[nodiscard]] static RoutingTables compute(const Topology& topo,
                                             TieBreak tie_break = TieBreak::DModK);

  /// Output port switch `dev` uses towards end node `dst`, or -1 when
  /// `dst` is unreachable from `dev`.
  [[nodiscard]] std::int32_t out_port(DeviceId dev, ib::NodeId dst) const {
    const std::uint8_t port =
        lft_[static_cast<std::size_t>(switch_slot_[static_cast<std::size_t>(dev)]) * stride_ +
             static_cast<std::size_t>(dst)];
    return port == kNoRoute ? -1 : port;
  }

  /// Pointer to switch `dev`'s row of the flat LFT, indexed by NodeId.
  /// Valid while this RoutingTables is alive; devices on the packet hot
  /// path cache it once instead of re-deriving slot * stride per lookup.
  [[nodiscard]] const std::uint8_t* lft_row(DeviceId dev) const {
    return lft_.data() +
           static_cast<std::size_t>(switch_slot_[static_cast<std::size_t>(dev)]) * stride_;
  }

  /// The flattened LFT storage: switch_count() rows of stride() entries,
  /// row order matching Topology::switches(). Exposed for the golden
  /// determinism tests that pin table contents across storage rewrites.
  [[nodiscard]] const std::vector<std::uint8_t>& flat() const { return lft_; }

  /// Entries per switch row in flat() (the topology's node count).
  [[nodiscard]] std::size_t stride() const { return stride_; }

  /// Number of switch rows in flat().
  [[nodiscard]] std::size_t switch_count() const {
    return stride_ == 0 ? 0 : lft_.size() / stride_;
  }

  /// Follow the tables from `src` to `dst`; returns the sequence of
  /// devices visited (starting with src's device, ending with dst's).
  /// Used by tests and topology debugging.
  [[nodiscard]] std::vector<DeviceId> trace(const Topology& topo, ib::NodeId src,
                                            ib::NodeId dst) const;

  /// Hop count (number of links traversed) from `src` to `dst`.
  [[nodiscard]] std::int32_t hops(const Topology& topo, ib::NodeId src, ib::NodeId dst) const {
    return static_cast<std::int32_t>(trace(topo, src, dst).size()) - 1;
  }

 private:
  std::vector<std::int32_t> switch_slot_;  // DeviceId -> dense switch index
  std::size_t stride_ = 0;                 // entries per switch row (node count)
  std::vector<std::uint8_t> lft_;          // [slot * stride_ + dst] -> port or kNoRoute
};

}  // namespace ibsim::topo
