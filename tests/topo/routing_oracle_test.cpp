// RoutingTables::compute runs one BFS per attachment switch over the
// switch-only graph. This test keeps the original formulation — one BFS
// per destination HCA over every device, candidates re-derived per
// (destination, switch) — as the reference, and requires the byte LFT to
// match it entry for entry, through both flat() and out_port(), on every
// builder the simulator ships plus two hand-built corner cases.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <vector>

#include "topo/builders.hpp"
#include "topo/routing.hpp"

namespace ibsim::topo {
namespace {

/// The per-destination BFS: for each destination HCA, BFS over all
/// devices, then every reachable switch picks among its ports (in port
/// order) whose peer is one hop closer. Rows follow Topology::switches();
/// -1 marks an unreachable destination.
std::vector<std::int32_t> oracle_lft(const Topology& topo, RoutingTables::TieBreak tie_break) {
  const std::int32_t n_dev = topo.device_count();
  const std::int32_t n_nodes = topo.node_count();
  const std::size_t n_switches = topo.switches().size();
  std::vector<std::int32_t> lft(n_switches * static_cast<std::size_t>(n_nodes), -1);

  struct Edge {
    std::int32_t port;
    DeviceId peer;
  };
  std::vector<std::int32_t> first;
  std::vector<Edge> edges;
  for (DeviceId dev = 0; dev < n_dev; ++dev) {
    first.push_back(static_cast<std::int32_t>(edges.size()));
    for (std::int32_t p = 0; p < topo.port_count(dev); ++p) {
      const PortRef peer = topo.peer(PortRef{dev, p});
      if (peer.valid()) edges.push_back({p, peer.device});
    }
  }
  first.push_back(static_cast<std::int32_t>(edges.size()));

  constexpr std::int32_t kUnreached = std::numeric_limits<std::int32_t>::max();
  std::vector<std::int32_t> dist(static_cast<std::size_t>(n_dev));
  std::deque<DeviceId> queue;
  std::vector<std::int32_t> candidates;
  for (ib::NodeId dst = 0; dst < n_nodes; ++dst) {
    std::fill(dist.begin(), dist.end(), kUnreached);
    const DeviceId dst_dev = topo.hca_device(dst);
    dist[static_cast<std::size_t>(dst_dev)] = 0;
    queue.push_back(dst_dev);
    while (!queue.empty()) {
      const DeviceId dev = queue.front();
      queue.pop_front();
      for (std::int32_t e = first[static_cast<std::size_t>(dev)];
           e < first[static_cast<std::size_t>(dev) + 1]; ++e) {
        auto& pd = dist[static_cast<std::size_t>(edges[static_cast<std::size_t>(e)].peer)];
        if (pd == kUnreached) {
          pd = dist[static_cast<std::size_t>(dev)] + 1;
          queue.push_back(edges[static_cast<std::size_t>(e)].peer);
        }
      }
    }
    for (std::size_t slot = 0; slot < n_switches; ++slot) {
      const DeviceId sw = topo.switches()[slot];
      const std::int32_t d = dist[static_cast<std::size_t>(sw)];
      if (d == kUnreached) continue;
      candidates.clear();
      for (std::int32_t e = first[static_cast<std::size_t>(sw)];
           e < first[static_cast<std::size_t>(sw) + 1]; ++e) {
        const Edge& edge = edges[static_cast<std::size_t>(e)];
        if (dist[static_cast<std::size_t>(edge.peer)] == d - 1) candidates.push_back(edge.port);
      }
      const std::size_t pick = tie_break == RoutingTables::TieBreak::DModK
                                   ? static_cast<std::size_t>(dst) % candidates.size()
                                   : 0;
      lft[slot * static_cast<std::size_t>(n_nodes) + static_cast<std::size_t>(dst)] =
          candidates[pick];
    }
  }
  return lft;
}

/// Compares compute() with the oracle over every (switch, destination)
/// and reports the mismatch count plus the first mismatch, so a broken
/// 10k table fails with one readable line instead of millions.
void expect_matches_oracle(const Topology& topo, RoutingTables::TieBreak tie_break) {
  const RoutingTables rt = RoutingTables::compute(topo, tie_break);
  const std::vector<std::int32_t> want = oracle_lft(topo, tie_break);
  ASSERT_EQ(rt.stride(), static_cast<std::size_t>(topo.node_count()));
  ASSERT_EQ(rt.switch_count(), topo.switches().size());
  ASSERT_EQ(rt.flat().size(), want.size());

  std::size_t mismatches = 0;
  std::size_t first_bad = want.size();
  for (std::size_t slot = 0; slot < topo.switches().size(); ++slot) {
    for (ib::NodeId dst = 0; dst < topo.node_count(); ++dst) {
      const std::size_t i = slot * rt.stride() + static_cast<std::size_t>(dst);
      const auto want_byte = want[i] < 0 ? RoutingTables::kNoRoute
                                         : static_cast<std::uint8_t>(want[i]);
      if (rt.flat()[i] != want_byte || rt.out_port(topo.switches()[slot], dst) != want[i]) {
        if (mismatches++ == 0) first_bad = i;
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << "first mismatch at switch slot " << first_bad / rt.stride()
                            << ", dst " << first_bad % rt.stride() << ": oracle port "
                            << (first_bad < want.size() ? want[first_bad] : 0) << ", got "
                            << (first_bad < want.size() ? int{rt.flat()[first_bad]} : 0);
}

void expect_matches_oracle_both(const Topology& topo) {
  expect_matches_oracle(topo, RoutingTables::TieBreak::DModK);
  expect_matches_oracle(topo, RoutingTables::TieBreak::FirstPort);
}

TEST(RoutingOracle, FatTree3Default) { expect_matches_oracle_both(fat_tree3(FatTree3Params{})); }

TEST(RoutingOracle, FatTree3Scale2k) {
  expect_matches_oracle(fat_tree3(FatTree3Params::scale_2k()), RoutingTables::TieBreak::DModK);
}

TEST(RoutingOracle, FatTree3Scale10k) {
  expect_matches_oracle(fat_tree3(FatTree3Params::scale_10k()), RoutingTables::TieBreak::DModK);
}

TEST(RoutingOracle, SunDcs648) {
  expect_matches_oracle(folded_clos(FoldedClosParams::sun_dcs_648()),
                        RoutingTables::TieBreak::DModK);
}

TEST(RoutingOracle, Mesh2dBothTieBreaks) { expect_matches_oracle_both(mesh2d(4, 5, 3)); }

TEST(RoutingOracle, LinearChain) { expect_matches_oracle_both(linear_chain(5, 3)); }

TEST(RoutingOracle, Dumbbell) { expect_matches_oracle_both(dumbbell(4)); }

TEST(RoutingOracle, SingleSwitch) { expect_matches_oracle_both(single_switch(8)); }

TEST(RoutingOracle, ParallelCablesKeepPortOrder) {
  // Switch a: HCAs on ports 1 and 3; three cables to b on ports 0, 2, 4,
  // landing on b's ports 3, 0, 1 so port order differs across the two
  // ends. Switch b: HCAs on ports 2 and 4.
  Topology topo;
  const DeviceId a = topo.add_switch(5, "a");
  const DeviceId b = topo.add_switch(5, "b");
  for (const PortRef at : {PortRef{a, 1}, PortRef{a, 3}, PortRef{b, 2}, PortRef{b, 4}}) {
    topo.connect(PortRef{topo.add_hca(), 0}, at);
  }
  topo.connect(PortRef{a, 0}, PortRef{b, 3});
  topo.connect(PortRef{a, 2}, PortRef{b, 0});
  topo.connect(PortRef{a, 4}, PortRef{b, 1});
  expect_matches_oracle_both(topo);

  const RoutingTables rt = RoutingTables::compute(topo);
  // a's candidates towards b's HCAs (nodes 2, 3) are ports {0, 2, 4}.
  EXPECT_EQ(rt.out_port(a, 2), 4);  // 2 % 3 = 2
  EXPECT_EQ(rt.out_port(a, 3), 0);  // 3 % 3 = 0
  // b's candidates towards a's HCAs (nodes 0, 1) are ports {0, 1, 3}.
  EXPECT_EQ(rt.out_port(b, 0), 0);
  EXPECT_EQ(rt.out_port(b, 1), 1);
  EXPECT_EQ(rt.out_port(a, 0), 1);  // own HCAs: their attachment ports
  EXPECT_EQ(rt.out_port(b, 3), 4);
}

TEST(RoutingOracle, DisconnectedComponentHasNoRoute) {
  // Component one: a dumbbell-like pair of switches with two HCAs each.
  // Component two: one switch with two HCAs. Plus one uncabled HCA.
  Topology topo;
  const DeviceId s0 = topo.add_switch(3, "s0");
  const DeviceId s1 = topo.add_switch(3, "s1");
  const DeviceId island = topo.add_switch(2, "island");
  topo.connect(PortRef{s0, 2}, PortRef{s1, 2});
  for (const PortRef at : {PortRef{s0, 0}, PortRef{s0, 1}, PortRef{s1, 0}, PortRef{s1, 1},
                           PortRef{island, 0}, PortRef{island, 1}}) {
    topo.connect(PortRef{topo.add_hca(), 0}, at);
  }
  (void)topo.add_hca("loose");
  expect_matches_oracle_both(topo);

  const RoutingTables rt = RoutingTables::compute(topo);
  const std::size_t island_slot = 2;
  for (ib::NodeId dst = 0; dst < 4; ++dst) {
    EXPECT_EQ(rt.out_port(island, dst), -1);
    EXPECT_EQ(rt.flat()[island_slot * rt.stride() + static_cast<std::size_t>(dst)],
              RoutingTables::kNoRoute);
  }
  for (const DeviceId sw : {s0, s1}) {
    EXPECT_EQ(rt.out_port(sw, 4), -1);
    EXPECT_EQ(rt.out_port(sw, 5), -1);
  }
  for (const DeviceId sw : {s0, s1, island}) EXPECT_EQ(rt.out_port(sw, 6), -1);
  EXPECT_EQ(rt.out_port(island, 4), 0);
  EXPECT_EQ(rt.out_port(s0, 2), 2);
}

}  // namespace
}  // namespace ibsim::topo
