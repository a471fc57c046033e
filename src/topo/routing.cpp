#include "topo/routing.hpp"

#include <algorithm>
#include <limits>

#include "core/assert.hpp"

namespace ibsim::topo {

namespace {

/// Flat adjacency of the switch-to-switch cables, indexed by dense switch
/// slot: the entries [first[slot], first[slot+1]) list that switch's ports
/// whose peer is another switch, in port order. HCA-facing ports are left
/// out — an HCA has one port and is never a transit hop, so it cannot lie
/// on a path between two switches.
struct SwitchGraph {
  struct Edge {
    std::int32_t port;
    std::int32_t peer_slot;
  };
  std::vector<std::int32_t> first;  // slot -> index into edges (n_switches + 1 entries)
  std::vector<Edge> edges;

  SwitchGraph(const Topology& topo, const std::vector<std::int32_t>& switch_slot) {
    const std::vector<DeviceId>& switches = topo.switches();
    first.reserve(switches.size() + 1);
    for (const DeviceId sw : switches) {
      first.push_back(static_cast<std::int32_t>(edges.size()));
      for (std::int32_t p = 0; p < topo.port_count(sw); ++p) {
        const PortRef peer = topo.peer(PortRef{sw, p});
        if (!peer.valid()) continue;
        const std::int32_t peer_slot = switch_slot[static_cast<std::size_t>(peer.device)];
        if (peer_slot >= 0) edges.push_back({p, peer_slot});
      }
    }
    first.push_back(static_cast<std::int32_t>(edges.size()));
  }
};

}  // namespace

RoutingTables RoutingTables::compute(const Topology& topo, TieBreak tie_break) {
  RoutingTables rt;
  const std::int32_t n_nodes = topo.node_count();
  const std::vector<DeviceId>& switches = topo.switches();
  const std::size_t n_switches = switches.size();

  rt.switch_slot_.assign(static_cast<std::size_t>(topo.device_count()), -1);
  for (std::size_t i = 0; i < n_switches; ++i) {
    IBSIM_ASSERT(topo.port_count(switches[i]) < kNoRoute,
                 "switch radix must stay below the byte LFT's no-route sentinel");
    rt.switch_slot_[static_cast<std::size_t>(switches[i])] = static_cast<std::int32_t>(i);
  }
  rt.stride_ = static_cast<std::size_t>(n_nodes);
  rt.lft_.assign(n_switches * rt.stride_, kNoRoute);

  // Group destinations by attachment switch (the peer of the HCA's only
  // port), as a CSR in NodeId order: slot s owns members[start[s],
  // start[s+1]). An HCA that is uncabled or cabled to another HCA is
  // reached by no switch and keeps kNoRoute everywhere. Flat arrays, not
  // one small vector per switch, so the build leaves no trail of small
  // freed chunks for the fabric's later allocations to land among.
  struct Attachment {
    std::int32_t slot = -1;
    std::int32_t port = 0;  // the attachment switch's port towards the HCA
  };
  std::vector<Attachment> attachment(static_cast<std::size_t>(n_nodes));
  std::vector<std::int32_t> start(n_switches + 1, 0);
  for (ib::NodeId dst = 0; dst < n_nodes; ++dst) {
    const PortRef at = topo.peer(PortRef{topo.hca_device(dst), 0});
    const std::int32_t slot =
        at.valid() ? rt.switch_slot_[static_cast<std::size_t>(at.device)] : -1;
    if (slot < 0) continue;
    attachment[static_cast<std::size_t>(dst)] = {slot, at.port};
    ++start[static_cast<std::size_t>(slot) + 1];
  }
  for (std::size_t s = 0; s < n_switches; ++s) start[s + 1] += start[s];
  std::vector<ib::NodeId> members(static_cast<std::size_t>(start[n_switches]));
  {
    std::vector<std::int32_t> fill(start.begin(), start.end() - 1);
    for (ib::NodeId dst = 0; dst < n_nodes; ++dst) {
      const std::int32_t slot = attachment[static_cast<std::size_t>(dst)].slot;
      if (slot < 0) continue;
      members[static_cast<std::size_t>(fill[static_cast<std::size_t>(slot)]++)] = dst;
    }
  }

  // A switch's distance to an HCA is 1 + its switch-graph distance to the
  // HCA's attachment switch, so one BFS per attachment switch S gives the
  // distance field of every HCA on S, and a switch's candidate ports (its
  // switch-peer ports one hop closer to S, in port order) are shared by
  // all of them; only the d-mod-k pick differs per destination.
  const SwitchGraph graph(topo, rt.switch_slot_);
  constexpr std::int32_t kUnreached = std::numeric_limits<std::int32_t>::max();
  std::vector<std::int32_t> dist(n_switches);
  std::vector<std::int32_t> queue(n_switches);
  std::vector<std::uint8_t> candidates;  // reused across (S, switch) pairs

  for (std::size_t s = 0; s < n_switches; ++s) {
    const ib::NodeId* group = members.data() + start[s];
    const ib::NodeId* group_end = members.data() + start[s + 1];
    if (group == group_end) continue;

    // S's own row: each HCA's attachment port, its only candidate.
    std::uint8_t* own_row = rt.lft_.data() + s * rt.stride_;
    for (const ib::NodeId* dst = group; dst != group_end; ++dst) {
      own_row[*dst] =
          static_cast<std::uint8_t>(attachment[static_cast<std::size_t>(*dst)].port);
    }

    std::fill(dist.begin(), dist.end(), kUnreached);
    dist[s] = 0;
    queue[0] = static_cast<std::int32_t>(s);
    std::size_t tail = 1;
    for (std::size_t head = 0; head < tail; ++head) {
      const auto slot = static_cast<std::size_t>(queue[head]);
      const std::int32_t d = dist[slot];
      for (std::int32_t e = graph.first[slot]; e < graph.first[slot + 1]; ++e) {
        const auto peer =
            static_cast<std::size_t>(graph.edges[static_cast<std::size_t>(e)].peer_slot);
        if (dist[peer] == kUnreached) {
          dist[peer] = d + 1;
          queue[tail++] = static_cast<std::int32_t>(peer);
        }
      }
    }

    for (std::size_t q = 1; q < tail; ++q) {
      const auto slot = static_cast<std::size_t>(queue[q]);
      const std::int32_t d = dist[slot];
      candidates.clear();
      for (std::int32_t e = graph.first[slot]; e < graph.first[slot + 1]; ++e) {
        const SwitchGraph::Edge& edge = graph.edges[static_cast<std::size_t>(e)];
        if (dist[static_cast<std::size_t>(edge.peer_slot)] == d - 1) {
          candidates.push_back(static_cast<std::uint8_t>(edge.port));
        }
      }
      IBSIM_ASSERT(!candidates.empty(), "BFS-reachable switch must have a next hop");
      std::uint8_t* row = rt.lft_.data() + slot * rt.stride_;
      if (tie_break == TieBreak::DModK) {
        // d-mod-k spreading.
        const std::size_t n = candidates.size();
        for (const ib::NodeId* dst = group; dst != group_end; ++dst) {
          row[*dst] = candidates[static_cast<std::size_t>(*dst) % n];
        }
      } else {
        // Lowest port (DOR).
        for (const ib::NodeId* dst = group; dst != group_end; ++dst) row[*dst] = candidates[0];
      }
    }
  }
  return rt;
}

std::vector<DeviceId> RoutingTables::trace(const Topology& topo, ib::NodeId src,
                                           ib::NodeId dst) const {
  std::vector<DeviceId> path;
  DeviceId dev = topo.hca_device(src);
  path.push_back(dev);
  if (src == dst) return path;
  // Leave the source HCA through its only port.
  PortRef hop = topo.peer(PortRef{dev, 0});
  IBSIM_ASSERT(hop.valid(), "source HCA is not cabled");
  dev = hop.device;
  path.push_back(dev);
  const DeviceId dst_dev = topo.hca_device(dst);
  std::int32_t guard = topo.device_count() + 2;
  while (dev != dst_dev) {
    IBSIM_ASSERT(topo.kind(dev) == DeviceKind::Switch, "route wandered into an HCA");
    const std::int32_t port = out_port(dev, dst);
    IBSIM_ASSERT(port >= 0, "destination unreachable from switch");
    hop = topo.peer(PortRef{dev, port});
    IBSIM_ASSERT(hop.valid(), "LFT points at an uncabled port");
    dev = hop.device;
    path.push_back(dev);
    IBSIM_ASSERT(--guard > 0, "routing loop detected");
  }
  return path;
}

}  // namespace ibsim::topo
