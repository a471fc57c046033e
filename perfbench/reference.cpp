// Host-speed reference for the benchmark: a fixed event-loop-shaped
// kernel that shares no code with the simulator.
//
//   perfbench_reference      -> prints its run time in seconds
//
// A binary heap of pending timestamps is popped and re-pushed while
// each popped event updates a random slot of a 24 MiB state array, so
// the kernel, like the simulator's event loop, is bound by branches and
// cache misses. On shared hosts its time drifts with the simulator's
// (cache and memory contention from other tenants lasting minutes);
// run.py times it between repetitions and scales host times by it.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <queue>
#include <vector>

int main() {
  std::uint64_t x = 88172645463325252ULL;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::vector<std::uint64_t> state(3U << 20, 1);
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>, std::greater<>> pending;
  for (int i = 0; i < 500000; ++i) pending.push(next() & 0xffffffffU);

  const auto start = std::chrono::steady_clock::now();
  std::uint64_t acc = 0;
  for (int k = 0; k < 1200000; ++k) {
    const std::uint64_t at = pending.top();
    pending.pop();
    std::uint64_t& slot = state[(at * 2654435761U) % state.size()];
    slot += at;
    acc += slot;
    if ((slot & 1U) != 0) acc ^= next();
    pending.push(at + (next() & 0xffffU));
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  // acc keeps the loop observable; it is the same on every run.
  std::printf("%.9g %llu\n", seconds, static_cast<unsigned long long>(acc));
  return 0;
}
