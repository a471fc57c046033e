#include "store/key.hpp"

#include "store/version.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <string>
#include <vector>

namespace ibsim::store {
namespace {

sim::SimConfig base_config() {
  sim::SimConfig config;
  config.topology = sim::TopologyKind::SingleSwitch;
  config.single_switch_nodes = 8;
  config.seed = 7;
  return config;
}

TEST(RunKey, DeterministicAndHexShaped) {
  const sim::SimConfig config = base_config();
  const std::string key = run_key(config);
  EXPECT_EQ(key, run_key(config));
  EXPECT_EQ(key.size(), 64u);  // SHA-256 hex
  EXPECT_EQ(key.find_first_not_of("0123456789abcdef"), std::string::npos);
}

TEST(RunKey, CanonicalTextCarriesSeedAndTopology) {
  const std::string text = canonical_config_text(base_config());
  EXPECT_NE(text.find("seed=7"), std::string::npos);
  EXPECT_NE(text.find("topology=single"), std::string::npos);
}

TEST(RunKey, ResultStoreFieldIsExcluded) {
  // The one deliberate exception: where results are cached must not
  // feed the key of what is cached, or a campaign could never move its
  // store directory without recomputing everything.
  sim::SimConfig a = base_config();
  sim::SimConfig b = base_config();
  b.result_store = "/somewhere/else";
  EXPECT_EQ(canonical_config_text(a), canonical_config_text(b));
  EXPECT_EQ(run_key(a), run_key(b));
}

TEST(RunKey, ThreadsFieldIsExcluded) {
  // Worker-thread count is orchestration-only: shards execute the same
  // events whatever the worker count, so `threads` must never split the
  // cache the way `shards` (which is simulation-affecting) does.
  sim::SimConfig a = base_config();
  sim::SimConfig b = base_config();
  b.threads = 16;
  EXPECT_EQ(canonical_config_text(a), canonical_config_text(b));
  EXPECT_EQ(run_key(a), run_key(b));
}

/// Every simulation-affecting field must change the key. One mutator
/// per field family; a new SimConfig field that is not reflected in
/// canonical_config_text would silently alias cached results, so keep
/// this list in sync with the struct.
TEST(RunKey, EveryFieldChangesTheKey) {
  struct Mutation {
    const char* name;
    std::function<void(sim::SimConfig*)> apply;
  };
  const std::vector<Mutation> mutations = {
      {"seed", [](sim::SimConfig* c) { c->seed = 8; }},
      {"topology", [](sim::SimConfig* c) { c->topology = sim::TopologyKind::Dumbbell; }},
      {"single_switch_nodes", [](sim::SimConfig* c) { c->single_switch_nodes = 9; }},
      {"clos.leaves", [](sim::SimConfig* c) { c->clos.leaves = 7; }},
      {"fat_tree3.pods", [](sim::SimConfig* c) { c->fat_tree3.pods = 3; }},
      {"chain_switches", [](sim::SimConfig* c) { c->chain_switches = 5; }},
      {"dumbbell_nodes", [](sim::SimConfig* c) { c->dumbbell_nodes_per_side = 9; }},
      {"mesh.rows", [](sim::SimConfig* c) { c->mesh_rows = 5; }},
      {"fabric.wire_gbps", [](sim::SimConfig* c) { c->fabric.wire_gbps += 1.0; }},
      {"fabric.cut_through", [](sim::SimConfig* c) { c->fabric.cut_through = !c->fabric.cut_through; }},
      {"cc.enabled", [](sim::SimConfig* c) { c->cc.enabled = !c->cc.enabled; }},
      {"cc.threshold_weight", [](sim::SimConfig* c) { c->cc.threshold_weight += 1; }},
      {"cc.ccti_timer", [](sim::SimConfig* c) { c->cc.ccti_timer += 1; }},
      {"cc_algo", [](sim::SimConfig* c) { c->cc_algo = "dcqcn"; }},
      {"scenario.fraction_b", [](sim::SimConfig* c) { c->scenario.fraction_b += 0.25; }},
      {"scenario.p", [](sim::SimConfig* c) { c->scenario.p += 0.25; }},
      {"scenario.n_hotspots", [](sim::SimConfig* c) { c->scenario.n_hotspots += 1; }},
      {"scenario.lifetime", [](sim::SimConfig* c) { c->scenario.hotspot_lifetime = 123; }},
      {"workload.name", [](sim::SimConfig* c) { c->workload.name = "incast"; }},
      {"workload.ranks", [](sim::SimConfig* c) { c->workload.ranks += 1; }},
      {"workload.bytes", [](sim::SimConfig* c) { c->workload.message_bytes += 1; }},
      {"sim_time", [](sim::SimConfig* c) { c->sim_time += 1; }},
      {"warmup", [](sim::SimConfig* c) { c->warmup += 1; }},
      {"latency_hist_max_us", [](sim::SimConfig* c) { c->latency_hist_max_us += 1; }},
      // Cross-shard interleaving may legitimately differ between shard
      // counts, so the shard count is simulation-affecting.
      {"shards", [](sim::SimConfig* c) { c->shards = 4; }},
  };

  const std::string base_key = run_key(base_config());
  std::set<std::string> keys{base_key};
  for (const Mutation& mutation : mutations) {
    sim::SimConfig config = base_config();
    mutation.apply(&config);
    const std::string key = run_key(config);
    EXPECT_NE(key, base_key) << mutation.name << " did not change the key";
    EXPECT_TRUE(keys.insert(key).second) << mutation.name << " collided with another field";
  }
}

TEST(RunKey, CodeVersionChangesTheKey) {
  const sim::SimConfig config = base_config();
  EXPECT_NE(run_key_with_version(config, "aaaa1111"),
            run_key_with_version(config, "bbbb2222"));
  // run_key is run_key_with_version at this binary's own stamp.
  EXPECT_EQ(run_key(config), run_key_with_version(config, code_version()));
}

}  // namespace
}  // namespace ibsim::store
