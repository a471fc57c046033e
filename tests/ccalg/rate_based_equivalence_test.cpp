// Lockstep guard for the sparse rate-based reaction points: `DenseRate`
// below is the dense per-destination RateBasedAlgorithm (one slot per
// destination, swap-remove active list) with verbatim copies of the
// `dcqcn` and `aimd` policies, kept as the oracle. The registry's
// algorithms and the oracle are driven through the same port-serial
// sequence — grant ends never decrease and every query happens at or
// after the last end, as on an HCA — and after every step each flow's
// gate decision max(ready, now), rate fraction and injection delay, the
// active count and the severity must match.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ccalg/registry.hpp"
#include "core/rng.hpp"
#include "core/time.hpp"
#include "ib/cc_params.hpp"
#include "ib/cct.hpp"
#include "ib/types.hpp"

namespace ibsim::ccalg {
namespace {

/// The dense RateBasedAlgorithm with both policies folded in.
class DenseRate {
 public:
  DenseRate(bool dcqcn, std::int32_t n_flows, double ref_gbps)
      : dcqcn_(dcqcn), ref_gbps_(ref_gbps), flows_(static_cast<std::size_t>(n_flows)) {
    active_flows_.reserve(static_cast<std::size_t>(n_flows));
  }

  core::Time on_send(std::int32_t flow, std::int32_t bytes, core::Time end) {
    RateFlow& f = flows_[static_cast<std::size_t>(flow)];
    f.ready_at = end + injection_delay(flow, bytes);
    return f.ready_at;
  }
  [[nodiscard]] core::Time ready_at(std::int32_t flow) const {
    return flows_[static_cast<std::size_t>(flow)].ready_at;
  }
  [[nodiscard]] core::Time injection_delay(std::int32_t flow, std::int32_t bytes) const {
    const RateFlow& f = flows_[static_cast<std::size_t>(flow)];
    if (f.rate >= 1.0) return 0;
    const double gap = static_cast<double>(core::transmit_time(bytes, ref_gbps_)) *
                       (1.0 - f.rate) / f.rate;
    return static_cast<core::Time>(std::llround(gap));
  }

  BecnOutcome on_becn(std::int32_t flow) {
    RateFlow& f = flows_[static_cast<std::size_t>(flow)];
    BecnOutcome out;
    out.newly_throttled = f.active_idx < 0;
    if (out.newly_throttled) {
      f.active_idx = static_cast<std::int32_t>(active_flows_.size());
      active_flows_.push_back(flow);
    }
    const std::int64_t before = severity_of(f);
    react(f);
    if (f.rate < kMinRate) f.rate = kMinRate;
    severity_total_ += severity_of(f) - before;
    out.severity = severity_total_;
    return out;
  }

  std::int64_t on_timer(std::vector<std::int32_t>* ended) {
    for (std::size_t i = 0; i < active_flows_.size();) {
      const std::int32_t flow = active_flows_[i];
      RateFlow& f = flows_[static_cast<std::size_t>(flow)];
      const std::int64_t before = severity_of(f);
      const bool done = recover(f);
      if (done) {
        f.rate = 1.0;
        f.target = 1.0;
        f.stage = 0;
        f.active_idx = -1;
        active_flows_[i] = active_flows_.back();
        active_flows_.pop_back();
        if (i < active_flows_.size()) {
          flows_[static_cast<std::size_t>(active_flows_[i])].active_idx =
              static_cast<std::int32_t>(i);
        }
        ended->push_back(flow);
      } else {
        ++i;
      }
      severity_total_ += severity_of(f) - before;
    }
    return severity_total_;
  }

  [[nodiscard]] std::int32_t active_flow_count() const {
    return static_cast<std::int32_t>(active_flows_.size());
  }
  [[nodiscard]] std::int64_t severity_sum() const { return severity_total_; }
  [[nodiscard]] double rate_fraction(std::int32_t flow) const {
    return flows_[static_cast<std::size_t>(flow)].rate;
  }

 private:
  struct RateFlow {
    double rate = 1.0;
    double target = 1.0;
    double alpha = 1.0;
    std::uint32_t stage = 0;
    std::int32_t active_idx = -1;
    core::Time ready_at = 0;
  };

  // Policy constants, copied from dcqcn.hpp / aimd.hpp (both floor at
  // 1/1024).
  static constexpr double kMinRate = 1.0 / 1024.0;
  static constexpr double kG = 1.0 / 16.0;
  static constexpr double kAlphaDecay = 1.0 / 8.0;
  static constexpr std::uint32_t kFastStages = 5;
  static constexpr double kAi = 1.0 / 64.0;
  static constexpr double kHai = 1.0 / 16.0;
  static constexpr std::uint32_t kHyperAfter = 5;
  static constexpr double kDoneThreshold = 1.0 - 1.0 / 1024.0;
  static constexpr double kDecrease = 0.5;
  static constexpr double kIncrease = 1.0 / 32.0;

  void react(RateFlow& f) const {
    if (!dcqcn_) {
      f.rate *= kDecrease;
      return;
    }
    f.alpha = (1.0 - kG) * f.alpha + kG;
    f.target = f.rate;
    f.rate = f.rate * (1.0 - f.alpha / 2.0);
    f.stage = 0;
  }

  bool recover(RateFlow& f) const {
    if (!dcqcn_) {
      f.rate += kIncrease;
      return f.rate >= 1.0;
    }
    f.alpha *= 1.0 - kAlphaDecay;
    ++f.stage;
    if (f.stage > kFastStages) {
      const std::uint32_t additive_stage = f.stage - kFastStages;
      f.target += additive_stage > kHyperAfter ? kHai : kAi;
      if (f.target > 1.0) f.target = 1.0;
    }
    f.rate = (f.rate + f.target) / 2.0;
    return f.rate >= kDoneThreshold && f.target >= 1.0;
  }

  [[nodiscard]] static std::int64_t severity_of(const RateFlow& f) {
    return static_cast<std::int64_t>(1024.0 * (1.0 - f.rate) + 0.5);
  }

  bool dcqcn_;
  double ref_gbps_;
  std::vector<RateFlow> flows_;
  std::vector<std::int32_t> active_flows_;
  std::int64_t severity_total_ = 0;
};

class RateLockstep {
 public:
  RateLockstep(const std::string& algo, std::int32_t n_flows)
      : cct_(128, 13.5), n_flows_(n_flows), dense_(algo == "dcqcn", n_flows, 13.5) {
    cct_.populate_geometric(1.05);
    CcAlgoContext ctx;
    ctx.n_flows = n_flows;
    ctx.params = ib::CcParams::paper_table1();
    ctx.cct = &cct_;
    sparse_ = CcAlgorithmRegistry::instance().create(algo, ctx);
  }

  /// A packet of `bytes` to `dst` is granted now; the port is busy until
  /// it ends, and the clock moves there (port-serial).
  void grant(ib::NodeId dst, std::int32_t bytes) {
    const core::Time end = now_ + core::transmit_time(bytes, 13.5);
    ASSERT_EQ(dense_.on_send(dst, bytes, end), sparse_->on_send(dst, bytes, end))
        << "grant dst=" << dst << " t=" << now_;
    now_ = end;
    compare();
  }

  void becn(ib::NodeId dst) {
    const BecnOutcome want = dense_.on_becn(dst);
    const BecnOutcome got = sparse_->on_becn(dst, now_);
    ASSERT_EQ(want.newly_throttled, got.newly_throttled) << "becn dst=" << dst;
    ASSERT_EQ(want.severity, got.severity) << "becn dst=" << dst;
    compare();
  }

  void tick() {
    std::vector<std::int32_t> want_ended;
    std::vector<std::int32_t> got_ended;
    ASSERT_EQ(dense_.on_timer(&want_ended), sparse_->on_timer(now_, &got_ended));
    ASSERT_EQ(want_ended, got_ended) << "t=" << now_;
    compare();
  }

  void advance(core::Time dt) {
    now_ += dt;
    compare();
  }

  void compare() {
    ASSERT_EQ(dense_.active_flow_count(), sparse_->active_flow_count()) << "t=" << now_;
    ASSERT_EQ(dense_.severity_sum(), sparse_->severity_sum()) << "t=" << now_;
    for (ib::NodeId d = 0; d < n_flows_; ++d) {
      ASSERT_EQ(std::max(dense_.ready_at(d), now_), std::max(sparse_->ready_at(d), now_))
          << "t=" << now_ << " dst=" << d;
      ASSERT_EQ(dense_.rate_fraction(d), sparse_->rate_fraction(d))
          << "t=" << now_ << " dst=" << d;
      ASSERT_EQ(dense_.injection_delay(d, ib::kMtuBytes),
                sparse_->injection_delay(d, ib::kMtuBytes))
          << "t=" << now_ << " dst=" << d;
    }
  }

  [[nodiscard]] std::int32_t active() const { return sparse_->active_flow_count(); }
  [[nodiscard]] std::int32_t n_flows() const { return n_flows_; }

 private:
  ib::CongestionControlTable cct_;
  std::int32_t n_flows_;
  DenseRate dense_;
  std::unique_ptr<CcAlgorithm> sparse_;
  core::Time now_ = 0;
};

/// Hot destinations draw most BECNs; grants mostly follow them so paced
/// ready times are often still ahead when a flow recovers. Recovered
/// flows are hit again, which exercises DCQCN's alpha memory.
void random_drive(const std::string& algo, std::uint64_t seed, double hot_bias) {
  RateLockstep ab(algo, 16);
  core::Rng rng(seed);
  std::vector<ib::NodeId> hot;
  for (int h = 0; h < 3; ++h) {
    hot.push_back(static_cast<ib::NodeId>(rng.next_below(16)));
  }
  for (int op = 0; op < 4000; ++op) {
    const ib::NodeId dst = rng.chance(hot_bias)
                               ? hot[rng.next_below(hot.size())]
                               : static_cast<ib::NodeId>(rng.next_below(16));
    switch (rng.next_below(6)) {
      case 0:
        ab.becn(dst);
        break;
      case 1:
      case 2:
        ab.grant(dst, static_cast<std::int32_t>(256 + rng.next_below(ib::kMtuBytes - 256)));
        break;
      case 3:
      case 4:
        if (ab.active() > 0) ab.tick();
        break;
      default:
        ab.advance(static_cast<core::Time>(rng.next_below(4 * core::kMicrosecond)));
        break;
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
  while (ab.active() > 0) {
    ab.tick();
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(RateBasedEquivalence, DcqcnMatchesDenseOracle) {
  random_drive("dcqcn", /*seed=*/3, /*hot_bias=*/0.7);
  random_drive("dcqcn", /*seed=*/19, /*hot_bias=*/0.3);
}

TEST(RateBasedEquivalence, AimdMatchesDenseOracle) {
  random_drive("aimd", /*seed=*/5, /*hot_bias=*/0.7);
  random_drive("aimd", /*seed=*/23, /*hot_bias=*/0.3);
}

TEST(RateBasedEquivalence, DcqcnRemembersAlphaAcrossRecovery) {
  // A flow throttled, fully recovered and throttled again must take the
  // second cut with its decayed alpha, as the dense layout did.
  RateLockstep ab("dcqcn", 4);
  for (int i = 0; i < 3; ++i) ab.becn(2);
  while (ab.active() > 0) ab.tick();
  ab.grant(2, ib::kMtuBytes);
  ab.becn(2);
  ab.tick();
}

}  // namespace
}  // namespace ibsim::ccalg
