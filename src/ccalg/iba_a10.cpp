#include "ccalg/iba_a10.hpp"

#include <algorithm>

#include "core/assert.hpp"

namespace ibsim::ccalg {

IbaA10::IbaA10(const CcAlgoContext& ctx)
    : params_(ctx.params), cct_(ctx.cct), flows_(ctx.n_flows) {
  IBSIM_ASSERT(cct_ != nullptr, "iba_a10 needs a congestion control table");
}

std::unique_ptr<CcAlgorithm> IbaA10::make(const CcAlgoContext& ctx) {
  return std::make_unique<IbaA10>(ctx);
}

core::Time IbaA10::on_send(std::int32_t flow, std::int32_t bytes, core::Time end) {
  return flows_.on_send(flow, end, [&](const FlowCc& f) -> core::Time {
    return f.ccti == 0 ? 0 : cct_->ird_delay(f.ccti, bytes);
  });
}

core::Time IbaA10::injection_delay(std::int32_t flow, std::int32_t bytes) const {
  const FlowCc* f = flows_.find(flow);
  return f == nullptr || f->ccti == 0 ? 0 : cct_->ird_delay(f->ccti, bytes);
}

BecnOutcome IbaA10::on_becn(std::int32_t flow, core::Time now) {
  (void)now;
  BecnOutcome out;
  FlowCc& f = flows_.throttle(flow, &out.newly_throttled);
  const std::uint16_t before = f.ccti;
  f.ccti = static_cast<std::uint16_t>(
      std::min<std::uint32_t>(f.ccti + params_.ccti_increase, params_.ccti_limit));
  ccti_total_ += f.ccti - before;
  out.severity = ccti_total_;
  return out;
}

core::Time IbaA10::timer_delay() const {
  return flows_.active_count() == 0 ? 0 : params_.timer_interval();
}

std::int64_t IbaA10::on_timer(core::Time now, std::vector<std::int32_t>* ended) {
  // Every expiry of the CCTI_Timer decrements the CCTI of all flows of
  // the port by one, down to CCTI_Min. Only throttled flows are visited;
  // flows reaching zero leave the active list.
  flows_.on_timer(now, ended, [&](FlowCc& f) {
    if (f.ccti > params_.ccti_min) {
      --f.ccti;
      --ccti_total_;
    }
    return f.ccti == 0;
  });
  return ccti_total_;
}

std::uint16_t IbaA10::ccti(std::int32_t flow) const {
  const FlowCc* f = flows_.find(flow);
  return f != nullptr ? f->ccti : 0;
}

double IbaA10::rate_fraction(std::int32_t flow) const {
  return cct_->rate_fraction(ccti(flow));
}

}  // namespace ibsim::ccalg
