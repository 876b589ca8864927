#include "sim/network.h"

#include "common/macros.h"

namespace dqsched::sim {

SimDuration NetworkModel::ChargeReceive(SourceId source, int64_t n) {
  if (n <= 0) return 0;
  DQS_CHECK_MSG(source >= 0, "bad source id %d", source);
  if (static_cast<size_t>(source) >= carry_.size()) {
    carry_.resize(static_cast<size_t>(source) + 1, 0);
  }
  stats_.tuples_received += n;
  int64_t& carry = carry_[static_cast<size_t>(source)];
  carry += n;
  const int64_t per = cost_->tuples_per_message;
  // The common case, small batches before a message completes, charges
  // nothing: skip the divisions (InstrTime(0) is 0).
  if (carry < per) return 0;
  const int64_t messages = carry / per;
  carry %= per;
  stats_.messages_received += messages;
  const SimDuration cpu = cost_->InstrTime(messages * cost_->instr_per_message);
  stats_.receive_cpu += cpu;
  return cpu;
}

}  // namespace dqsched::sim
