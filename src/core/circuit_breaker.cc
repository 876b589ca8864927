#include "core/circuit_breaker.h"

#include <algorithm>

#include "common/macros.h"

namespace dqsched::core {

namespace {

/// Consecutive suspicion signals (without an intervening recovery) that
/// trip a closed breaker. A death signal trips immediately.
constexpr int kTripSuspicions = 2;
/// Each probe failure scales the next cooldown by this factor (up to
/// BreakerConfig::max_cooldown).
constexpr double kCooldownBackoff = 2.0;

}  // namespace

const char* BreakerStateName(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half-open";
  }
  return "unknown";
}

BreakerState CircuitBreaker::state(SimTime now) const {
  if (state_ == BreakerState::kOpen &&
      now >= opened_at_ + (current_cooldown_ > 0 ? current_cooldown_
                                                 : config_.cooldown)) {
    return BreakerState::kHalfOpen;
  }
  return state_;
}

void CircuitBreaker::Trip(SimTime now) {
  const SimDuration base =
      current_cooldown_ > 0 ? current_cooldown_ : config_.cooldown;
  if (state_ == BreakerState::kHalfOpen ||
      (state_ == BreakerState::kOpen && probe_in_flight_)) {
    // A probe failed: back the cooldown off before the next one.
    current_cooldown_ = std::min(
        config_.max_cooldown,
        static_cast<SimDuration>(static_cast<double>(base) *
                                 kCooldownBackoff));
    ++stats_.reopens;
  } else {
    current_cooldown_ = config_.cooldown;
    ++stats_.trips;
  }
  state_ = BreakerState::kOpen;
  opened_at_ = now;
  probe_in_flight_ = false;
  consecutive_suspicions_ = 0;
}

void CircuitBreaker::OnSuspected(SimTime now) {
  switch (state(now)) {
    case BreakerState::kClosed:
      if (++consecutive_suspicions_ >= kTripSuspicions) Trip(now);
      break;
    case BreakerState::kHalfOpen:
      Trip(now);  // the probe ran into the outage again
      break;
    case BreakerState::kOpen:
      break;  // already known-bad
  }
}

void CircuitBreaker::OnDead(SimTime now) {
  if (state(now) == BreakerState::kOpen) return;
  Trip(now);
}

void CircuitBreaker::OnRecovered(SimTime now) {
  consecutive_suspicions_ = 0;
  if (state(now) == BreakerState::kHalfOpen ||
      (state_ == BreakerState::kOpen && probe_in_flight_)) {
    ++stats_.resets;
  } else if (state_ != BreakerState::kClosed) {
    // Recovery observed by a query that was already running against the
    // source (not a probe): take it — the outage is over.
    ++stats_.resets;
  }
  state_ = BreakerState::kClosed;
  probe_in_flight_ = false;
  current_cooldown_ = 0;
}

void CircuitBreaker::OnProbeAborted(SimTime now) {
  if (!probe_in_flight_) return;
  Trip(now);  // counted as a reopen: the probe failed to prove recovery
}

bool CircuitBreaker::Allow(SimTime now) {
  switch (state(now)) {
    case BreakerState::kClosed:
      return true;
    case BreakerState::kHalfOpen:
      if (probe_in_flight_) return false;
      // Commit the lazy open -> half-open transition and admit the probe.
      state_ = BreakerState::kHalfOpen;
      probe_in_flight_ = true;
      ++stats_.probes;
      return true;
    case BreakerState::kOpen:
      return false;
  }
  return true;
}

BreakerPanel::BreakerPanel(int num_keys, const BreakerConfig& config) {
  DQS_CHECK(num_keys >= 0);
  breakers_.assign(static_cast<size_t>(num_keys), CircuitBreaker(config));
}

CircuitBreaker& BreakerPanel::Of(int key) {
  DQS_CHECK_MSG(key >= 0 && key < size(), "bad breaker key %d", key);
  return breakers_[static_cast<size_t>(key)];
}

const CircuitBreaker& BreakerPanel::Of(int key) const {
  return const_cast<BreakerPanel*>(this)->Of(key);
}

BreakerStats BreakerPanel::TotalStats() const {
  BreakerStats total;
  for (const CircuitBreaker& b : breakers_) total += b.stats();
  return total;
}

int BreakerPanel::OpenCount(SimTime now) const {
  int open = 0;
  for (const CircuitBreaker& b : breakers_) {
    if (b.state(now) != BreakerState::kClosed) ++open;
  }
  return open;
}

}  // namespace dqsched::core
