// Per-shard source circuit breakers (DESIGN.md §13). A breaker guards one
// *logical* source (catalog relation of one template) and is shared by
// every query instance the shard runs against it, so the first query to
// discover an outage spares the rest from burning their deadline budget
// rediscovering it — the observation-sharing idea of ADQUEX
// (arXiv:1505.04880) applied at admission time.
//
// State machine (classic closed/open/half-open):
//
//   closed ---- kTripSuspicions consecutive suspicions, or a death ----+
//     ^                                                                v
//     |  probe success                                               open
//     +------------- half-open <------- cooldown elapsed --------------+
//            probe failure reopens with the cooldown doubled
//
// All transitions are driven by the shard's virtual clock and its own
// detector signals, never by host threads, so breaker decisions are
// byte-identical across --jobs (DESIGN.md §11).

#ifndef DQSCHED_CORE_CIRCUIT_BREAKER_H_
#define DQSCHED_CORE_CIRCUIT_BREAKER_H_

#include <cstdint>
#include <vector>

#include "common/sim_time.h"

namespace dqsched::core {

enum class BreakerState { kClosed, kOpen, kHalfOpen };

/// Short stable name ("closed", "open", "half-open").
const char* BreakerStateName(BreakerState state);

struct BreakerConfig {
  /// Virtual time an open breaker waits before admitting a probe. Each
  /// probe failure scales the next cooldown (kCooldownBackoff in
  /// circuit_breaker.cc) ...
  SimDuration cooldown = Seconds(1);
  /// ... capped here.
  SimDuration max_cooldown = Seconds(30);
};

struct BreakerStats {
  int64_t trips = 0;    // closed -> open transitions
  int64_t probes = 0;   // half-open admissions
  int64_t reopens = 0;  // failed probes (half-open -> open)
  int64_t resets = 0;   // successful probes (half-open -> closed)

  BreakerStats& operator+=(const BreakerStats& other) {
    trips += other.trips;
    probes += other.probes;
    reopens += other.reopens;
    resets += other.resets;
    return *this;
  }
};

class CircuitBreaker {
 public:
  explicit CircuitBreaker(const BreakerConfig& config) : config_(config) {}

  /// The state at `now` (an open breaker whose cooldown elapsed reads as
  /// half-open; the transition is committed lazily by Allow()).
  BreakerState state(SimTime now) const;

  /// Detector signals observed by any query on the shard.
  void OnSuspected(SimTime now);
  void OnDead(SimTime now);
  void OnRecovered(SimTime now);
  /// The in-flight probe query was cancelled for an unrelated reason
  /// (deadline, retry) before it could prove anything: reopen — the
  /// source's recovery is still unestablished, and leaving the probe
  /// slot occupied would wedge the breaker open forever. No-op when no
  /// probe is in flight.
  void OnProbeAborted(SimTime now);

  /// A query is about to start this source. True admits it normally
  /// (closed, or half-open probe — at most one in flight); false means
  /// the breaker is open and admission must degrade or defer the query.
  bool Allow(SimTime now);

  const BreakerStats& stats() const { return stats_; }

 private:
  void Trip(SimTime now);

  BreakerConfig config_;
  BreakerState state_ = BreakerState::kClosed;
  SimTime opened_at_ = 0;
  SimDuration current_cooldown_ = 0;  // 0 = config base
  int consecutive_suspicions_ = 0;
  bool probe_in_flight_ = false;
  BreakerStats stats_;
};

/// The shard's breakers, keyed by a dense logical-source index the owner
/// assigns (the fleet uses template-relative source ids offset per
/// template).
class BreakerPanel {
 public:
  BreakerPanel(int num_keys, const BreakerConfig& config);

  CircuitBreaker& Of(int key);
  const CircuitBreaker& Of(int key) const;
  int size() const { return static_cast<int>(breakers_.size()); }

  /// Sum of every breaker's counters, in key order.
  BreakerStats TotalStats() const;
  /// Breakers currently not closed at `now`.
  int OpenCount(SimTime now) const;

 private:
  std::vector<CircuitBreaker> breakers_;
};

}  // namespace dqsched::core

#endif  // DQSCHED_CORE_CIRCUIT_BREAKER_H_
