// Input sources for query fragments.
//
// A fragment's input is one of: a remote wrapper's tuple queue
// (QueueSource), a sealed temp relation on local disk (TempSource), or a
// materialized prefix followed by the live remainder (ConcatSource) — the
// shape a degraded pipeline chain's complement fragment CF(p) consumes
// after its materialization fragment MF(p) is stopped (paper Section 4.4).

#ifndef DQSCHED_EXEC_CHAIN_SOURCE_H_
#define DQSCHED_EXEC_CHAIN_SOURCE_H_

#include <deque>
#include <memory>
#include <utility>

#include "common/ids.h"
#include "common/sim_time.h"
#include "exec/exec_context.h"
#include "storage/tuple.h"

namespace dqsched::exec {

/// Abstract fragment input. All methods take the context so sources can
/// pump communication / charge the disk as a side effect.
class ChainSource {
 public:
  virtual ~ChainSource() = default;

  /// Result of one Pop call.
  struct PopResult {
    /// The batch, read in place: a span of the source relation for live
    /// input and for reads of a borrowed temp, the caller's `out` buffer
    /// for reads of a paged temp.
    const storage::Tuple* data = nullptr;
    int64_t count = 0;
    /// True when `data` is a span of a source relation, which outlives
    /// every store: a sink may keep the pointer instead of a copy.
    bool in_relation = false;
    /// True when the batch came from a materialized temp: no network
    /// receive cost, and pre-applied leading operators must be skipped.
    bool from_temp = false;
    /// Simulated time the data is available (async disk reads complete
    /// later than `now`); the executor waits on this after its CPU work.
    SimTime ready = 0;
  };

  /// Pops up to `max` tuples. `out` (room for `max`) is scratch a source
  /// may copy the batch into; PopResult::data says where it is.
  virtual PopResult Pop(ExecContext& ctx, storage::Tuple* out,
                        int64_t max) = 0;

  /// Tuples consumable immediately (pumps arrivals first).
  virtual int64_t Available(ExecContext& ctx) = 0;

  /// True when no tuple will ever be available again.
  virtual bool Exhausted(const ExecContext& ctx) const = 0;

  /// Earliest time new input can appear when Available()==0;
  /// kSimTimeNever if exhausted (or unknowable).
  virtual SimTime NextArrival(const ExecContext& ctx) const = 0;

  /// True when NextArrival() may change as the virtual clock advances even
  /// though no tuple was delivered or consumed (temp-backed sources answer
  /// "ready now" or an in-flight completion time). The multi-query arrival
  /// cache must not memoize such values across clock advances.
  virtual bool TimeDependentArrival() const { return false; }

  /// The remote source consumed (kInvalidId for pure temp input).
  virtual SourceId remote_source() const = 0;

  /// True when the producing wrapper is suspended on a full queue (window
  /// protocol): every moment it stays suspended stretches that relation's
  /// total retrieval time.
  virtual bool Backpressured(const ExecContext& ctx) const {
    (void)ctx;
    return false;
  }
};

/// Live input from a wrapper's queue via the communication manager: pops
/// are spans of the wrapper's relation, never copied.
class QueueSource final : public ChainSource {
 public:
  explicit QueueSource(SourceId source) : source_(source) {}

  PopResult Pop(ExecContext& ctx, storage::Tuple* out, int64_t max) override;
  int64_t Available(ExecContext& ctx) override;
  bool Exhausted(const ExecContext& ctx) const override;
  SimTime NextArrival(const ExecContext& ctx) const override;
  SourceId remote_source() const override { return source_; }
  bool Backpressured(const ExecContext& ctx) const override;

 private:
  SourceId source_;
};

/// Input from a sealed temp relation (MF output, MA phase-1 output, or a
/// split intermediate).
///
/// With `async_io` the source double-buffers chunk reads: while the engine
/// processes transferred tuples (or other fragments), the next chunk is in
/// flight, and a chunk that has not completed yet simply means "no data
/// available until its completion time" — exactly like a remote wrapper.
/// This realizes the paper's assumption that "the I/O and CPU operations
/// for CF(p) are done concurrently (asynchronous I/O)". Synchronous mode
/// (MA) blocks the engine for every chunk instead.
class TempSource final : public ChainSource {
 public:
  TempSource(TempId temp, bool async_io) : temp_(temp), async_io_(async_io) {}

  PopResult Pop(ExecContext& ctx, storage::Tuple* out, int64_t max) override;
  int64_t Available(ExecContext& ctx) override;
  bool Exhausted(const ExecContext& ctx) const override;
  SimTime NextArrival(const ExecContext& ctx) const override;
  SourceId remote_source() const override { return kInvalidId; }
  bool TimeDependentArrival() const override { return true; }

  TempId temp() const { return temp_; }

 private:
  /// Promotes completed chunks and keeps up to two chunk reads in flight.
  void Advance(ExecContext& ctx);

  TempId temp_;
  bool async_io_;
  int64_t cursor_ = 0;
  // Async pipeline state.
  int64_t issued_upto_ = 0;  // tuples requested from the disk
  int64_t ready_upto_ = 0;   // tuples whose transfer has completed
  int64_t issues_ = 0;       // chunk reads issued (drives the ramp)
  std::deque<std::pair<int64_t, SimTime>> inflight_;  // (upto, done)
};

/// Materialized prefix then live remainder. Batches never mix origins.
class ConcatSource final : public ChainSource {
 public:
  ConcatSource(std::unique_ptr<TempSource> first,
               std::unique_ptr<QueueSource> second)
      : first_(std::move(first)), second_(std::move(second)) {}

  PopResult Pop(ExecContext& ctx, storage::Tuple* out, int64_t max) override;
  int64_t Available(ExecContext& ctx) override;
  bool Exhausted(const ExecContext& ctx) const override;
  SimTime NextArrival(const ExecContext& ctx) const override;
  SourceId remote_source() const override {
    return second_->remote_source();
  }
  bool Backpressured(const ExecContext& ctx) const override {
    return second_->Backpressured(ctx);
  }
  // Conservative: the temp prefix dominates until exhausted, and probing
  // exhaustion here would itself need the clock-independent guarantee.
  bool TimeDependentArrival() const override { return true; }

 private:
  std::unique_ptr<TempSource> first_;
  std::unique_ptr<QueueSource> second_;
};

}  // namespace dqsched::exec

#endif  // DQSCHED_EXEC_CHAIN_SOURCE_H_
