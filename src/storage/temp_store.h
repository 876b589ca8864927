// Temporary relations on the mediator's local disk.
//
// Used by: partial materialization fragments (MF(p), paper Section 4.4),
// the Materialize-All strategy's phase 1, operand spilling, and the plan
// splits performed by the dynamic optimizer under memory pressure
// (Section 4.2).
//
// Simulation note: tuple bytes live in host memory (this is a simulator),
// but every access is charged to the simulated disk in multi-page chunks.
// A temp whose total size fits the Table 1 I/O cache (8 pages) is read back
// for free — it never left the cache. A temp fed one unfiltered stream
// borrows that run of its source relation instead of copying it
// (storage/tuple_pages.h); reads then hand out spans of the relation.

#ifndef DQSCHED_STORAGE_TEMP_STORE_H_
#define DQSCHED_STORAGE_TEMP_STORE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "sim/cost_model.h"
#include "sim/disk.h"
#include "sim/sim_clock.h"
#include "storage/tuple.h"
#include "storage/tuple_pages.h"

namespace dqsched::storage {

/// Aggregate temp-store statistics for one execution.
struct TempStoreStats {
  int64_t temps_created = 0;
  int64_t tuples_written = 0;
  int64_t tuples_read = 0;
  int64_t cache_served_reads = 0;  // reads served from the I/O cache

  /// Aggregates stats across executions (multi-query accounting).
  TempStoreStats& operator+=(const TempStoreStats& other) {
    temps_created += other.temps_created;
    tuples_written += other.tuples_written;
    tuples_read += other.tuples_read;
    cache_served_reads += other.cache_served_reads;
    return *this;
  }
};

/// Tuples a temp read hands out: `count` tuples at `data`, which is a span
/// of the temp's borrowed source-relation run when `in_relation` and the
/// reader's buffer otherwise.
struct TempRead {
  const Tuple* data = nullptr;
  int64_t count = 0;
  bool in_relation = false;
};

/// Manages simulated on-disk temporary relations. Single-threaded; all
/// methods charge the mediator clock (per-I/O CPU; synchronous I/O waits)
/// and the shared disk.
class TempStore {
 public:
  TempStore(const sim::CostModel* cost, sim::SimDisk* disk,
            sim::SimClock* clock)
      : cost_(cost), disk_(disk), clock_(clock) {}

  TempStore(const TempStore&) = delete;
  TempStore& operator=(const TempStore&) = delete;

  /// Creates an empty, unsealed temp relation.
  TempId Create(std::string name);

  /// Appends `n` tuples to an unsealed temp. Full chunks are written to the
  /// simulated disk; `async_io` selects write-behind (CPU continues) vs
  /// synchronous writes (CPU blocks until the arm finishes). With
  /// `in_relation` the tuples are a span of a source relation, which the
  /// temp may borrow instead of copying (TuplePages::Append).
  void Append(TempId id, const Tuple* data, int64_t n, bool async_io,
              bool in_relation = false);

  /// Flushes any buffered remainder and freezes the cardinality. Reading is
  /// only allowed on sealed temps.
  void Seal(TempId id);

  /// Materializes a pre-sealed temp holding `tuples` (a result-cache hit):
  /// a borrowed segment's run is borrowed again, a paged one is copied. No
  /// disk writes are charged: the bytes were written (and paid for) when
  /// the segment was originally materialized; the cache only restores the
  /// mapping. Reads charge normally.
  TempId AdoptSealed(std::string name, const TuplePages& tuples);

  /// Hands a sealed temp's pages (or borrowed run) to the caller and marks
  /// the temp dropped
  /// (cache admission moves a completed MF into the cache through this).
  /// No simulated charge — admission is host-side bookkeeping, like
  /// planning_host_seconds.
  TuplePages TakeTuples(TempId id);

  bool IsSealed(TempId id) const;
  /// True while the temp holds a borrowed source-relation run.
  bool Borrowed(TempId id) const;
  int64_t Cardinality(TempId id) const;
  /// Pages the sealed temp occupies on disk.
  int64_t Pages(TempId id) const;

  /// Reads up to `max` tuples starting at `cursor`, charging chunk reads to
  /// the disk: in place for a borrowed temp, otherwise copied into `out`
  /// (room for `max`). `*ready` receives the simulated time at which the
  /// data is available (>= now for async reads; with synchronous reads the
  /// clock itself is advanced instead).
  TempRead Read(TempId id, int64_t cursor, Tuple* out, int64_t max,
                bool async_io, SimTime* ready);

  /// Appends the whole sealed temp to `out` (borrowing a borrowed temp's
  /// run) with the charges of Read(id, 0, ..., Cardinality(id), async_io,
  /// ready). Returns the count.
  int64_t ReadAll(TempId id, TuplePages* out, bool async_io, SimTime* ready);

  // --- Prefetching read path (used by asynchronous TempSources) ---------
  /// True when the whole sealed temp fits the Table 1 I/O cache: it never
  /// left memory and reads are free.
  bool FitsIoCache(TempId id) const;

  /// Issues an asynchronous disk read of `tuples` tuples (rounded up to
  /// whole pages) of the sealed temp; charges the per-I/O CPU cost and
  /// returns the transfer's completion time. The caller tracks which tuple
  /// ranges each issue covers.
  SimTime IssueRead(TempId id, int64_t tuples);

  /// Reads `n` tuples at `cursor` like Read, with no device charge — the
  /// data must have been transferred by a prior IssueRead (the caller's
  /// responsibility).
  TempRead ReadIssued(TempId id, int64_t cursor, Tuple* out, int64_t n);

  /// Releases the temp's storage. Reading or appending after Drop aborts.
  void Drop(TempId id);
  /// True once Drop was applied (the temp no longer participates in
  /// cardinality conservation laws).
  bool IsDropped(TempId id) const;

  const TempStoreStats& stats() const { return stats_; }

 private:
  struct TempRel {
    std::string name;
    TuplePages tuples;
    bool sealed = false;
    bool dropped = false;
    int64_t flushed_tuples = 0;   // write watermark charged to disk
    int64_t fetched_tuples = 0;   // read watermark charged to disk
    SimTime last_read_ready = 0;  // completion of the latest chunk read
  };

  TempRel& Get(TempId id);
  const TempRel& Get(TempId id) const;
  /// Charges one Transfer of `pages` pages plus the per-I/O CPU cost.
  SimTime ChargeIo(TempId id, int64_t pages, bool is_write, bool async_io);
  /// The charges and stats of reading up to `max` tuples at `cursor` of the
  /// sealed temp; returns the count the caller then copies out.
  int64_t ChargeRead(TempId id, int64_t cursor, int64_t max, bool async_io,
                     SimTime* ready);

  const sim::CostModel* cost_;
  sim::SimDisk* disk_;
  sim::SimClock* clock_;
  std::vector<TempRel> temps_;
  TempStoreStats stats_;
};

}  // namespace dqsched::storage

#endif  // DQSCHED_STORAGE_TEMP_STORE_H_
