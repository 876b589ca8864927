#include "storage/temp_store.h"

#include <algorithm>
#include <utility>

#include "common/macros.h"

namespace dqsched::storage {

TempId TempStore::Create(std::string name) {
  TempRel rel;
  rel.name = std::move(name);
  temps_.push_back(std::move(rel));
  ++stats_.temps_created;
  return static_cast<TempId>(temps_.size() - 1);
}

TempStore::TempRel& TempStore::Get(TempId id) {
  DQS_CHECK_MSG(id >= 0 && static_cast<size_t>(id) < temps_.size(),
                "bad temp id %d", id);
  TempRel& rel = temps_[static_cast<size_t>(id)];
  DQS_CHECK_MSG(!rel.dropped, "access to dropped temp %d (%s)", id,
                rel.name.c_str());
  return rel;
}

const TempStore::TempRel& TempStore::Get(TempId id) const {
  return const_cast<TempStore*>(this)->Get(id);
}

SimTime TempStore::ChargeIo(TempId id, int64_t pages, bool is_write,
                            bool async_io) {
  clock_->Advance(cost_->InstrTime(cost_->instr_per_io));
  const sim::SimDisk::IoResult io =
      disk_->Transfer(clock_->now(), id, pages, is_write);
  if (!async_io) clock_->BusyUntil(io.data_done);
  return io.data_done;
}

void TempStore::Append(TempId id, const Tuple* data, int64_t n,
                       bool async_io, bool in_relation) {
  if (n <= 0) return;
  TempRel& rel = Get(id);
  DQS_CHECK_MSG(!rel.sealed, "append to sealed temp %d (%s)", id,
                rel.name.c_str());
  rel.tuples.Append(data, n, in_relation);
  stats_.tuples_written += n;
  // Flush whole chunks behind the write watermark.
  const int64_t chunk_tuples =
      static_cast<int64_t>(cost_->disk_chunk_pages) * cost_->TuplesPerPage();
  while (rel.tuples.size() - rel.flushed_tuples >= chunk_tuples) {
    ChargeIo(id, cost_->disk_chunk_pages, /*is_write=*/true, async_io);
    rel.flushed_tuples += chunk_tuples;
  }
}

void TempStore::Seal(TempId id) {
  TempRel& rel = Get(id);
  if (rel.sealed) return;
  const int64_t remainder = rel.tuples.size() - rel.flushed_tuples;
  if (remainder > 0) {
    // Asynchronous flush of the tail: sealing never blocks the CPU; any
    // subsequent read is serialized behind it by the disk's busy queue.
    ChargeIo(id, cost_->PagesForTuples(remainder), /*is_write=*/true,
             /*async_io=*/true);
    rel.flushed_tuples = rel.tuples.size();
  }
  rel.sealed = true;
}

TempId TempStore::AdoptSealed(std::string name, const TuplePages& tuples) {
  const TempId id = Create(std::move(name));
  TempRel& rel = Get(id);
  rel.tuples.AppendAll(tuples);
  rel.flushed_tuples = tuples.size();  // on disk already: adopted segments
                                       // were flushed when first materialized
  rel.sealed = true;
  return id;
}

TuplePages TempStore::TakeTuples(TempId id) {
  TempRel& rel = Get(id);
  DQS_CHECK_MSG(rel.sealed, "TakeTuples of unsealed temp %d", id);
  rel.dropped = true;
  return std::move(rel.tuples);
}

bool TempStore::IsSealed(TempId id) const { return Get(id).sealed; }

bool TempStore::Borrowed(TempId id) const { return Get(id).tuples.borrowed(); }

int64_t TempStore::Cardinality(TempId id) const {
  const TempRel& rel = Get(id);
  DQS_CHECK_MSG(rel.sealed, "cardinality of unsealed temp %d", id);
  return rel.tuples.size();
}

int64_t TempStore::Pages(TempId id) const {
  return cost_->PagesForTuples(Cardinality(id));
}

TempRead TempStore::Read(TempId id, int64_t cursor, Tuple* out, int64_t max,
                         bool async_io, SimTime* ready) {
  const int64_t n = ChargeRead(id, cursor, max, async_io, ready);
  const TuplePages& tuples = Get(id).tuples;
  return {tuples.Read(cursor, n, out), n, tuples.borrowed()};
}

int64_t TempStore::ReadAll(TempId id, TuplePages* out, bool async_io,
                           SimTime* ready) {
  const int64_t n = ChargeRead(id, 0, Cardinality(id), async_io, ready);
  out->AppendAll(Get(id).tuples);
  return n;
}

int64_t TempStore::ChargeRead(TempId id, int64_t cursor, int64_t max,
                              bool async_io, SimTime* ready) {
  TempRel& rel = Get(id);
  DQS_CHECK_MSG(rel.sealed, "read of unsealed temp %d (%s)", id,
                rel.name.c_str());
  const int64_t card = rel.tuples.size();
  DQS_CHECK_MSG(cursor >= 0 && cursor <= card, "bad cursor %lld",
                static_cast<long long>(cursor));
  const int64_t n = std::min(max, card - cursor);
  if (n <= 0) {
    *ready = clock_->now();
    return 0;
  }
  stats_.tuples_read += n;

  // Whole temp fits the I/O cache: it never left memory, reads are free.
  if (cost_->PagesForTuples(card) <= cost_->io_cache_pages) {
    ++stats_.cache_served_reads;
    *ready = clock_->now();
    return n;
  }

  // Fetch chunks covering [fetched, cursor + n).
  SimTime latest = rel.last_read_ready;
  const int64_t chunk_tuples =
      static_cast<int64_t>(cost_->disk_chunk_pages) * cost_->TuplesPerPage();
  while (rel.fetched_tuples < cursor + n) {
    const int64_t take = std::min(chunk_tuples, card - rel.fetched_tuples);
    latest = ChargeIo(id, cost_->PagesForTuples(take), /*is_write=*/false,
                      async_io);
    rel.fetched_tuples += take;
  }
  rel.last_read_ready = latest;
  *ready = std::max(latest, clock_->now());
  return n;
}

bool TempStore::FitsIoCache(TempId id) const {
  return cost_->PagesForTuples(Cardinality(id)) <= cost_->io_cache_pages;
}

SimTime TempStore::IssueRead(TempId id, int64_t tuples) {
  TempRel& rel = Get(id);
  DQS_CHECK_MSG(rel.sealed, "IssueRead of unsealed temp %d (%s)", id,
                rel.name.c_str());
  DQS_CHECK_MSG(tuples > 0, "IssueRead of %lld tuples",
                static_cast<long long>(tuples));
  return ChargeIo(id, cost_->PagesForTuples(tuples), /*is_write=*/false,
                  /*async_io=*/true);
}

TempRead TempStore::ReadIssued(TempId id, int64_t cursor, Tuple* out,
                               int64_t n) {
  TempRel& rel = Get(id);
  DQS_CHECK_MSG(rel.sealed, "ReadIssued of unsealed temp %d", id);
  DQS_CHECK_MSG(cursor >= 0 && cursor + n <= rel.tuples.size(),
                "ReadIssued out of range");
  stats_.tuples_read += n;
  return {rel.tuples.Read(cursor, n, out), n, rel.tuples.borrowed()};
}

void TempStore::Drop(TempId id) {
  TempRel& rel = Get(id);
  rel.tuples.Clear();
  rel.dropped = true;
}

bool TempStore::IsDropped(TempId id) const {
  // Deliberately not through Get(): this is the one accessor that must be
  // callable on a dropped temp — cancellation paths and the invariant
  // auditor use it to decide whether the temp may be touched at all.
  DQS_CHECK_MSG(id >= 0 && static_cast<size_t>(id) < temps_.size(),
                "bad temp id %d", id);
  return temps_[static_cast<size_t>(id)].dropped;
}

}  // namespace dqsched::storage
