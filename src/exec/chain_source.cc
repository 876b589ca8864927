#include "exec/chain_source.h"

#include <algorithm>

namespace dqsched::exec {

ChainSource::PopResult QueueSource::Pop(ExecContext& ctx, storage::Tuple*,
                                        int64_t max) {
  const comm::TupleSpan span = ctx.comm.PopSpan(source_, ctx.clock.now(), max);
  PopResult r;
  r.data = span.data;
  r.count = span.count;
  r.in_relation = true;
  r.from_temp = false;
  r.ready = ctx.clock.now();
  return r;
}

int64_t QueueSource::Available(ExecContext& ctx) {
  return ctx.comm.Available(source_, ctx.clock.now());
}

bool QueueSource::Exhausted(const ExecContext& ctx) const {
  return ctx.comm.SourceExhausted(source_);
}

SimTime QueueSource::NextArrival(const ExecContext& ctx) const {
  return ctx.comm.NextArrival(source_);
}

bool QueueSource::Backpressured(const ExecContext& ctx) const {
  return !ctx.comm.wrapper(source_).Exhausted() &&
         ctx.comm.queue(source_).Full();
}

void TempSource::Advance(ExecContext& ctx) {
  const int64_t card = ctx.temps.Cardinality(temp_);
  if (ctx.temps.FitsIoCache(temp_)) {
    // Never left the I/O cache; everything is ready for free.
    ready_upto_ = issued_upto_ = card;
    return;
  }
  const SimTime now = ctx.clock.now();
  while (!inflight_.empty() && inflight_.front().second <= now) {
    ready_upto_ = inflight_.front().first;
    inflight_.pop_front();
  }
  // Double-buffer with a slow-start ramp: small first chunks give the
  // consumer data after ~one page transfer instead of a full chunk's
  // latency; later chunks grow to the configured size so positioning
  // stays amortized on long scans.
  while (static_cast<int64_t>(inflight_.size()) < 2 && issued_upto_ < card) {
    const int64_t ramp_pages =
        std::min<int64_t>(ctx.cost->disk_chunk_pages,
                          int64_t{4} << std::min<int64_t>(issues_, 8));
    const int64_t chunk_tuples = ramp_pages * ctx.cost->TuplesPerPage();
    const int64_t take = std::min(chunk_tuples, card - issued_upto_);
    const SimTime done = ctx.temps.IssueRead(temp_, take);
    issued_upto_ += take;
    ++issues_;
    // dqs-analyze: begin-allow(kernel-push) — per-read-request bookkeeping
    inflight_.emplace_back(issued_upto_, done);
    // dqs-analyze: end-allow(kernel-push)
  }
}

ChainSource::PopResult TempSource::Pop(ExecContext& ctx, storage::Tuple* out,
                                       int64_t max) {
  PopResult r;
  r.from_temp = true;
  r.ready = ctx.clock.now();
  storage::TempRead read;
  if (!async_io_) {
    read = ctx.temps.Read(temp_, cursor_, out, max, /*async_io=*/false,
                          &r.ready);
  } else {
    Advance(ctx);
    const int64_t n = std::min(max, ready_upto_ - cursor_);
    if (n > 0) read = ctx.temps.ReadIssued(temp_, cursor_, out, n);
  }
  r.data = read.data;
  r.count = read.count;
  r.in_relation = read.in_relation;
  cursor_ += r.count;
  return r;
}

int64_t TempSource::Available(ExecContext& ctx) {
  if (!async_io_) return ctx.temps.Cardinality(temp_) - cursor_;
  Advance(ctx);
  return ready_upto_ - cursor_;
}

bool TempSource::Exhausted(const ExecContext& ctx) const {
  return cursor_ >= ctx.temps.Cardinality(temp_);
}

SimTime TempSource::NextArrival(const ExecContext& ctx) const {
  if (Exhausted(ctx)) return kSimTimeNever;
  if (!async_io_ || ready_upto_ > cursor_) return ctx.clock.now();
  // Waiting on the chunk in flight.
  if (!inflight_.empty()) return inflight_.front().second;
  return ctx.clock.now();  // nothing issued yet; Available() will issue
}

ChainSource::PopResult ConcatSource::Pop(ExecContext& ctx,
                                         storage::Tuple* out, int64_t max) {
  if (!first_->Exhausted(ctx)) return first_->Pop(ctx, out, max);
  return second_->Pop(ctx, out, max);
}

int64_t ConcatSource::Available(ExecContext& ctx) {
  if (!first_->Exhausted(ctx)) return first_->Available(ctx);
  return second_->Available(ctx);
}

bool ConcatSource::Exhausted(const ExecContext& ctx) const {
  return first_->Exhausted(ctx) && second_->Exhausted(ctx);
}

SimTime ConcatSource::NextArrival(const ExecContext& ctx) const {
  if (!first_->Exhausted(ctx)) return first_->NextArrival(ctx);
  return second_->NextArrival(ctx);
}

}  // namespace dqsched::exec
