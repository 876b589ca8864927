#include "exec/operand.h"

#include <algorithm>
#include <utility>

#include "common/macros.h"

namespace dqsched::exec {

void Operand::Append(ExecContext& ctx, const storage::Tuple* data, int64_t n,
                     bool async_io, bool in_relation) {
  DQS_CHECK_MSG(!sealed_, "append to sealed operand %s", name_.c_str());
  if (n <= 0) return;
  cardinality_ += n;
  if (spilled()) {
    ctx.temps.Append(temp_, data, n, async_io, in_relation);
    return;
  }
  const int64_t bytes = n * ctx.cost->tuple_size_bytes;
  if (ctx.memory.Grant(bytes).ok()) {
    tuples_.Append(data, n, in_relation);
    granted_tuple_bytes_ += bytes;
    return;
  }
  // Memory pressure: spill everything accumulated so far plus this batch
  // to a disk temp and release the grants.
  temp_ = ctx.temps.Create("operand_" + name_);
  MoveTuplesToTemp(ctx, async_io);
  ctx.memory.Release(granted_tuple_bytes_);
  granted_tuple_bytes_ = 0;
  ctx.temps.Append(temp_, data, n, async_io, in_relation);
}

std::shared_ptr<const HashIndex> IndexSet::Adopt(JoinId join) {
  std::lock_guard<std::mutex> lock(mu_);
  std::shared_ptr<const HashIndex> index = slots_[static_cast<size_t>(join)];
  if (index != nullptr) ++adoptions_;
  return index;
}

std::shared_ptr<const HashIndex> IndexSet::Publish(
    JoinId join, std::shared_ptr<const HashIndex> built) {
  // `built` is a parameter, so a discarded duplicate is freed after the
  // lock is released.
  std::lock_guard<std::mutex> lock(mu_);
  std::shared_ptr<const HashIndex>& slot = slots_[static_cast<size_t>(join)];
  if (slot == nullptr) slot = built;
  return slot;
}

int IndexSet::published() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(
      std::count_if(slots_.begin(), slots_.end(),
                    [](const auto& slot) { return slot != nullptr; }));
}

int64_t IndexSet::adoptions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return adoptions_;
}

void Operand::Seal(ExecContext& ctx) {
  if (sealed_) return;
  if (spilled()) ctx.temps.Seal(temp_);
  sealed_ = true;
  exact_ = set_ != nullptr && cardinality_ == set_->exact_card(join_) &&
           std::all_of(upstream_.begin(), upstream_.end(),
                       [](const Operand* up) { return up->exact(); });
}

int64_t Operand::BytesToLoad(const ExecContext& ctx) const {
  if (loaded()) return 0;
  int64_t bytes = HashIndex::EstimateBytes(cardinality_);
  if (spilled()) bytes += cardinality_ * ctx.cost->tuple_size_bytes;
  return bytes;
}

Status Operand::Load(ExecContext& ctx, bool async_io) {
  DQS_CHECK_MSG(sealed_, "load of unsealed operand %s", name_.c_str());
  if (loaded()) return Status::Ok();

  if (spilled()) {
    const int64_t bytes = cardinality_ * ctx.cost->tuple_size_bytes;
    DQS_RETURN_IF_ERROR(ctx.memory.Grant(bytes));
    granted_tuple_bytes_ = bytes;
    SimTime ready = ctx.clock.now();
    ctx.temps.ReadAll(temp_, &tuples_, async_io, &ready);
    // The index build below needs the data; wait for the last chunk.
    ctx.clock.BusyUntil(ready);
  }

  const int64_t index_bytes = HashIndex::EstimateBytes(cardinality_);
  Status granted = ctx.memory.Grant(index_bytes);
  if (!granted.ok()) {
    // Roll back the reload so a later retry starts clean.
    if (spilled()) {
      tuples_.Clear();
      ctx.memory.Release(granted_tuple_bytes_);
      granted_tuple_bytes_ = 0;
    }
    return granted;
  }
  granted_index_bytes_ = index_bytes;
  ctx.ChargeInstr(cardinality_ * ctx.cost->instr_hash_insert);
  if (exact_) index_ = set_->Adopt(join_);
  if (index_ != nullptr) {
    DQS_DCHECK_MSG(index_->Matches(tuples_, field_),
                   "adopted index does not match operand %s", name_.c_str());
    return Status::Ok();
  }
  auto built = std::make_shared<HashIndex>();
  built->Build(tuples_, field_);
  index_ = exact_ ? set_->Publish(join_, std::move(built)) : std::move(built);
  return Status::Ok();
}

void Operand::Unload(ExecContext& ctx) {
  if (!loaded()) return;
  index_.reset();
  ctx.memory.Release(granted_index_bytes_);
  granted_index_bytes_ = 0;
  if (spilled()) {
    // The in-memory tuples are a reloaded copy; the temp is authoritative.
    tuples_.Clear();
    ctx.memory.Release(granted_tuple_bytes_);
    granted_tuple_bytes_ = 0;
  }
}

void Operand::ReleaseAll(ExecContext& ctx) {
  index_.reset();
  tuples_.Clear();
  ctx.memory.Release(granted_tuple_bytes_ + granted_index_bytes_);
  granted_tuple_bytes_ = 0;
  granted_index_bytes_ = 0;
  if (spilled()) {
    ctx.temps.Drop(temp_);
    temp_ = kInvalidId;
  }
}

void Operand::SpillToDisk(ExecContext& ctx) {
  if (spilled()) return;
  DQS_CHECK_MSG(sealed_ && !loaded(),
                "SpillToDisk of %s requires a sealed, unprobed operand",
                name_.c_str());
  temp_ = ctx.temps.Create("spill_" + name_);
  MoveTuplesToTemp(ctx, /*async_io=*/true);
  ctx.temps.Seal(temp_);
  ctx.memory.Release(granted_tuple_bytes_);
  granted_tuple_bytes_ = 0;
}

void Operand::MoveTuplesToTemp(ExecContext& ctx, bool async_io) {
  // Page by page: the temp flushes the same chunks at the same points as
  // one append of the whole run would. A borrowed run stays borrowed.
  tuples_.ForEachSpan([&](const storage::Tuple* run, int64_t n) {
    ctx.temps.Append(temp_, run, n, async_io, tuples_.borrowed());
  });
  tuples_.Clear();
}

Operand& OperandRegistry::Register(JoinId join, std::string name,
                                   int build_key_field) {
  DQS_CHECK_MSG(join == static_cast<JoinId>(operands_.size()),
                "operands must register in join order");
  // dqs-analyze: begin-allow(kernel-push) — registry setup, one entry per join
  operands_.push_back(
      std::make_unique<Operand>(join, std::move(name), build_key_field));
  // dqs-analyze: end-allow(kernel-push)
  return *operands_.back();
}

Operand& OperandRegistry::Get(JoinId join) {
  DQS_CHECK_MSG(join >= 0 && static_cast<size_t>(join) < operands_.size(),
                "bad join id %d", join);
  return *operands_[static_cast<size_t>(join)];
}

const Operand& OperandRegistry::Get(JoinId join) const {
  return const_cast<OperandRegistry*>(this)->Get(join);
}

}  // namespace dqsched::exec
