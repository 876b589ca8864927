// Build-side operands of hash joins.
//
// The chain producing a join's build input terminates at an Operand — the
// paper's implicit `mat` before a blocking edge: "such a materialization
// can occur in memory or on disk depending on the available resources"
// (Section 2.2). Tuples accumulate in memory while the accountant grants
// space and spill transparently to a disk temp otherwise. When the probe
// chain opens, the operand is (re)loaded if spilled and gets a hash index;
// both are charged to the simulation. An operand that holds exactly the
// reference executor's rows for its join adopts the index its prepared
// instance published, or builds and publishes it; any other operand builds
// a private one (DESIGN.md §5, "Operands and shared indexes"). The charges
// are the same either way.

#ifndef DQSCHED_EXEC_OPERAND_H_
#define DQSCHED_EXEC_OPERAND_H_

#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "exec/exec_context.h"
#include "exec/hash_index.h"
#include "storage/tuple.h"
#include "storage/tuple_pages.h"

namespace dqsched::exec {

/// The hash indexes of one prepared instance (a data set and a plan), one
/// slot per join, shared by every run of that instance. A slot is filled
/// once, by the first exact operand of its join to load, and its index is
/// never mutated afterwards. Slots sit under a mutex: the runs of one
/// instance may load on several threads at once.
class IndexSet {
 public:
  /// `exact_cards[j]`: the reference executor's output cardinality of the
  /// chain producing join j's operand.
  explicit IndexSet(std::vector<int64_t> exact_cards)
      : exact_cards_(std::move(exact_cards)),
        slots_(exact_cards_.size()) {}

  IndexSet(const IndexSet&) = delete;
  IndexSet& operator=(const IndexSet&) = delete;

  int64_t exact_card(JoinId join) const {
    return exact_cards_[static_cast<size_t>(join)];
  }

  /// The index published for `join`, or null. A hit counts an adoption.
  std::shared_ptr<const HashIndex> Adopt(JoinId join);
  /// Publishes `built` for `join` unless another operand did first, and
  /// returns the slot's index: `built`, or the winner's, in which case
  /// `built` is discarded.
  std::shared_ptr<const HashIndex> Publish(
      JoinId join, std::shared_ptr<const HashIndex> built);

  /// Read-only counts: slots published, and adoptions served.
  int published() const;
  int64_t adoptions() const;

 private:
  const std::vector<int64_t> exact_cards_;
  mutable std::mutex mu_;
  std::vector<std::shared_ptr<const HashIndex>> slots_;
  int64_t adoptions_ = 0;
};

/// One join's materialized build input plus its (lazily built or adopted)
/// hash index.
class Operand {
 public:
  Operand(JoinId join, std::string name, int build_key_field)
      : join_(join), name_(std::move(name)), field_(build_key_field) {}

  Operand(const Operand&) = delete;
  Operand& operator=(const Operand&) = delete;

  JoinId join() const { return join_; }
  const std::string& name() const { return name_; }
  int key_field() const { return field_; }

  /// Appends `n` tuples produced by the build chain. Grants memory per
  /// batch; the first failed grant spills everything to a disk temp and
  /// appends there from then on. Never fails. With `in_relation` the
  /// tuples are a span of a source relation, which the operand (or its
  /// spill temp) may borrow instead of copying (TuplePages::Append).
  void Append(ExecContext& ctx, const storage::Tuple* data, int64_t n,
              bool async_io, bool in_relation = false);

  /// Lets this operand share its index through `set` (null: always build
  /// privately). `upstream` are the operands its producing chain probes.
  void ShareIndexes(IndexSet* set, std::vector<const Operand*> upstream) {
    set_ = set;
    upstream_ = std::move(upstream);
  }

  /// Freezes the operand; its exact cardinality becomes authoritative, and
  /// so does whether it is exact: its cardinality equals its set's exact
  /// cardinality and every upstream operand is exact. A chain reads its
  /// source in relation order, so its output over a source prefix is a
  /// prefix of its full output; an exact operand therefore holds the
  /// reference's rows in the reference's order.
  void Seal(ExecContext& ctx);

  bool sealed() const { return sealed_; }
  bool exact() const { return exact_; }
  bool spilled() const { return temp_ != kInvalidId; }
  int64_t cardinality() const { return cardinality_; }
  /// Memory currently held for the raw tuples (0 when spilled/released).
  int64_t resident_bytes() const { return granted_tuple_bytes_; }
  /// Every byte this operand currently holds against the accountant
  /// (tuples + hash index). The invariant auditor balances the sum of
  /// these against MemoryAccountant::granted().
  int64_t granted_bytes() const {
    return granted_tuple_bytes_ + granted_index_bytes_;
  }

  /// Memory that must be granted before Load() can succeed: the hash index
  /// plus, when spilled, the tuples themselves.
  int64_t BytesToLoad(const ExecContext& ctx) const;

  /// Prepares the operand for probing: reads it back from disk if spilled
  /// (charged), grants memory and charges the index build per insert. An
  /// exact operand then adopts its set's index, or builds and publishes
  /// one; any other builds a private index. Fails with kResourceExhausted
  /// when a grant fails; the operand is left unloaded in that case.
  Status Load(ExecContext& ctx, bool async_io);

  bool loaded() const { return index_ != nullptr; }
  const HashIndex& index() const { return *index_; }
  const storage::TuplePages& tuples() const { return tuples_; }

  /// Undoes a Load() without losing data: drops the index (and, for a
  /// spilled operand, the reloaded tuple copy — the temp still holds
  /// everything), returning the grants. Used when opening a fragment fails
  /// partway and the operand must remain probe-able later.
  void Unload(ExecContext& ctx);

  /// Releases everything: index, in-memory tuples, disk temp. Called when
  /// the (single) probing fragment of this join closes — the operand is
  /// never needed again afterwards.
  void ReleaseAll(ExecContext& ctx);

  /// Evicts a sealed, resident, not-yet-probed operand to a disk temp,
  /// returning its memory grant. Used by the dynamic optimizer to relieve
  /// memory pressure (the operand reloads — with I/O charges — when its
  /// prober opens). No-op if already spilled.
  void SpillToDisk(ExecContext& ctx);

 private:
  /// Writes the in-memory tuples (or their borrowed run) to the (just
  /// created) temp and frees them.
  void MoveTuplesToTemp(ExecContext& ctx, bool async_io);

  JoinId join_;
  std::string name_;
  int field_;

  storage::TuplePages tuples_;
  /// Built here or adopted from set_; immutable either way.
  std::shared_ptr<const HashIndex> index_;
  IndexSet* set_ = nullptr;
  std::vector<const Operand*> upstream_;
  TempId temp_ = kInvalidId;
  bool sealed_ = false;
  bool exact_ = false;
  int64_t cardinality_ = 0;
  int64_t granted_tuple_bytes_ = 0;
  int64_t granted_index_bytes_ = 0;
};

/// The operands of every join of one execution, indexed by JoinId.
class OperandRegistry {
 public:
  explicit OperandRegistry(int num_joins) {
    operands_.reserve(static_cast<size_t>(num_joins));
  }

  /// Registers the operand for the next join id; must be called in order.
  Operand& Register(JoinId join, std::string name, int build_key_field);

  Operand& Get(JoinId join);
  const Operand& Get(JoinId join) const;
  int count() const { return static_cast<int>(operands_.size()); }

 private:
  std::vector<std::unique_ptr<Operand>> operands_;
};

}  // namespace dqsched::exec

#endif  // DQSCHED_EXEC_OPERAND_H_
