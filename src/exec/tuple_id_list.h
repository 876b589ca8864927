// Selection vector for batch-at-a-time kernels.
//
// A TupleIdList marks which tuples of a batch are still alive after a
// filter, as a bit vector of one bit per input position. Operators refine
// the list in place instead of materializing intermediate tuple buffers;
// only the sink (or a probe's expansion pass) ever copies tuples. Walks
// visit set bits only and skip whole zero words; a *full* list (every bit
// set — the common case for filterless chains) is skipped by the kernels
// altogether, which test Full() and read the batch directly. Ids are always
// visited in ascending order, which is what keeps vectorized output
// byte-identical to the scalar kernels' tuple-at-a-time order.

#ifndef DQSCHED_EXEC_TUPLE_ID_LIST_H_
#define DQSCHED_EXEC_TUPLE_ID_LIST_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/macros.h"

namespace dqsched::exec {

/// Bit-vector backed list of tuple ids in [0, capacity).
class TupleIdList {
 public:
  using Word = uint64_t;
  static constexpr uint32_t kBitsPerWord = 64;

  /// Sets the universe to [0, capacity) and clears the list. Backing
  /// storage is grow-only, so per-batch reuse never reallocates.
  void Resize(uint32_t capacity) {
    capacity_ = capacity;
    const size_t words = NumWords();
    if (words_.size() < words) words_.resize(words);
    Clear();
  }

  uint32_t capacity() const { return capacity_; }
  uint32_t Count() const { return count_; }
  bool Empty() const { return count_ == 0; }
  bool Full() const { return count_ == capacity_; }

  void Clear() {
    std::fill(words_.begin(), words_.begin() + NumWords(), Word{0});
    count_ = 0;
  }

  /// Selects every id in the universe (sets the partial last word exactly).
  void AddAll() {
    const size_t words = NumWords();
    std::fill(words_.begin(), words_.begin() + words, ~Word{0});
    if (capacity_ % kBitsPerWord != 0 && words > 0) {
      words_[words - 1] = (Word{1} << (capacity_ % kBitsPerWord)) - 1;
    }
    count_ = capacity_;
  }

  void Add(uint32_t id) {
    DQS_CHECK_MSG(id < capacity_, "tuple id %u out of range %u", id,
                  capacity_);
    Word& w = words_[id / kBitsPerWord];
    const Word bit = Word{1} << (id % kBitsPerWord);
    count_ += (w & bit) == 0;
    w |= bit;
  }

  bool Contains(uint32_t id) const {
    DQS_CHECK_MSG(id < capacity_, "tuple id %u out of range %u", id,
                  capacity_);
    return (words_[id / kBitsPerWord] >> (id % kBitsPerWord)) & 1;
  }

  /// Keeps only ids where `pred(id)` holds: walks the set bits in
  /// ascending order, skipping zero words.
  template <typename Pred>
  void Refine(Pred&& pred) {
    const size_t words = NumWords();
    uint32_t count = 0;
    for (size_t w = 0; w < words; ++w) {
      Word in = words_[w];
      if (in == 0) continue;
      Word out = 0;
      const uint32_t base = static_cast<uint32_t>(w) * kBitsPerWord;
      while (in != 0) {
        const uint32_t bit = CountTrailingZeros(in);
        in &= in - 1;
        if (pred(base + bit)) out |= Word{1} << bit;
      }
      words_[w] = out;
      count += PopCount(out);
    }
    count_ = count;
  }

  /// Invokes fn(id) for every selected id, ascending.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    const size_t words = NumWords();
    for (size_t w = 0; w < words; ++w) {
      Word bits = words_[w];
      if (bits == 0) continue;
      const uint32_t base = static_cast<uint32_t>(w) * kBitsPerWord;
      while (bits != 0) {
        fn(base + CountTrailingZeros(bits));
        bits &= bits - 1;
      }
    }
  }

  /// Writes the selected ids (ascending) into `out`; returns the count.
  /// `out` must hold at least Count() entries.
  uint32_t Materialize(uint32_t* out) const {
    uint32_t n = 0;
    ForEach([&](uint32_t id) { out[n++] = id; });
    return n;
  }

  size_t NumWords() const {
    return (static_cast<size_t>(capacity_) + kBitsPerWord - 1) / kBitsPerWord;
  }

  static uint32_t PopCount(Word w) {
    return static_cast<uint32_t>(__builtin_popcountll(w));
  }
  static uint32_t CountTrailingZeros(Word w) {
    return static_cast<uint32_t>(__builtin_ctzll(w));
  }

 private:
  std::vector<Word> words_;
  uint32_t capacity_ = 0;
  uint32_t count_ = 0;
};

}  // namespace dqsched::exec

#endif  // DQSCHED_EXEC_TUPLE_ID_LIST_H_
