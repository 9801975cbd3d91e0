// Bounded FIFO set of transaction ids.
//
// A replica remembers which transactions it committed (so a replayed phase
// two acks kDuplicate) and which it presumed aborted (so a late commit is
// refused kExpired).  Both memories see one insertion per transaction, so
// they are bounded: the set keeps the most recent `cap` insertions and
// forgets the oldest first.  Erasing an id leaves its insertion in the FIFO
// as a stale event that still counts toward the cap but no longer names
// the id, so evicting it can never forget a later re-insertion of the same
// id.
//
// Layout: a power-of-two ring of TxIds (one slot per insertion, in order)
// plus an open-addressing, linear-probing index of ring slots (load at most
// 1/2, backward-shift deletion, no tombstones).  Both start small and grow
// by doubling up to `cap`; when full they cost 16 bytes per remembered id,
// against ~51 for an unordered_set plus a deque.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace acn::dtm {

class RememberedTxSet {
 public:
  using TxId = std::uint64_t;

  /// `cap` (a power of two) bounds the insertions remembered.
  explicit RememberedTxSet(std::size_t cap);

  /// Remember `tx`; false (and no change) when it is already remembered.
  /// Evicts the oldest insertion once `cap` are held.
  bool insert(TxId tx);
  /// Forget `tx`; false when it was not remembered.
  bool erase(TxId tx);
  bool contains(TxId tx) const noexcept { return find(tx) != kNone; }
  /// Ids currently remembered.
  std::size_t size() const noexcept { return live_; }
  /// Forget everything and release the grown storage.
  void clear();

  /// Heap bytes held by the ring and the index.
  std::size_t heap_bytes() const noexcept {
    return ring_.capacity() * sizeof(TxId) +
           index_.capacity() * sizeof(std::uint32_t);
  }

 private:
  static constexpr std::size_t kNone = ~std::size_t{0};

  std::size_t find(TxId tx) const noexcept;  // index bucket, or kNone
  void place(std::uint32_t slot);            // index ring slot `slot`
  void remove_bucket(std::size_t bucket);
  void grow();
  void evict_oldest();

  std::size_t cap_;
  std::vector<TxId> ring_;
  // Bucket -> ring slot + 1; 0 marks an empty bucket.
  std::vector<std::uint32_t> index_;
  // Monotonic ring positions: [head_, tail_) are the remembered insertions.
  std::uint64_t head_ = 0;
  std::uint64_t tail_ = 0;
  std::size_t live_ = 0;
};

}  // namespace acn::dtm
