#include "src/dtm/remembered_set.hpp"

#include <algorithm>
#include <stdexcept>

namespace acn::dtm {
namespace {

constexpr std::size_t kMinSlots = 16;

// Murmur3's 64-bit finalizer: transaction ids are often sequential, and
// linear probing needs their low bits spread.
std::size_t mix(std::uint64_t x) noexcept {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return static_cast<std::size_t>(x);
}

}  // namespace

RememberedTxSet::RememberedTxSet(std::size_t cap) : cap_(cap) {
  if (cap == 0 || (cap & (cap - 1)) != 0 || cap > (std::size_t{1} << 31))
    throw std::invalid_argument(
        "RememberedTxSet: cap must be a power of two <= 2^31");
  clear();
}

void RememberedTxSet::clear() {
  ring_.assign(std::min(cap_, kMinSlots), 0);
  ring_.shrink_to_fit();
  index_.assign(2 * ring_.size(), 0);
  index_.shrink_to_fit();
  head_ = tail_ = 0;
  live_ = 0;
}

std::size_t RememberedTxSet::find(TxId tx) const noexcept {
  const std::size_t mask = index_.size() - 1;
  for (std::size_t b = mix(tx) & mask;; b = (b + 1) & mask) {
    const std::uint32_t entry = index_[b];
    if (entry == 0) return kNone;
    if (ring_[entry - 1] == tx) return b;
  }
}

void RememberedTxSet::place(std::uint32_t slot) {
  const std::size_t mask = index_.size() - 1;
  std::size_t b = mix(ring_[slot]) & mask;
  while (index_[b] != 0) b = (b + 1) & mask;
  index_[b] = slot + 1;
}

void RememberedTxSet::remove_bucket(std::size_t bucket) {
  // Backward-shift deletion: pull each later entry of the probe run into
  // the hole unless that would move it before its home bucket.
  const std::size_t mask = index_.size() - 1;
  std::size_t hole = bucket;
  for (std::size_t b = (bucket + 1) & mask; index_[b] != 0;
       b = (b + 1) & mask) {
    const std::size_t home = mix(ring_[index_[b] - 1]) & mask;
    if (((b - home) & mask) >= ((b - hole) & mask)) {
      index_[hole] = index_[b];
      hole = b;
    }
  }
  index_[hole] = 0;
  --live_;
}

void RememberedTxSet::grow() {
  // Runs only before the first eviction (only a ring at the cap evicts), so
  // head_ is 0 and every slot keeps its position in the doubled ring.
  ring_.resize(2 * ring_.size());
  const std::vector<std::uint32_t> old_index = std::move(index_);
  index_.assign(2 * ring_.size(), 0);
  for (const std::uint32_t entry : old_index)
    if (entry != 0) place(entry - 1);
}

void RememberedTxSet::evict_oldest() {
  const auto slot =
      static_cast<std::uint32_t>(head_++ & (ring_.size() - 1));
  // The slot names a live id only if the index still points at it: an
  // erased id is gone from the index, a re-inserted one points later.
  const std::size_t bucket = find(ring_[slot]);
  if (bucket != kNone && index_[bucket] == slot + 1) remove_bucket(bucket);
}

bool RememberedTxSet::insert(TxId tx) {
  if (contains(tx)) return false;
  if (tail_ - head_ == ring_.size()) {
    if (ring_.size() < cap_)
      grow();
    else
      evict_oldest();
  }
  const auto slot = static_cast<std::uint32_t>(tail_++ & (ring_.size() - 1));
  ring_[slot] = tx;
  place(slot);
  ++live_;
  return true;
}

bool RememberedTxSet::erase(TxId tx) {
  const std::size_t bucket = find(tx);
  if (bucket == kNone) return false;
  remove_bucket(bucket);
  return true;
}

}  // namespace acn::dtm
