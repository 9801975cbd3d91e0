// Footprint-based shard routing.
//
// The router classifies a transaction by the quorum groups its keys live
// on.  plan() runs at the start of every attempt (CrossShardCoordinator::
// begin), over the *predicted* footprint — the same acn::predicted_footprint
// signal the contention scheduler consumes.  The plan's home group serves
// the transaction's replicated-class reads.
//
// The plan never decides the commit: a ShardTx reads every key from the
// group that owns it and commits on the groups it ACTUALLY touched.
// Predictions are blind to keys produced mid-transaction, so a pointer
// chase onto another group's key simply makes the commit a 2PC across both;
// count_misprediction() records that escape once per committed
// transaction.  The reverse (predicted groups never touched) is harmless
// over-prediction and counts nothing.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "src/shard/shard_map.hpp"

namespace acn::shard {

struct RoutePlan {
  /// Participant groups, sorted ascending, deduplicated.  Never empty for
  /// a routed transaction (a key-less footprint routes to group 0).
  std::vector<std::uint32_t> groups;

  bool single_shard() const noexcept { return groups.size() == 1; }
  /// The group a single-shard transaction runs on (first group otherwise).
  std::uint32_t home() const noexcept {
    return groups.empty() ? 0 : groups.front();
  }

  friend bool operator==(const RoutePlan&, const RoutePlan&) = default;
};

struct RouterStats {
  /// Committed transactions whose plan spans a group the prediction
  /// missed.
  std::uint64_t mispredicted = 0;
};

class ShardRouter {
 public:
  explicit ShardRouter(const ShardMap& map) : map_(map) {}

  const ShardMap& map() const noexcept { return map_; }

  /// Classify a predicted footprint into a participant-group plan.
  RoutePlan plan(const KeyFootprint& predicted) const;

  /// Count one committed transaction whose `committed` plan spans a group
  /// `predicted` missed (both plans sorted).
  void count_misprediction(const RoutePlan& predicted,
                           const RoutePlan& committed) const;

  RouterStats stats() const;

 private:
  const ShardMap& map_;
  mutable std::atomic<std::uint64_t> mispredicted_{0};
};

}  // namespace acn::shard
