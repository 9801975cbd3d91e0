#include "src/shard/router.hpp"

#include <algorithm>

namespace acn::shard {

RoutePlan ShardRouter::plan(const KeyFootprint& predicted) const {
  RoutePlan out;
  out.groups = map_.shards_touched(predicted);
  // A transaction with no predictable keys still needs a home; group 0 is
  // as good as any, and its reads go to whichever groups own their keys.
  if (out.groups.empty()) out.groups.push_back(0);
  return out;
}

void ShardRouter::count_misprediction(const RoutePlan& predicted,
                                      const RoutePlan& committed) const {
  if (!std::includes(predicted.groups.begin(), predicted.groups.end(),
                     committed.groups.begin(), committed.groups.end()))
    mispredicted_.fetch_add(1, std::memory_order_relaxed);
}

RouterStats ShardRouter::stats() const {
  RouterStats out;
  out.mispredicted = mispredicted_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace acn::shard
