#include "src/net/faults.hpp"

#include <cstdint>
#include <mutex>

#include "src/common/rng.hpp"

namespace acn::net {
namespace {

std::uint64_t link_key(NodeId from, NodeId to) noexcept {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(from)) << 32) |
         static_cast<std::uint32_t>(to);
}

// Per-thread fault RNG: one process-global generator would serialise every
// client thread on the send path.  Each thread owns a generator seeded
// from the order in which threads first roll a drop (stable under a fixed
// seed and thread count).
Rng& fault_rng() noexcept {
  static std::atomic<std::uint64_t> next_stream{0};
  thread_local Rng rng = [] {
    std::uint64_t stream =
        0xd40bdeadULL + next_stream.fetch_add(1, std::memory_order_relaxed);
    return Rng(splitmix64(stream));
  }();
  return rng;
}

bool roll(double p) noexcept { return p > 0.0 && fault_rng().bernoulli(p); }

}  // namespace

void FaultModel::set_node_down(NodeId id, bool down) {
  std::unique_lock lock(mutex_);
  if (down)
    down_.insert(id);
  else
    down_.erase(id);
  update_active();
}

bool FaultModel::node_down(NodeId id) const {
  std::shared_lock lock(mutex_);
  return down_.count(id) > 0;
}

void FaultModel::set_drop_probability(double p) {
  std::unique_lock lock(mutex_);
  drop_ = p;
  update_active();
}

double FaultModel::drop_probability() const {
  std::shared_lock lock(mutex_);
  return drop_;
}

void FaultModel::set_extra_latency(Nanos extra) {
  std::unique_lock lock(mutex_);
  extra_ = extra;
  update_active();
}

Nanos FaultModel::extra_latency() const {
  std::shared_lock lock(mutex_);
  return extra_;
}

void FaultModel::set_partition(const std::vector<std::vector<NodeId>>& groups) {
  std::unique_lock lock(mutex_);
  groups_.clear();
  for (std::size_t g = 0; g < groups.size(); ++g)
    for (const NodeId id : groups[g]) groups_[id] = static_cast<int>(g);
  partitioned_ = true;
  update_active();
}

void FaultModel::clear_partition() {
  std::unique_lock lock(mutex_);
  groups_.clear();
  partitioned_ = false;
  update_active();
}

bool FaultModel::partitioned() const {
  std::shared_lock lock(mutex_);
  return partitioned_;
}

int FaultModel::group_of(NodeId id) const {
  std::shared_lock lock(mutex_);
  return group(id);
}

int FaultModel::group(NodeId id) const {
  const auto it = groups_.find(id);
  return it == groups_.end() ? 0 : it->second;
}

void FaultModel::set_link_fault(NodeId from, NodeId to, LinkFault fault) {
  std::unique_lock lock(mutex_);
  links_[link_key(from, to)] = fault;
  update_active();
}

void FaultModel::clear_link_fault(NodeId from, NodeId to) {
  std::unique_lock lock(mutex_);
  links_.erase(link_key(from, to));
  update_active();
}

void FaultModel::clear_link_faults() {
  std::unique_lock lock(mutex_);
  links_.clear();
  update_active();
}

Fate FaultModel::fate_under_faults(NodeId from, NodeId to) const {
  Fate fate;
  std::shared_lock lock(mutex_);
  if (down_.count(to) > 0) {
    fate.error = NetErrorCode::kNodeDown;
    return fate;
  }
  if (partitioned_ && group(from) != group(to)) {
    fate.error = NetErrorCode::kPartitioned;
    return fate;
  }
  const LinkFault out = leg(from, to);
  if (roll(out.drop)) {
    fate.error = NetErrorCode::kDropped;
    return fate;
  }
  const LinkFault back = leg(to, from);
  fate.reply_dropped = roll(back.drop);
  fate.extra_out = out.extra_latency;
  fate.extra_back = back.extra_latency;
  return fate;
}

LinkFault FaultModel::leg(NodeId from, NodeId to) const {
  LinkFault leg{drop_, extra_};
  const auto it = links_.find(link_key(from, to));
  if (it != links_.end()) {
    if (it->second.drop > 0.0)
      leg.drop = 1.0 - (1.0 - leg.drop) * (1.0 - it->second.drop);
    leg.extra_latency += it->second.extra_latency;
  }
  return leg;
}

void FaultModel::update_active() {
  active_.store(!down_.empty() || drop_ > 0.0 || extra_ != Nanos{0} ||
                    partitioned_ || !links_.empty(),
                std::memory_order_release);
}

}  // namespace acn::net
