// The fault model: one home for the faults both transports inject.
//
// net::Network (the simulation) and transport::TcpTransport (real sockets)
// each carry one FaultModel through net::Transport, and both ask it the
// same question for every request they send: fate(from, to).  The model
// holds
//   * node-down flags: a down node refuses every message (kNodeDown);
//   * a global drop probability and a global extra one-way latency (a
//     cluster-wide loss burst or latency spike);
//   * symmetric partition groups: messages cross groups only by failing
//     with kPartitioned.  Nodes not named in any group (typically clients)
//     belong to group 0, so `{{}, {8, 9}}` isolates nodes 8 and 9 from the
//     clients and the rest of the cluster;
//   * per-link faults: for one direction of one link, an extra drop
//     probability (combined with the global one as an independent event)
//     and an extra one-way latency.
//
// Drops are rolled independently on the request AND the response leg.  A
// request-leg drop fails the call before the target sees it; a
// response-leg drop loses the reply of a handler that ran — the lost-ack
// hazard two-phase commit must survive (see src/dtm prepare leases).
//
// The rolls draw from one per-thread RNG, seeded from the order in which
// threads first roll a drop, so a fixed seed and thread count replay the
// same drops.  The fault-free path is one atomic load: every setter
// recomputes one `active` flag, and only a message sent while some fault
// is set takes the model's (shared) lock.
#pragma once

#include <atomic>
#include <cstdint>
#include <shared_mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/latency_model.hpp"

namespace acn::net {

using NodeId = int;

enum class NetErrorCode {
  kOk = 0,
  kNodeDown,     // the target is down, or no node has its id
  kDropped,      // a leg dropped, or (TCP) the call timed out
  kPartitioned,  // sender and receiver sit in different partition groups
};

/// Per-link fault state, layered over the global drop knob: an extra drop
/// probability (combined independently with the global one) and added
/// one-way latency for messages travelling this direction of the link.
struct LinkFault {
  double drop = 0.0;
  Nanos extra_latency{0};
};

/// What the fault model decides for one request and its reply.
struct Fate {
  /// kOk, or why the request never reaches its target: kNodeDown,
  /// kPartitioned or kDropped.
  NetErrorCode error = NetErrorCode::kOk;
  /// The target handles the request, but its reply is lost.
  bool reply_dropped = false;
  Nanos extra_out{0};   // fault latency added to the request leg
  Nanos extra_back{0};  // fault latency added to the reply leg
};

class FaultModel {
 public:
  void set_node_down(NodeId id, bool down);
  bool node_down(NodeId id) const;

  /// Probability in [0,1] that any message is dropped.
  void set_drop_probability(double p);
  double drop_probability() const;

  /// Extra one-way latency added to every message.
  void set_extra_latency(Nanos extra);
  Nanos extra_latency() const;

  /// `groups[i]` lists the members of group i; replaces any previous
  /// partition.
  void set_partition(const std::vector<std::vector<NodeId>>& groups);
  void clear_partition();
  bool partitioned() const;
  /// The partition group of `id`: 0 when unlisted or when no partition is
  /// set.
  int group_of(NodeId id) const;

  /// Fault for messages from `from` to `to` (one direction).
  void set_link_fault(NodeId from, NodeId to, LinkFault fault);
  void clear_link_fault(NodeId from, NodeId to);
  void clear_link_faults();

  /// The fate of one request from `from` to `to` and of its reply, decided
  /// in this order: the target is down, a partition separates the two, the
  /// request leg drops, the reply leg drops.  Rolls the calling thread's
  /// fault RNG once per leg whose drop probability is nonzero.
  Fate fate(NodeId from, NodeId to) const {
    if (!active_.load(std::memory_order_acquire)) return {};
    return fate_under_faults(from, to);
  }

 private:
  Fate fate_under_faults(NodeId from, NodeId to) const;
  // Requires mutex_ held.
  int group(NodeId id) const;
  // Requires mutex_ held.  The global knobs combined with the fault on the
  // link from `from` to `to`.
  LinkFault leg(NodeId from, NodeId to) const;
  // Requires mutex_ held (unique).
  void update_active();

  mutable std::shared_mutex mutex_;
  std::unordered_set<NodeId> down_;
  double drop_ = 0.0;
  Nanos extra_{0};
  std::unordered_map<NodeId, int> groups_;
  bool partitioned_ = false;
  std::unordered_map<std::uint64_t, LinkFault> links_;
  /// True while any fault is set; read without the lock on every message.
  std::atomic<bool> active_{false};
};

}  // namespace acn::net
