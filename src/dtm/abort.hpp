// Control-flow exceptions of the transaction runtime.
//
// TxAbort carries *which* objects were found invalid; the closed-nesting
// runtime classifies the abort as partial (all invalid objects were first
// read by the currently executing sub-transaction) or full (some invalid
// object belongs to already-merged history) from exactly this list.
#pragma once

#include <exception>
#include <string>
#include <vector>

#include "src/store/key.hpp"

namespace acn::dtm {

enum class AbortKind {
  kValidation,   // a read object was invalidated by a committed writer
  kBusy,         // persistent protect conflicts / commit contention
  kUnavailable,  // not enough reachable replicas for a quorum
};

/// Secondary classification below AbortKind.  kBusy covers both transient
/// protect conflicts and a phase-two refusal after the prepare lease
/// expired; the contention scheduler treats the latter as a much stronger
/// overload signal (the transaction burned a full 2PC before dying), so the
/// stub tags it here rather than widening AbortKind and every switch on it.
enum class AbortDetail {
  kNone,
  kLeaseExpired,  // commit refused: a member reclaimed the prepare lease
};

class TxAbort : public std::exception {
 public:
  TxAbort(AbortKind kind, std::vector<store::ObjectKey> invalid,
          AbortDetail detail = AbortDetail::kNone)
      : kind_(kind), detail_(detail), invalid_(std::move(invalid)) {
    what_ = "transaction abort: ";
    switch (kind_) {
      case AbortKind::kValidation:
        what_ += "validation failed on " + std::to_string(invalid_.size()) +
                 " object(s)";
        break;
      case AbortKind::kBusy:
        what_ += "objects busy (commit in flight)";
        break;
      case AbortKind::kUnavailable:
        what_ += "quorum unavailable";
        break;
    }
  }

  AbortKind kind() const noexcept { return kind_; }
  AbortDetail detail() const noexcept { return detail_; }
  const std::vector<store::ObjectKey>& invalid() const noexcept {
    return invalid_;
  }
  const char* what() const noexcept override { return what_.c_str(); }

 private:
  AbortKind kind_;
  AbortDetail detail_;
  std::vector<store::ObjectKey> invalid_;
  std::string what_;
};

/// Reading an object that exists on no reachable replica is a workload bug
/// (objects are seeded before traffic; a sharded ShardTx reads every key
/// from the group that owns it).  The key is kept structured so a caller
/// can name it — the epoch lane marks a planned key no replica holds as
/// absent and demotes the entries that read it.
class ObjectMissing : public std::exception {
 public:
  explicit ObjectMissing(const store::ObjectKey& key)
      : key_(key), what_("object missing: " + store::to_string(key)) {}
  const store::ObjectKey& key() const noexcept { return key_; }
  const char* what() const noexcept override { return what_.c_str(); }

 private:
  store::ObjectKey key_;
  std::string what_;
};

}  // namespace acn::dtm
