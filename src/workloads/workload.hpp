// Benchmark workload interface.
//
// A workload supplies, for each of its transaction types, a TxProfile:
//   * the TxProgram (the flat transaction as the programmer wrote it);
//   * the manual closed-nesting decomposition used by the QR-CN baseline —
//     a fixed Block Sequence over the program's static dependency model,
//     chosen the way a careful programmer would for the *default* workload
//     (QR-ACN must beat it by adapting when the workload shifts);
//   * a parameter generator, which consults the current phase so the
//     harness can change which objects are hot mid-run (the stimulus of the
//     paper's Vacation and Bank experiments).
// Workloads also seed every replica and can check global invariants after a
// run by reading the latest committed version of each object across all
// replicas (full replication: the max-version copy is the committed one).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/acn/blocks.hpp"
#include "src/acn/txir.hpp"
#include "src/common/rng.hpp"
#include "src/dtm/server.hpp"

namespace acn::workloads {

struct TxProfile {
  std::unique_ptr<ir::TxProgram> program;  // stable address: models point here
  DependencyModel static_model;            // latest-producer partition
  BlockSequence manual_sequence;           // the QR-CN baseline decomposition
  double weight = 1.0;
  std::function<std::vector<ir::Record>(Rng&, int phase)> make_params;
};

/// Where seed_objects pours the initial objects.  The unsharded path binds
/// seed_all (every replica); the sharded path (shard::ClientFleet::seed)
/// binds owner-scoped seeding, so each object lands only on the replicas of
/// the quorum group that owns it.
using SeedSink =
    std::function<void(const store::ObjectKey&, const store::Record&)>;

/// How a workload wants its keyspace placed on a sharded cluster.
struct Placement {
  /// Key → natural placement id (TPC-C warehouse, Bank branch); the shard
  /// map reduces it modulo the group count, so the workload never needs to
  /// know how many groups exist.  Null = salted-hash partitioning.
  std::function<std::uint32_t(const store::ObjectKey&)> shard_of;
  /// Read-mostly reference classes replicated on every group (reads served
  /// by the transaction's home group, writes refused).
  std::vector<store::ClassId> replicated_classes;
};

/// Seed `key` = `value` on every replica.
void seed_all(const std::vector<dtm::Server*>& servers,
              const store::ObjectKey& key, const store::Record& value);

class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::string name() const = 0;

  /// Emit every initial object into `sink`, exactly once per key.
  virtual void seed_objects(const SeedSink& sink) = 0;

  /// Install the initial objects on every server replica (the unsharded
  /// path — full replication).
  void seed(const std::vector<dtm::Server*>& servers) {
    seed_objects([&](const store::ObjectKey& key, const store::Record& value) {
      seed_all(servers, key, value);
    });
  }

  /// Keyspace placement for sharded runs.  The default (empty) leaves the
  /// bench on hash partitioning with nothing replicated.
  virtual Placement placement() const { return {}; }

  virtual const std::vector<TxProfile>& profiles() const = 0;

  /// Validate global invariants over the committed state; throws
  /// std::runtime_error with a description on violation.
  virtual void check_invariants(const std::vector<dtm::Server*>& servers) const {
    (void)servers;
  }
};

/// Latest committed value of `key`: max-version copy across all replicas.
/// Throws std::runtime_error when no replica holds the object.
store::VersionedRecord latest_value(const std::vector<dtm::Server*>& servers,
                                    const store::ObjectKey& key);

/// Pick a profile index by weight.
std::size_t pick_profile(const std::vector<TxProfile>& profiles, Rng& rng);

}  // namespace acn::workloads
