// Simulated QR-DTM cluster: N server replicas behind a latency-injecting
// network, arranged in a logical ternary tree with tree quorums.
//
// This is the substitute for the paper's physical testbed (up to 30 AMD
// Opteron nodes on 1 Gbps Ethernet): server nodes are in-process replicas,
// clients are threads, and every RPC pays a configurable simulated latency,
// so remote re-execution cost — the quantity partial rollback saves —
// dominates exactly as it does on real hardware.
//
// With n_groups > 1 the cluster is horizontally sharded: each group is an
// independent quorum tree over its own disjoint replica slice, all behind
// the same network (src/shard routes transactions to groups and runs
// cross-shard 2PC when a footprint spans more than one).

#pragma once

#include <chrono>
#include <memory>
#include <optional>
#include <vector>

#include "src/dtm/quorum_stub.hpp"
#include "src/dtm/server.hpp"
#include "src/net/transport.hpp"
#include "src/quorum/level_quorum.hpp"
#include "src/quorum/offset_quorum.hpp"
#include "src/quorum/rowa_quorum.hpp"
#include "src/quorum/tree_quorum.hpp"
#include "src/transport/replica_host.hpp"
#include "src/wal/persistence.hpp"

namespace acn::transport {
class TcpTransport;
class ProcessFleet;
}  // namespace acn::transport

namespace acn::harness {

/// Whether replicas persist their state (src/wal) or stay volatile.
enum class DurabilityMode { kNone, kWal };

struct DurabilityConfig {
  DurabilityMode mode = DurabilityMode::kNone;
  /// Root data directory; node i keeps its log and snapshots under
  /// `<data_dir>/node-<i>`.  A Cluster built over existing directories
  /// recovers each replica from disk before serving.
  std::string data_dir = "wal-data";
  /// Group-commit window (see wal::WalConfig::flush_interval_ns).
  std::int64_t flush_interval_ns = 2'000'000;
  /// Snapshot + compact cadence (see wal::WalConfig::snapshot_every_bytes).
  std::uint64_t snapshot_every_bytes = std::uint64_t{1} << 20;
  bool fsync = true;
};

enum class QuorumPolicy {
  kTree,           // Agrawal-El Abbadi recursive tree quorums (default)
  kLevelMajority,  // the paper's level-majority description
  kRowa,           // read-one / write-all (comparison extreme)
};

/// How the cluster's replicas are reached.
enum class TransportMode {
  /// In-process replicas behind the deterministic simulated network
  /// (default — tests and fault matrices stay reproducible).
  kSim,
  /// Each replica is a separate cluster_main OS process on real sockets;
  /// the harness talks to the fleet through transport::TcpTransport.
  kTcp,
};

/// Multi-process deployment knobs (TransportMode::kTcp only).
struct TcpClusterConfig {
  /// cluster_main binary; empty = $ACN_CLUSTER_MAIN or the build-tree
  /// location next to the running executable.
  std::string binary;
  std::string host = "127.0.0.1";
  /// Per-call response deadline (maps to kDropped, which QuorumStub's
  /// retry ladder already handles).
  std::chrono::milliseconds call_timeout{250};
  /// Worker threads per replica process.
  std::size_t server_workers = 2;
  /// Per-process stderr logs land here (each names its node's host and
  /// port).
  std::string log_dir = "cluster-logs";
  /// How long a spawned replica may take to report ACN_READY.
  std::chrono::milliseconds ready_timeout{10000};
};

struct ClusterConfig {
  /// Replicas *per quorum group* (the whole cluster when n_groups == 1).
  std::size_t n_servers = 10;
  /// Quorum groups (shards).  Each group is an independent quorum system —
  /// its own tree over its own disjoint replica set — owning a disjoint
  /// slice of the keyspace (src/shard assigns keys to groups).  Group g
  /// occupies global node ids [g*n_servers, (g+1)*n_servers); all groups
  /// share one simulated network, so partitions and crashes address global
  /// ids as before.  1 = the classic unsharded cluster.
  std::size_t n_groups = 1;
  int tree_arity = 3;
  QuorumPolicy quorum_policy = QuorumPolicy::kTree;
  /// Probability read-quorum selection stops at a subtree root (tree
  /// policy only).
  double root_read_bias = 0.5;
  /// One-way base latency per message; 0 disables sleeping (unit tests).
  std::chrono::nanoseconds base_latency{std::chrono::microseconds{25}};
  std::chrono::nanoseconds per_kilobyte{std::chrono::microseconds{2}};
  /// Contention window; 0 means the harness rolls windows manually at
  /// interval boundaries (negative widths are rejected by the tracker).
  std::int64_t contention_window_ns = 0;
  /// Prepare-lease lifetime on every server; <= 0 disables expiry (prepared
  /// locks then live until an explicit commit or abort).
  std::int64_t prepare_lease_ns = 0;
  DurabilityConfig durability;
  dtm::StubConfig stub;
  /// Simulated in-process replicas (default) or a spawned multi-process
  /// fleet over real TCP.
  TransportMode transport_mode = TransportMode::kSim;
  TcpClusterConfig tcp;
};

/// Which peers a rejoining node syncs from before serving again.
enum class CatchUpScope {
  kReadQuorum,   // one read quorum — sufficient by the intersection property
  kAllReplicas,  // every live peer — exhaustive (verification / tests)
};

/// A local, read-only reconstruction of a remote cluster's committed state:
/// one in-process dtm::Server per replica, populated from control-plane
/// dumps.  Lets workload invariant checks (which read dtm::Server*) run
/// unchanged against a multi-process fleet.
struct StateMirror {
  std::vector<std::unique_ptr<dtm::Server>> owned;
  std::vector<dtm::Server*> servers;
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config = {});
  ~Cluster();

  /// Total replica count across all groups (n_servers * n_groups) in both
  /// transport modes.  Client node ids start at size().
  std::size_t size() const noexcept { return total_nodes_; }
  /// True when the replicas are remote cluster_main processes — server(i),
  /// servers() and network() are then unavailable (use store_snapshot() /
  /// mirror()).  Every replica-control operation below works in both
  /// modes: it reaches node i's transport::ReplicaHost in-process (sim) or
  /// over the TCP control plane.
  bool remote() const noexcept {
    return config_.transport_mode == TransportMode::kTcp;
  }
  dtm::Server& server(std::size_t i);
  std::vector<dtm::Server*> servers();

  /// Quorum groups in this cluster (1 = unsharded).
  std::size_t n_groups() const noexcept { return config_.n_groups; }
  /// The group that owns global node id `id`.
  std::uint32_t group_of(net::NodeId id) const noexcept {
    return static_cast<std::uint32_t>(static_cast<std::size_t>(id) /
                                      config_.n_servers);
  }
  /// Global node ids of group `g`'s replicas, ascending.
  std::vector<net::NodeId> group_members(std::size_t g) const;
  /// Group `g`'s replicas (e.g. for workload seeding / invariant checks
  /// scoped to the slice of the keyspace that group owns).
  std::vector<dtm::Server*> group_servers(std::size_t g);

  /// The simulated network (sim mode only — throws std::logic_error on a
  /// TCP cluster; route faults through transport() instead).
  dtm::DtmNetwork& network();
  /// The request/reply + fault surface, valid in both modes: network() in
  /// sim mode, the fleet's TcpTransport in TCP mode.
  dtm::DtmTransport& transport() noexcept { return *transport_; }
  /// The TCP transport's control plane, or nullptr in sim mode.
  transport::TcpTransport* tcp_transport() noexcept { return tcp_.get(); }
  const quorum::QuorumSystem& quorums() const noexcept { return *quorums_[0]; }
  /// Group `g`'s quorum system; every id it returns is a global node id
  /// inside that group's slice.
  const quorum::QuorumSystem& quorums(std::size_t g) const {
    return *quorums_.at(g);
  }

  /// A client-side stub; `client_ordinal` gives the client a distinct
  /// network identity (node ids above the server range) and RNG stream.
  /// Addresses group 0 — the whole cluster when n_groups == 1.
  dtm::QuorumStub make_stub(int client_ordinal, std::uint64_t seed = 0);

  /// A stub addressing group `g`: quorums from that group's system, the
  /// group stamped into its 2PC traffic.  The same `client_ordinal` across
  /// groups shares one network identity (a cross-shard coordinator holds
  /// one stub per participant group).
  dtm::QuorumStub make_group_stub(std::size_t group, int client_ordinal,
                                  std::uint64_t seed = 0);

  /// Seed `key` = `value` (version 1) on every replica, or only on group
  /// `group`'s replicas when given.  Seeds are buffered, one copy per
  /// group, until flush_seeds() sends each replica one kSeed — call it
  /// once after the seeding loop (traffic before the flush reads unseeded
  /// state).  kSeed installs version-guarded, so seed each key once.
  void seed_object(const store::ObjectKey& key, const store::Record& value);
  void seed_object(const store::ObjectKey& key, const store::Record& value,
                   std::size_t group);
  void flush_seeds();

  /// Replica `i`'s committed objects: direct store snapshot in sim mode, a
  /// control-plane dump in TCP mode.  Throws transport::TransportError when
  /// a remote replica is unreachable.
  std::vector<std::pair<store::ObjectKey, store::VersionedRecord>>
  store_snapshot(std::size_t i);

  /// Reconstruct every replica's committed state locally (see StateMirror).
  /// Sim mode works too (it just snapshots in-process stores) so callers
  /// can stay mode-agnostic.
  StateMirror mirror();

  /// Force overdue prepare leases into the parked state on every replica
  /// (both modes); returns the number of leases expired.
  std::size_t expire_all_leases();

  /// Replica `i`'s parked in-doubt transactions (both modes).
  std::vector<dtm::InDoubtTx> indoubt_transactions(std::size_t i);

  /// Replica `i`'s cheap gauges — open leases, protected keys, wrong-group
  /// refusals, parked in-doubt count, open prepares — from a kProbe control
  /// op.  An unreachable remote replica reports all-zero (callers summing
  /// across the fleet tolerate a crashed node).
  transport::ReplicaProbe probe_replica(std::size_t i);

  /// Roll every server's contention window (harness interval boundary).
  void roll_contention_windows();

  /// Cluster-wide contention levels for `classes`: the max over replicas of
  /// each class's last-window level (replicas see the same committed writes
  /// modulo quorum membership, so the max is the least stale view).  Feeds
  /// the scheduler's class-hot refinement.
  std::vector<std::uint64_t> class_levels(
      const std::vector<store::ClassId>& classes);

  /// Take `id` off the network (calls to it fail with kNodeDown).  Without
  /// durability the replica's store is preserved (crash/offline node);
  /// with it, the group-commit buffer is dropped — those records never
  /// reached the disk — and `lose_disk` additionally wipes the node's data
  /// directory (disk-loss crash: only peer catch-up can rebuild it).
  void crash_node(net::NodeId id, bool lose_disk = false);

  /// Rejoin a crashed node, in both modes through the control plane.  A
  /// durable node first clears its volatile state, reloads the newest
  /// snapshot, replays its log (re-arming unresolved prepares as leased
  /// protections), and only then runs the peer sync — which becomes a
  /// *delta* pass fetching just what the log lost (at most one
  /// group-commit window).  Volatile nodes run the full peer sync.  The
  /// scope picks the peers: a read quorum suffices by the intersection
  /// property; kAllReplicas is exhaustive.  An open prepare on the node
  /// that a peer remembers committing (asked with a DecisionQuery) is then
  /// finished as that commit before the node serves again.  Returns the
  /// number of keys whose version advanced during the sync.
  std::size_t restart_node(net::NodeId id,
                           CatchUpScope scope = CatchUpScope::kReadQuorum);

  /// Force node `i` (or every node) to cut a snapshot now, making its
  /// current store durable and compacting its log.  Benches call this
  /// after workload seeding — seeding writes stores directly, bypassing
  /// the WAL, so without a checkpoint the seed state would not survive a
  /// disk-faithful restart.  No-op without durability.
  void checkpoint_node(std::size_t i);
  void checkpoint_all();

  /// Node `i`'s durable backend, or nullptr when durability is off (and
  /// in TCP mode, where it lives in the replica process).
  wal::ReplicaPersistence* persistence(std::size_t i) {
    return i < hosts_.size() ? hosts_[i]->persistence() : nullptr;
  }

  /// Route RPC instrumentation from stubs made after this call — and the
  /// servers' lease/recovery counters — into `obs` (the driver installs its
  /// bundle before spawning clients).
  void set_obs(obs::Observability* obs) noexcept {
    config_.stub.obs = obs;
    for (auto& host : hosts_) host->set_obs(obs);
  }

  const ClusterConfig& config() const noexcept { return config_; }

  /// TCP mode: ask every replica process to exit via the control plane and
  /// reap them; returns true when all exited voluntarily with status 0.
  /// No-op (true) in sim mode.  The destructor calls it, then SIGKILLs
  /// stragglers.
  bool shutdown_fleet();

 private:
  /// Throws std::logic_error naming `op` on a TCP cluster.
  void require_sim(const char* op) const;
  transport::ReplicaConfig replica_config(std::size_t i) const;
  void spawn_fleet();
  /// Node i's control plane: its host in sim mode, TcpTransport::control
  /// in TCP mode.  control() throws transport::TransportError when the
  /// node is unreachable or reports !ok; try_control() returns nullopt
  /// when it is unreachable.
  transport::ControlReply control(std::size_t i,
                                  const transport::ControlRequest& req);
  std::optional<transport::ControlReply> try_control(
      std::size_t i, const transport::ControlRequest& req);
  std::vector<net::NodeId> catchup_sources(net::NodeId id, CatchUpScope scope);

  ClusterConfig config_;
  std::size_t total_nodes_ = 0;
  /// One kSeed request per group, filled by seed_object() and sent to each
  /// replica by flush_seeds().  Declared before hosts_: freeing its buffer
  /// after the stores makes glibc merge their many small chunks during
  /// teardown, not in the next cluster's first allocation (+1-2 ms, a
  /// quarter of a back-to-back Bank set-up).
  std::vector<transport::ControlRequest> pending_seeds_;
  /// Sim mode: one replica (server + optional WAL) per node.
  std::vector<std::unique_ptr<transport::ReplicaHost>> hosts_;
  dtm::DtmNetwork network_;
  std::unique_ptr<transport::TcpTransport> tcp_;  // TCP mode only
  /// The mode-selected transport every stub and fault plan routes through.
  dtm::DtmTransport* transport_ = &network_;
  std::unique_ptr<transport::ProcessFleet> fleet_;
  /// One quorum system per group, indexed by group id.
  std::vector<std::unique_ptr<quorum::QuorumSystem>> quorums_;
  /// Varies the read quorum successive restart_node() calls sync from, so
  /// repeated rejoins are deterministic but not identical.
  std::uint64_t catchup_seq_ = 0;
};

}  // namespace acn::harness
