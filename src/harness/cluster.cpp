#include "src/harness/cluster.hpp"

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "src/common/clock.hpp"
#include "src/common/rng.hpp"
#include "src/transport/spawn.hpp"
#include "src/transport/tcp_transport.hpp"

namespace acn::harness {
namespace {

using Op = transport::ControlOp;
using transport::ControlRequest;

ControlRequest control_op(Op op) {
  ControlRequest req;
  req.op = op;
  return req;
}

std::shared_ptr<const LatencyModel> make_latency(const ClusterConfig& config) {
  if (config.base_latency.count() <= 0) return std::make_shared<ZeroLatency>();
  return std::make_shared<FixedLatency>(config.base_latency,
                                        config.per_kilobyte);
}

std::unique_ptr<quorum::QuorumSystem> make_group_quorums(
    const ClusterConfig& config, std::size_t group) {
  quorum::TreeTopology topology(config.n_servers, config.tree_arity);
  std::unique_ptr<quorum::QuorumSystem> inner;
  switch (config.quorum_policy) {
    case QuorumPolicy::kLevelMajority:
      inner = std::make_unique<quorum::LevelMajorityQuorumSystem>(topology);
      break;
    case QuorumPolicy::kRowa:
      inner = std::make_unique<quorum::RowaQuorumSystem>(config.n_servers);
      break;
    case QuorumPolicy::kTree:
      inner = std::make_unique<quorum::TreeQuorumSystem>(topology,
                                                         config.root_read_bias);
      break;
  }
  // Group g's replicas sit at global ids [g*n, (g+1)*n); the inner system
  // numbers them 0..n-1, so relocate its quorums.  Group 0 needs no shift —
  // the unsharded cluster keeps its exact pre-sharding quorum objects.
  if (group == 0) return inner;
  return std::make_unique<quorum::OffsetQuorumSystem>(
      std::move(inner),
      static_cast<quorum::NodeId>(group * config.n_servers));
}

}  // namespace

Cluster::Cluster(ClusterConfig config)
    : config_(config),
      pending_seeds_(config.n_groups, control_op(Op::kSeed)),
      network_(make_latency(config)) {
  if (config_.n_groups == 0)
    throw std::invalid_argument("Cluster: n_groups must be >= 1");
  total_nodes_ = config_.n_servers * config_.n_groups;
  quorums_.reserve(config_.n_groups);
  for (std::size_t g = 0; g < config_.n_groups; ++g)
    quorums_.push_back(make_group_quorums(config_, g));

  if (config_.transport_mode == TransportMode::kTcp) {
    spawn_fleet();
    return;
  }

  hosts_.reserve(total_nodes_);
  for (std::size_t i = 0; i < total_nodes_; ++i) {
    // A durable host built over an existing data directory is a restart:
    // it comes back up from its own disk before taking traffic.
    hosts_.push_back(
        std::make_unique<transport::ReplicaHost>(replica_config(i)));
    dtm::Server* server = &hosts_.back()->server();
    network_.register_node(
        static_cast<net::NodeId>(i),
        [server](net::NodeId from, const dtm::Request& request) {
          return server->handle(from, request);
        });
  }
}

Cluster::~Cluster() { shutdown_fleet(); }

transport::ReplicaConfig Cluster::replica_config(std::size_t i) const {
  transport::ReplicaConfig replica;
  replica.node = static_cast<net::NodeId>(i);
  replica.group = group_of(replica.node);
  replica.lease_ns = config_.prepare_lease_ns;
  replica.window_ns = config_.contention_window_ns;
  replica.durable = config_.durability.mode == DurabilityMode::kWal;
  replica.wal = {config_.durability.data_dir + "/node-" + std::to_string(i),
                 config_.durability.flush_interval_ns,
                 config_.durability.snapshot_every_bytes,
                 config_.durability.fsync};
  return replica;
}

void Cluster::spawn_fleet() {
  namespace fs = std::filesystem;
  const std::string log_dir = config_.tcp.log_dir;
  fs::create_directories(log_dir);
  const std::string binary = config_.tcp.binary.empty()
                                 ? transport::ProcessFleet::default_binary()
                                 : config_.tcp.binary;
  fleet_ = std::make_unique<transport::ProcessFleet>();

  std::map<net::NodeId, transport::Endpoint> peers;
  for (std::size_t i = 0; i < total_nodes_; ++i) {
    transport::ReplicaFlags flags;
    flags.replica = replica_config(i);
    flags.host = config_.tcp.host;
    flags.workers = config_.tcp.server_workers;
    const int port = fleet_->spawn(
        binary, static_cast<int>(i), transport::replica_args(flags),
        log_dir + "/node-" + std::to_string(i) + ".log",
        config_.tcp.ready_timeout);
    peers[static_cast<net::NodeId>(i)] = {config_.tcp.host, port};
  }

  transport::TcpTransportConfig transport_config;
  transport_config.call_timeout = config_.tcp.call_timeout;
  tcp_ = std::make_unique<transport::TcpTransport>(std::move(peers),
                                                   transport_config);
  transport_ = tcp_.get();
}

bool Cluster::shutdown_fleet() {
  if (!remote() || fleet_ == nullptr) return true;
  for (std::size_t i = 0; i < total_nodes_; ++i)
    try_control(i, control_op(Op::kShutdown));
  const bool clean = fleet_->wait_all(std::chrono::milliseconds(3000));
  fleet_->kill_all();
  return clean;
}

std::optional<transport::ControlReply> Cluster::try_control(
    std::size_t i, const transport::ControlRequest& req) {
  if (tcp_ != nullptr) return tcp_->control(static_cast<net::NodeId>(i), req);
  if (i >= hosts_.size()) return std::nullopt;
  return hosts_[i]->control(req);
}

transport::ControlReply Cluster::control(std::size_t i,
                                         const transport::ControlRequest& req) {
  auto reply = try_control(i, req);
  if (!reply || !reply->ok)
    throw transport::TransportError(
        "control op " + std::to_string(static_cast<int>(req.op)) +
        " to node " + std::to_string(i) +
        (reply ? " rejected: " + reply->error : " unreachable or timed out"));
  return *std::move(reply);
}

void Cluster::require_sim(const char* op) const {
  if (remote())
    throw std::logic_error(
        std::string("Cluster::") + op +
        ": sim mode only — replicas are remote processes (TransportMode::kTcp);"
        " use store_snapshot()/mirror(), the control plane or transport()");
}

dtm::Server& Cluster::server(std::size_t i) {
  require_sim("server");
  return hosts_.at(i)->server();
}

std::vector<dtm::Server*> Cluster::servers() {
  require_sim("servers");
  std::vector<dtm::Server*> out;
  out.reserve(hosts_.size());
  for (auto& host : hosts_) out.push_back(&host->server());
  return out;
}

dtm::DtmNetwork& Cluster::network() {
  require_sim("network");
  return network_;
}

std::vector<net::NodeId> Cluster::group_members(std::size_t g) const {
  if (g >= config_.n_groups)
    throw std::out_of_range("Cluster::group_members: unknown group");
  std::vector<net::NodeId> out;
  out.reserve(config_.n_servers);
  const std::size_t base = g * config_.n_servers;
  for (std::size_t i = 0; i < config_.n_servers; ++i)
    out.push_back(static_cast<net::NodeId>(base + i));
  return out;
}

std::vector<dtm::Server*> Cluster::group_servers(std::size_t g) {
  std::vector<dtm::Server*> out;
  out.reserve(config_.n_servers);
  for (const net::NodeId id : group_members(g))
    out.push_back(&server(static_cast<std::size_t>(id)));
  return out;
}

dtm::QuorumStub Cluster::make_stub(int client_ordinal, std::uint64_t seed) {
  return make_group_stub(0, client_ordinal, seed);
}

dtm::QuorumStub Cluster::make_group_stub(std::size_t group, int client_ordinal,
                                         std::uint64_t seed) {
  if (group >= config_.n_groups)
    throw std::out_of_range("Cluster::make_group_stub: unknown group");
  const auto client_node =
      static_cast<net::NodeId>(total_nodes_) + client_ordinal;
  // Decorrelate per group so a coordinator's stubs don't pick rhyming
  // quorums across its groups.
  const std::uint64_t stub_seed =
      (seed != 0 ? seed
                 : 0x57ab0000ULL + static_cast<std::uint64_t>(client_ordinal)) ^
      (static_cast<std::uint64_t>(group) << 48);
  dtm::StubConfig stub_config = config_.stub;
  stub_config.group = static_cast<std::uint32_t>(group);
  return dtm::QuorumStub(*transport_, *quorums_[group], client_node, stub_seed,
                         stub_config);
}

void Cluster::seed_object(const store::ObjectKey& key,
                          const store::Record& value) {
  for (std::size_t g = 0; g < config_.n_groups; ++g) seed_object(key, value, g);
}

void Cluster::seed_object(const store::ObjectKey& key,
                          const store::Record& value, std::size_t group) {
  if (group >= config_.n_groups)
    throw std::out_of_range("Cluster::seed_object: unknown group");
  pending_seeds_[group].entries.push_back({key, value, 1});
}

void Cluster::flush_seeds() {
  for (std::size_t g = 0; g < pending_seeds_.size(); ++g) {
    ControlRequest& seeds = pending_seeds_[g];
    if (seeds.entries.empty()) continue;
    for (const net::NodeId node : group_members(g))
      control(static_cast<std::size_t>(node), seeds);
    seeds.entries.clear();  // keeps the buffer (see pending_seeds_)
  }
}

std::vector<std::pair<store::ObjectKey, store::VersionedRecord>>
Cluster::store_snapshot(std::size_t i) {
  auto reply = control(i, control_op(Op::kDump));
  std::vector<std::pair<store::ObjectKey, store::VersionedRecord>> out;
  out.reserve(reply.entries.size());
  for (auto& entry : reply.entries)
    out.push_back({entry.key, {std::move(entry.value), entry.version}});
  return out;
}

StateMirror Cluster::mirror() {
  StateMirror m;
  m.owned.reserve(total_nodes_);
  for (std::size_t i = 0; i < total_nodes_; ++i) {
    auto server = std::make_unique<dtm::Server>(static_cast<net::NodeId>(i));
    server->set_group(static_cast<std::uint32_t>(i / config_.n_servers));
    for (auto& [key, rec] : store_snapshot(i))
      server->store().apply(key, rec.value, rec.version, store::kNoTx);
    m.servers.push_back(server.get());
    m.owned.push_back(std::move(server));
  }
  return m;
}

std::size_t Cluster::expire_all_leases() {
  std::size_t expired = 0;
  for (std::size_t i = 0; i < total_nodes_; ++i)
    if (const auto reply = try_control(i, control_op(Op::kExpireLeases)))
      expired += reply->count;
  return expired;
}

std::vector<dtm::InDoubtTx> Cluster::indoubt_transactions(std::size_t i) {
  if (const auto reply = try_control(i, control_op(Op::kIndoubtList)))
    return reply->indoubt;
  return {};
}

transport::ReplicaProbe Cluster::probe_replica(std::size_t i) {
  if (const auto reply = try_control(i, control_op(Op::kProbe)))
    return reply->probe;
  return {};
}

void Cluster::roll_contention_windows() {
  for (std::size_t i = 0; i < total_nodes_; ++i)
    try_control(i, control_op(Op::kRollWindows));
}

std::vector<std::uint64_t> Cluster::class_levels(
    const std::vector<store::ClassId>& classes) {
  ControlRequest req = control_op(Op::kClassLevels);
  req.classes = classes;
  std::vector<std::uint64_t> levels(classes.size(), 0);
  for (std::size_t i = 0; i < total_nodes_; ++i) {
    const auto reply = try_control(i, req);
    if (!reply) continue;
    for (std::size_t c = 0; c < levels.size() && c < reply->levels.size(); ++c)
      levels[c] = std::max(levels[c], reply->levels[c]);
  }
  return levels;
}

void Cluster::crash_node(net::NodeId id, bool lose_disk) {
  // Off the transport first, so calls fail fast (kNodeDown) from here on.
  // Then the crash itself: the replica loses its group-commit buffer (and,
  // with lose_disk, its data directory); a TCP replica also suspends its
  // data plane, refusing data hellos and killing live data connections.
  transport_->set_node_down(id, true);
  ControlRequest crash = control_op(Op::kCrash);
  crash.lose_disk = lose_disk;
  control(static_cast<std::size_t>(id), crash);
}

void Cluster::checkpoint_node(std::size_t i) {
  if (config_.durability.mode == DurabilityMode::kWal)
    try_control(i, control_op(Op::kCheckpoint));
}

void Cluster::checkpoint_all() {
  for (std::size_t i = 0; i < total_nodes_; ++i) checkpoint_node(i);
}

std::size_t Cluster::restart_node(net::NodeId id, CatchUpScope scope) {
  if (id < 0 || static_cast<std::size_t>(id) >= total_nodes_)
    throw std::invalid_argument("Cluster::restart_node: unknown server id");
  const auto joiner = static_cast<std::size_t>(id);
  const std::uint64_t start_ns = now_ns();

  // Disk-faithful reboot: a durable joiner sheds the memory its "crash"
  // left intact and reloads its log and snapshot (re-arming unresolved
  // prepares); a volatile one keeps its store.  The reply lists the
  // prepares still open on it.
  const auto open = control(joiner, control_op(Op::kRestart)).prepares;

  // Sync from the live peers of the joiner's own group (the groups'
  // keyspaces are disjoint).  A read quorum suffices: every committed write
  // reached a write quorum, and read and write quorums intersect.  Every
  // step rides the control plane, so neither a drop burst nor a data-plane
  // partition can starve recovery.
  std::vector<net::NodeId> sources = catchup_sources(id, scope);
  std::erase_if(sources,
                [&](net::NodeId src) { return transport_->node_down(src); });

  // A prepare the group committed while this replica was down is still
  // open here: phase two failed against it, and without a lease nothing
  // else releases its keys.  Ask the sources before dumping them, so a
  // source that remembers the commit has it in its dump.
  std::vector<const dtm::OpenPrepare*> committed;
  ControlRequest query = control_op(Op::kHandle);
  for (const dtm::OpenPrepare& prepare : open) {
    query.request.payload = dtm::DecisionQuery{prepare.tx, group_of(id)};
    for (const net::NodeId src : sources) {
      const auto reply = try_control(static_cast<std::size_t>(src), query);
      const auto* decision =
          reply ? std::get_if<dtm::DecisionReply>(&reply->response.payload)
                : nullptr;
      if (decision != nullptr &&
          decision->code == dtm::DecisionCode::kCommitted) {
        committed.push_back(&prepare);
        break;
      }
    }
  }

  // Push the newest version of every key across the sources.  kSeed
  // installs version-guarded, so racing live commits can only lose to
  // newer versions, and counts the keys whose version advanced.
  std::unordered_map<store::ObjectKey, transport::SeedEntry,
                     store::ObjectKeyHash>
      newest;
  const ControlRequest dump = control_op(Op::kDump);
  for (const net::NodeId src : sources) {
    auto reply = try_control(static_cast<std::size_t>(src), dump);
    if (!reply) continue;
    for (auto& entry : reply->entries) {
      auto [it, inserted] = newest.try_emplace(entry.key, entry);
      if (!inserted && entry.version > it->second.version)
        it->second = std::move(entry);
    }
  }
  ControlRequest push = control_op(Op::kSeed);
  push.entries.reserve(newest.size());
  for (const auto& [key, entry] : newest) push.entries.push_back(entry);
  const std::size_t updated = control(joiner, push).count;

  // Finish those commits on the still-down joiner with the versions just
  // installed: this releases the lease and the protections and records the
  // commit, so a late phase-two replay acks kDuplicate.
  for (const dtm::OpenPrepare* prepare : committed) {
    dtm::CommitRequest commit{prepare->tx, prepare->keys, {}, {}, group_of(id)};
    for (const auto& key : prepare->keys) {
      const auto it = newest.find(key);
      if (it == newest.end()) break;
      commit.values.push_back(it->second.value);
      commit.versions.push_back(it->second.version);
    }
    if (commit.values.size() != commit.keys.size()) continue;
    query.request.payload = std::move(commit);
    control(joiner, query);
  }

  // Reopen the data plane: the replica (a TCP replica lifts its
  // suspension), then the transport.
  control(joiner, control_op(Op::kResume));
  transport_->set_node_down(id, false);

  const bool durable = config_.durability.mode == DurabilityMode::kWal;
  if (obs::Observability* obs = config_.stub.obs) {
    obs->recovery_catchup_keys.add(updated);
    if (durable) {
      // For a durable node the peer sync was a delta pass on top of log
      // replay; `updated` is what the log could not cover.
      obs->recovery_delta_keys.add(updated);
      obs->recovery_time_ns.observe(now_ns() - start_ns);
    }
  }
  // Make the recovered + caught-up state durable in one snapshot; this
  // also compacts the log the replay just consumed.
  checkpoint_node(joiner);
  return updated;
}

std::vector<net::NodeId> Cluster::catchup_sources(net::NodeId id,
                                                  CatchUpScope scope) {
  const std::size_t joiner_group = group_of(id);
  const std::vector<net::NodeId> peers = group_members(joiner_group);
  std::vector<net::NodeId> sources;
  if (scope == CatchUpScope::kAllReplicas) {
    for (const net::NodeId peer : peers)
      if (peer != id) sources.push_back(peer);
  } else {
    Rng rng(0xca7c4b00ULL ^ (static_cast<std::uint64_t>(id) << 32) ^
            catchup_seq_++);
    sources = quorums_[joiner_group]->read_quorum(rng);
    sources.erase(std::remove(sources.begin(), sources.end(), id),
                  sources.end());
    if (sources.empty())
      for (const net::NodeId peer : peers)
        if (peer != id) sources.push_back(peer);
  }
  return sources;
}

}  // namespace acn::harness
