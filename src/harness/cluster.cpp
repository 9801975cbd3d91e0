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
#include "src/transport/topology.hpp"

namespace acn::harness {
namespace {

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
    : config_(config), network_(make_latency(config)) {
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

  transport_ =
      std::make_unique<net::SimTransport<dtm::Request, dtm::Response>>(
          network_);
  servers_.reserve(total_nodes_);
  for (std::size_t i = 0; i < total_nodes_; ++i) {
    servers_.push_back(std::make_unique<dtm::Server>(
        static_cast<net::NodeId>(i), config_.contention_window_ns,
        config_.prepare_lease_ns));
    dtm::Server* server = servers_.back().get();
    server->set_group(static_cast<std::uint32_t>(i / config_.n_servers));
    network_.register_node(
        static_cast<net::NodeId>(i),
        [server](net::NodeId from, const dtm::Request& request) {
          return server->handle(from, request);
        });
  }

  if (config_.durability.mode == DurabilityMode::kWal) {
    persistence_.reserve(total_nodes_);
    for (std::size_t i = 0; i < total_nodes_; ++i) {
      wal::WalConfig wal_config;
      wal_config.dir =
          config_.durability.data_dir + "/node-" + std::to_string(i);
      wal_config.flush_interval_ns = config_.durability.flush_interval_ns;
      wal_config.snapshot_every_bytes =
          config_.durability.snapshot_every_bytes;
      wal_config.fsync = config_.durability.fsync;
      persistence_.push_back(
          std::make_unique<wal::ReplicaPersistence>(std::move(wal_config)));
      // A cluster built over existing data directories is a restart: each
      // replica comes back up from its own disk before taking traffic.
      auto recovered = persistence_[i]->recover();
      servers_[i]->install_recovered(recovered.objects,
                                     recovered.open_prepares);
      servers_[i]->set_durability(persistence_[i].get());
    }
  }
}

Cluster::~Cluster() { shutdown_fleet(); }

void Cluster::spawn_fleet() {
  namespace fs = std::filesystem;
  const std::string log_dir = config_.tcp.log_dir;
  fs::create_directories(log_dir);
  const std::string binary = config_.tcp.binary.empty()
                                 ? transport::ProcessFleet::default_binary()
                                 : config_.tcp.binary;
  fleet_ = std::make_unique<transport::ProcessFleet>();

  transport::Topology topology;
  topology.servers = config_.n_servers;
  topology.groups = config_.n_groups;
  topology.durability =
      config_.durability.mode == DurabilityMode::kWal ? "wal" : "none";
  std::map<net::NodeId, transport::Endpoint> peers;
  for (std::size_t i = 0; i < total_nodes_; ++i) {
    std::vector<std::string> args = {
        "--node=" + std::to_string(i),
        "--group=" + std::to_string(i / config_.n_servers),
        "--host=" + config_.tcp.host,
        "--port=0",
        "--lease-ns=" + std::to_string(config_.prepare_lease_ns),
        "--window-ns=" + std::to_string(config_.contention_window_ns),
        "--workers=" + std::to_string(config_.tcp.server_workers),
    };
    if (config_.durability.mode == DurabilityMode::kWal) {
      args.push_back("--durability=wal");
      args.push_back("--data-dir=" + config_.durability.data_dir + "/node-" +
                     std::to_string(i));
      args.push_back("--flush-ns=" +
                     std::to_string(config_.durability.flush_interval_ns));
      args.push_back("--snapshot-bytes=" +
                     std::to_string(config_.durability.snapshot_every_bytes));
      if (!config_.durability.fsync) args.push_back("--no-fsync");
    }
    const int port = fleet_->spawn(
        binary, static_cast<int>(i), args,
        log_dir + "/node-" + std::to_string(i) + ".log",
        config_.tcp.ready_timeout);
    peers[static_cast<net::NodeId>(i)] = {config_.tcp.host, port};
    topology.nodes.push_back({static_cast<int>(i),
                              static_cast<std::uint32_t>(i / config_.n_servers),
                              config_.tcp.host, port});
  }
  // Record what ran: a failed CI job's artifacts then name every process.
  transport::save_topology(topology, log_dir + "/topology.toml");

  transport::TcpTransportConfig transport_config;
  transport_config.call_timeout = config_.tcp.call_timeout;
  auto tcp = std::make_unique<transport::TcpTransport>(
      std::move(peers), transport_config, /*seed=*/0xacd7c9);
  tcp_ = tcp.get();
  transport_ = std::move(tcp);
}

bool Cluster::shutdown_fleet() {
  if (!remote() || fleet_ == nullptr) return true;
  for (std::size_t i = 0; i < total_nodes_; ++i) {
    transport::ControlRequest req;
    req.op = transport::ControlOp::kShutdown;
    tcp().try_control(static_cast<net::NodeId>(i), req);
  }
  const bool clean = fleet_->wait_all(std::chrono::milliseconds(3000));
  fleet_->kill_all();
  return clean;
}

transport::TcpTransport& Cluster::tcp() {
  if (tcp_ == nullptr)
    throw std::logic_error("Cluster: control plane requires TransportMode::kTcp");
  return *tcp_;
}

dtm::Server& Cluster::server(std::size_t i) {
  if (remote())
    throw std::logic_error(
        "Cluster::server: replicas are remote processes (TransportMode::kTcp);"
        " use store_snapshot()/mirror() or the control plane");
  return *servers_[i];
}

std::vector<dtm::Server*> Cluster::servers() {
  if (remote())
    throw std::logic_error(
        "Cluster::servers: replicas are remote processes (TransportMode::kTcp);"
        " use store_snapshot()/mirror() or the control plane");
  std::vector<dtm::Server*> out;
  out.reserve(servers_.size());
  for (auto& server : servers_) out.push_back(server.get());
  return out;
}

dtm::DtmNetwork& Cluster::network() {
  if (remote())
    throw std::logic_error(
        "Cluster::network: no simulated network under TransportMode::kTcp;"
        " route faults through Cluster::transport()");
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
  const std::size_t base = group * config_.n_servers;
  if (!remote()) {
    for (std::size_t i = 0; i < config_.n_servers; ++i)
      servers_[base + i]->store().seed(key, value);
    return;
  }
  for (std::size_t i = 0; i < config_.n_servers; ++i)
    pending_seeds_[base + i].push_back({key, value});
}

void Cluster::flush_seeds() {
  if (!remote()) return;
  for (auto& [node, entries] : pending_seeds_) {
    if (entries.empty()) continue;
    transport::ControlRequest req;
    req.op = transport::ControlOp::kSeed;
    req.entries.reserve(entries.size());
    for (auto& [key, value] : entries) req.entries.push_back({key, value, 1});
    tcp().control(static_cast<net::NodeId>(node), req);
    entries.clear();
  }
  pending_seeds_.clear();
}

std::vector<std::pair<store::ObjectKey, store::VersionedRecord>>
Cluster::store_snapshot(std::size_t i) {
  if (!remote()) return servers_[i]->store().snapshot();
  transport::ControlRequest req;
  req.op = transport::ControlOp::kDump;
  auto reply = tcp().control(static_cast<net::NodeId>(i), req);
  std::vector<std::pair<store::ObjectKey, store::VersionedRecord>> out;
  out.reserve(reply.entries.size());
  for (auto& entry : reply.entries)
    out.push_back(
        {entry.key, {std::move(entry.value), entry.version}});
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
  if (!remote()) {
    for (auto& server : servers_) expired += server->expire_stale_leases();
    return expired;
  }
  transport::ControlRequest req;
  req.op = transport::ControlOp::kExpireLeases;
  for (std::size_t i = 0; i < total_nodes_; ++i)
    if (const auto reply = tcp().try_control(static_cast<net::NodeId>(i), req))
      expired += reply->count;
  return expired;
}

std::vector<dtm::InDoubtTx> Cluster::indoubt_transactions(std::size_t i) {
  if (!remote()) return servers_[i]->indoubt_transactions();
  transport::ControlRequest req;
  req.op = transport::ControlOp::kIndoubtList;
  if (const auto reply = tcp().try_control(static_cast<net::NodeId>(i), req))
    return reply->indoubt;
  return {};
}

transport::ReplicaProbe Cluster::probe_replica(std::size_t i) {
  transport::ReplicaProbe probe;
  if (!remote()) {
    dtm::Server& server = *servers_[i];
    probe.open_leases = server.open_lease_count();
    probe.protected_keys = server.store().protected_count();
    probe.wrong_group = server.stats().wrong_group.load();
    probe.indoubt = server.indoubt_count();
    probe.open_prepares = server.open_prepares().size();
    return probe;
  }
  transport::ControlRequest req;
  req.op = transport::ControlOp::kProbe;
  if (const auto reply = tcp().try_control(static_cast<net::NodeId>(i), req))
    probe = reply->probe;
  return probe;
}

void Cluster::roll_contention_windows() {
  if (!remote()) {
    for (auto& server : servers_) server->roll_contention_window();
    return;
  }
  transport::ControlRequest req;
  req.op = transport::ControlOp::kRollWindows;
  for (std::size_t i = 0; i < total_nodes_; ++i)
    tcp().try_control(static_cast<net::NodeId>(i), req);
}

std::vector<std::uint64_t> Cluster::class_levels(
    const std::vector<store::ClassId>& classes) {
  std::vector<std::uint64_t> levels(classes.size(), 0);
  if (!remote()) {
    for (auto& server : servers_) {
      const auto server_levels = server->contention().class_levels(classes);
      for (std::size_t i = 0; i < levels.size(); ++i)
        levels[i] = std::max(levels[i], server_levels[i]);
    }
    return levels;
  }
  transport::ControlRequest req;
  req.op = transport::ControlOp::kClassLevels;
  req.classes = classes;
  for (std::size_t i = 0; i < total_nodes_; ++i) {
    const auto reply = tcp().try_control(static_cast<net::NodeId>(i), req);
    if (!reply) continue;
    for (std::size_t c = 0; c < levels.size() && c < reply->levels.size(); ++c)
      levels[c] = std::max(levels[c], reply->levels[c]);
  }
  return levels;
}

void Cluster::crash_node(net::NodeId id, bool lose_disk) {
  if (remote()) {
    // Socket-layer crash: the replica suspends its data plane (listener
    // refuses data hellos, live data connections die) and sheds its
    // group-commit buffer — then the client side also marks it down so
    // calls fail fast instead of burning their deadlines.
    transport::ControlRequest req;
    req.op = transport::ControlOp::kCrash;
    req.lose_disk = lose_disk;
    tcp().control(id, req);
    transport_->set_node_down(id, true);
    return;
  }
  network_.set_node_down(id, true);
  const auto i = static_cast<std::size_t>(id);
  if (i < persistence_.size() && persistence_[i]) {
    // What sat in the group-commit buffer never reached the disk.
    persistence_[i]->drop_unflushed();
    if (lose_disk) persistence_[i]->wipe();
  }
}

void Cluster::checkpoint_node(std::size_t i) {
  if (remote()) {
    if (config_.durability.mode != DurabilityMode::kWal) return;
    transport::ControlRequest req;
    req.op = transport::ControlOp::kCheckpoint;
    tcp().try_control(static_cast<net::NodeId>(i), req);
    return;
  }
  if (i >= persistence_.size() || !persistence_[i]) return;
  dtm::Server* server = servers_[i].get();
  persistence_[i]->write_snapshot([server] {
    return dtm::SnapshotData{server->store().snapshot(),
                             server->open_prepares()};
  });
}

void Cluster::checkpoint_all() {
  if (remote()) {
    for (std::size_t i = 0; i < total_nodes_; ++i) checkpoint_node(i);
    return;
  }
  for (std::size_t i = 0; i < persistence_.size(); ++i) checkpoint_node(i);
}

std::size_t Cluster::restart_node(net::NodeId id, CatchUpScope scope) {
  if (id < 0 || static_cast<std::size_t>(id) >= total_nodes_)
    throw std::invalid_argument("Cluster::restart_node: unknown server id");
  if (remote()) return restart_remote_node(id, scope);
  dtm::Server& joiner = *servers_[static_cast<std::size_t>(id)];

  const std::uint64_t start_ns = now_ns();
  wal::ReplicaPersistence* wal = persistence(static_cast<std::size_t>(id));
  if (wal != nullptr) {
    // Disk-faithful restart: the in-process "crash" left the replica's
    // memory intact, so first shed it — what a real reboot would keep is
    // exactly what recover() reads back from the log and snapshot.
    joiner.reset_volatile_state();
    auto recovered = wal->recover();
    joiner.install_recovered(recovered.objects, recovered.open_prepares);
  }

  // Pick the peers to sync from — always within the joiner's own quorum
  // group: the groups' keyspaces are disjoint, so a foreign peer holds
  // nothing this replica should serve (and syncing from one would install
  // keys the group does not own).  A read quorum of the group suffices:
  // every committed write reached a write quorum, and read and write
  // quorums intersect, so the newest version of every key is present among
  // the sources.
  const std::vector<net::NodeId> sources = catchup_sources(id, scope);

  // A prepare the group committed while this replica was down is still
  // open here: phase two failed against the down node, the coordinator's
  // replays may have run out, and without a lease nothing else releases
  // its keys.  Ask the sources before reading their stores, so a source
  // that remembers the commit has it in the snapshot taken below.
  std::vector<dtm::OpenPrepare> committed_elsewhere;
  for (dtm::OpenPrepare& prepare : joiner.open_prepares()) {
    dtm::Request query;
    query.payload = dtm::DecisionQuery{prepare.tx, joiner.group()};
    for (const net::NodeId src : sources) {
      if (network_.node_down(src)) continue;
      const dtm::Response reply =
          servers_[static_cast<std::size_t>(src)]->handle(id, query);
      const auto* decision = std::get_if<dtm::DecisionReply>(&reply.payload);
      if (decision != nullptr &&
          decision->code == dtm::DecisionCode::kCommitted) {
        committed_elsewhere.push_back(std::move(prepare));
        break;
      }
    }
  }

  // Gather the newest version of every key across the sources, then install
  // whatever is newer than the local replica.  apply() is version-guarded,
  // so racing against live commit traffic can only lose to newer versions.
  std::unordered_map<store::ObjectKey, store::VersionedRecord,
                     store::ObjectKeyHash>
      newest;
  for (const net::NodeId src : sources) {
    if (network_.node_down(src)) continue;
    for (auto& [key, rec] : servers_[static_cast<std::size_t>(src)]
                                ->store()
                                .snapshot()) {
      auto [it, inserted] = newest.try_emplace(key, rec);
      if (!inserted && rec.version > it->second.version) it->second = rec;
    }
  }
  std::size_t updated = 0;
  for (const auto& [key, rec] : newest) {
    const auto local = joiner.store().version_of(key);
    if (local.has_value() && *local >= rec.version) continue;
    joiner.store().apply(key, rec.value, rec.version, store::kNoTx);
    ++updated;
  }

  // Finish those commits locally with the versions just installed (apply()
  // keeps the newer one): this releases the lease and the protections and
  // records the commit, so a late phase-two replay acks kDuplicate.
  for (const dtm::OpenPrepare& prepare : committed_elsewhere) {
    dtm::CommitRequest commit{prepare.tx, prepare.keys, {}, {}, joiner.group()};
    for (const auto& key : prepare.keys) {
      const auto it = newest.find(key);
      if (it == newest.end()) break;
      commit.values.push_back(it->second.value);
      commit.versions.push_back(it->second.version);
    }
    if (commit.values.size() != commit.keys.size()) continue;
    dtm::Request request;
    request.payload = std::move(commit);
    joiner.handle(id, request);
  }

  network_.set_node_down(id, false);

  obs::Observability* obs = config_.stub.obs;
  if (obs != nullptr) {
    obs->recovery_catchup_keys.add(updated);
    if (wal != nullptr) {
      // For a durable node the peer sync was a delta pass on top of log
      // replay; `updated` is what the log could not cover.
      obs->recovery_delta_keys.add(updated);
      obs->recovery_time_ns.observe(now_ns() - start_ns);
    }
  }
  if (wal != nullptr) {
    // Make the recovered + caught-up state durable in one snapshot; this
    // also compacts the log the replay just consumed.
    checkpoint_node(static_cast<std::size_t>(id));
  }
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

std::size_t Cluster::restart_remote_node(net::NodeId id, CatchUpScope scope) {
  const std::uint64_t start_ns = now_ns();
  const bool durable = config_.durability.mode == DurabilityMode::kWal;

  // Disk-faithful reboot, remotely: the replica sheds its volatile state
  // and recovers from its own log/snapshot (a no-op for volatile nodes,
  // which simply kept their store — the "offline node rejoins" case).
  transport::ControlRequest restart;
  restart.op = transport::ControlOp::kRestart;
  tcp().control(id, restart);

  // The joiner's post-recovery versions, so the peer sync ships a delta.
  std::unordered_map<store::ObjectKey, store::Version, store::ObjectKeyHash>
      local;
  for (auto& [key, rec] : store_snapshot(static_cast<std::size_t>(id)))
    local[key] = rec.version;

  // Same source-selection policy as the sim path, same intersection-property
  // argument; dumps ride the control plane so a data-plane partition cannot
  // starve recovery.
  std::unordered_map<store::ObjectKey, store::VersionedRecord,
                     store::ObjectKeyHash>
      newest;
  for (const net::NodeId src : catchup_sources(id, scope)) {
    if (transport_->node_down(src)) continue;
    transport::ControlRequest dump;
    dump.op = transport::ControlOp::kDump;
    const auto reply = tcp().try_control(src, dump);
    if (!reply) continue;
    for (auto& entry : reply->entries) {
      store::VersionedRecord rec{std::move(entry.value), entry.version};
      auto [it, inserted] = newest.try_emplace(entry.key, rec);
      if (!inserted && rec.version > it->second.version)
        it->second = std::move(rec);
    }
  }

  transport::ControlRequest push;
  push.op = transport::ControlOp::kSeed;
  for (auto& [key, rec] : newest) {
    const auto it = local.find(key);
    if (it != local.end() && it->second >= rec.version) continue;
    push.entries.push_back({key, rec.value, rec.version});
  }
  const std::size_t updated = push.entries.size();
  if (!push.entries.empty()) tcp().control(id, push);

  // Reopen the data plane server-side, then client-side.
  transport::ControlRequest resume;
  resume.op = transport::ControlOp::kResume;
  tcp().control(id, resume);
  transport_->set_node_down(id, false);

  obs::Observability* obs = config_.stub.obs;
  if (obs != nullptr) {
    obs->recovery_catchup_keys.add(updated);
    if (durable) {
      obs->recovery_delta_keys.add(updated);
      obs->recovery_time_ns.observe(now_ns() - start_ns);
    }
  }
  if (durable) checkpoint_node(static_cast<std::size_t>(id));
  return updated;
}

}  // namespace acn::harness
