#include "src/transport/replica_host.hpp"

#include <charconv>
#include <limits>
#include <string_view>

namespace acn::transport {

ReplicaHost::ReplicaHost(const ReplicaConfig& config)
    : server_(config.node, config.window_ns, config.lease_ns) {
  server_.set_group(config.group);
  if (!config.durable) return;
  persistence_ = std::make_unique<wal::ReplicaPersistence>(config.wal);
  auto recovered = persistence_->recover();
  server_.install_recovered(recovered.objects, recovered.open_prepares);
  server_.set_durability(persistence_.get());
}

void ReplicaHost::set_obs(obs::Observability* obs) noexcept {
  server_.set_obs(obs);
  if (persistence_) persistence_->set_obs(obs);
}

ControlReply ReplicaHost::control(const ControlRequest& req) {
  ControlReply reply;
  try {
    switch (req.op) {
      case ControlOp::kPing:
      case ControlOp::kResume:  // the data plane is the caller's to reopen
        break;
      case ControlOp::kSeed:
        // Version-guarded installs: initial seeding and rejoin catch-up
        // both land here, so a live commit racing them keeps its newer
        // version.
        for (const SeedEntry& e : req.entries)
          if (server_.store().apply(e.key, e.value, e.version, store::kNoTx))
            ++reply.count;
        break;
      case ControlOp::kDump:
        for (auto& [key, rec] : server_.store().snapshot())
          reply.entries.push_back({key, std::move(rec.value), rec.version});
        break;
      case ControlOp::kRollWindows:
        server_.roll_contention_window();
        break;
      case ControlOp::kClassLevels:
        reply.levels = server_.contention().class_levels(req.classes);
        break;
      case ControlOp::kCrash:
        // What the group-commit buffer never flushed is lost; a disk-loss
        // crash also wipes the directory.  Memory survives the "crash":
        // kRestart decides what a reboot would have kept.
        if (persistence_) {
          persistence_->drop_unflushed();
          if (req.lose_disk) persistence_->wipe();
        }
        break;
      case ControlOp::kRestart:
        // A reboot keeps exactly what recover() reads back from the log and
        // snapshot; a volatile replica keeps its store (the offline node).
        if (persistence_) {
          server_.reset_volatile_state();
          auto recovered = persistence_->recover();
          server_.install_recovered(recovered.objects,
                                    recovered.open_prepares);
        }
        reply.prepares = server_.open_prepares();
        break;
      case ControlOp::kCheckpoint:
        if (persistence_)
          persistence_->write_snapshot([this] {
            return dtm::SnapshotData{server_.store().snapshot(),
                                     server_.open_prepares()};
          });
        break;
      case ControlOp::kExpireLeases:
        reply.count = server_.expire_stale_leases();
        break;
      case ControlOp::kIndoubtList:
        reply.indoubt = server_.indoubt_transactions();
        break;
      case ControlOp::kProbe:
        reply.probe.open_leases = server_.open_lease_count();
        reply.probe.protected_keys = server_.store().protected_count();
        reply.probe.wrong_group = server_.stats().wrong_group.load();
        reply.probe.indoubt = server_.indoubt_count();
        reply.probe.open_prepares = server_.open_prepares().size();
        break;
      case ControlOp::kShutdown:
        if (persistence_) persistence_->flush();
        break;
      case ControlOp::kHandle:
        // The operator is no node: -1 as the sender (handle() ignores it).
        reply.response = server_.handle(-1, req.request);
        break;
    }
  } catch (const std::exception& e) {
    reply = {};
    reply.ok = false;
    reply.error = e.what();
  }
  return reply;
}

std::vector<std::string> replica_args(const ReplicaFlags& flags) {
  const ReplicaConfig& r = flags.replica;
  std::vector<std::string> args = {
      "--node=" + std::to_string(r.node),
      "--group=" + std::to_string(r.group),
      "--host=" + flags.host,
      "--port=" + std::to_string(flags.port),
      "--lease-ns=" + std::to_string(r.lease_ns),
      "--window-ns=" + std::to_string(r.window_ns),
      "--workers=" + std::to_string(flags.workers),
      std::string("--durability=") + (r.durable ? "wal" : "none"),
      "--data-dir=" + r.wal.dir,
      "--flush-ns=" + std::to_string(r.wal.flush_interval_ns),
      "--snapshot-bytes=" + std::to_string(r.wal.snapshot_every_bytes),
  };
  if (!r.wal.fsync) args.push_back("--no-fsync");
  return args;
}

std::optional<ReplicaFlags> parse_replica_flags(
    const std::vector<std::string>& args, std::string& error) {
  using Limits = std::numeric_limits<std::int64_t>;
  ReplicaFlags flags;
  ReplicaConfig& r = flags.replica;
  // Integer flags parse into int64 and are range-checked before they are
  // narrowed into their fields: a cast would turn -1 into SIZE_MAX workers.
  std::int64_t node = -1;
  std::int64_t group = 0;
  std::int64_t port = flags.port;
  auto workers = static_cast<std::int64_t>(flags.workers);
  auto snapshot_bytes = static_cast<std::int64_t>(r.wal.snapshot_every_bytes);
  struct IntFlag {
    std::string_view name;
    std::int64_t* out;
    std::int64_t lo;
    std::int64_t hi;
  };
  const IntFlag int_flags[] = {
      {"--node", &node, 0, std::numeric_limits<net::NodeId>::max()},
      {"--group", &group, 0, std::numeric_limits<std::uint32_t>::max()},
      {"--port", &port, 0, 65535},
      {"--lease-ns", &r.lease_ns, Limits::min(), Limits::max()},
      {"--window-ns", &r.window_ns, 0, Limits::max()},
      {"--flush-ns", &r.wal.flush_interval_ns, Limits::min(), Limits::max()},
      {"--snapshot-bytes", &snapshot_bytes, 0, Limits::max()},
      {"--workers", &workers, 1, kMaxReplicaWorkers},
  };
  for (const std::string& arg : args) {
    if (arg == "--no-fsync") {
      r.wal.fsync = false;
      continue;
    }
    const std::size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      error = "unknown flag: " + arg;
      return std::nullopt;
    }
    const std::string name = arg.substr(0, eq);
    const std::string value = arg.substr(eq + 1);
    const IntFlag* int_flag = nullptr;
    for (const IntFlag& f : int_flags)
      if (f.name == name) int_flag = &f;
    if (int_flag != nullptr) {
      std::int64_t v = 0;
      const char* end = value.data() + value.size();
      const auto [ptr, ec] = std::from_chars(value.data(), end, v);
      if (ec != std::errc{} || ptr != end || v < int_flag->lo ||
          v > int_flag->hi) {
        error = name + " expects an integer in [" +
                std::to_string(int_flag->lo) + ", " +
                std::to_string(int_flag->hi) + "], got '" + value + "'";
        return std::nullopt;
      }
      *int_flag->out = v;
    } else if (name == "--host") {
      flags.host = value;
    } else if (name == "--data-dir") {
      r.wal.dir = value;
    } else if (name == "--durability" && (value == "none" || value == "wal")) {
      r.durable = value == "wal";
    } else {
      error = name == "--durability" ? "--durability must be none|wal"
                                     : "unknown flag: " + arg;
      return std::nullopt;
    }
  }
  if (node < 0) {
    error = "--node is required";
    return std::nullopt;
  }
  r.node = static_cast<net::NodeId>(node);
  r.group = static_cast<std::uint32_t>(group);
  r.wal.snapshot_every_bytes = static_cast<std::uint64_t>(snapshot_bytes);
  flags.port = static_cast<int>(port);
  flags.workers = static_cast<std::size_t>(workers);
  if (r.wal.dir.empty()) r.wal.dir = "acn-data/node-" + std::to_string(node);
  return flags;
}

}  // namespace acn::transport
