#include "src/shard/client.hpp"

#include <stdexcept>

namespace acn::shard {

const char* exec_mode_name(ExecMode mode) noexcept {
  switch (mode) {
    case ExecMode::kAcn:
      return "acn";
    case ExecMode::kQueue:
      return "queue";
    case ExecMode::kHybrid:
      return "hybrid";
  }
  return "?";
}

std::optional<ExecMode> parse_exec_mode(std::string_view text) noexcept {
  if (text == "acn") return ExecMode::kAcn;
  if (text == "queue") return ExecMode::kQueue;
  if (text == "hybrid") return ExecMode::kHybrid;
  return std::nullopt;
}

Client::Client(harness::Cluster& cluster, const ShardRouter& router,
               ClientStats& stats, int client_ordinal,
               acn::ExecutorConfig config, std::uint64_t seed, ExecMode mode,
               std::shared_ptr<Lane> lane)
    : stats_(stats),
      mode_(mode),
      lane_(std::move(lane)),
      coordinator_(cluster, router, client_ordinal, seed ^ 0xC0DEULL),
      executor_(coordinator_, config, seed * 0x9e3779b97f4a7c15ULL + 0x5AAD) {
  coordinator_.set_logs(config.history, config.cross_log);
}

Client::~Client() {
  // Fold this client's coordinator counters into the fleet totals (the
  // gates assert the breach sum is zero; handoffs are benign and merely
  // reported).
  stats_.atomicity_breaches.fetch_add(
      coordinator_.stats().atomicity_breaches.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  stats_.indoubt_handoffs.fetch_add(
      coordinator_.stats().indoubt_handoffs.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
}

void Client::run(Protocol protocol, const acn::RunOptions& options,
                 const std::vector<acn::ir::Record>& params,
                 acn::ExecStats& stats) {
  // Deterministic-lane dispatch: kQueue sends every predictable
  // transaction, kHybrid only those whose footprint touches a hot key (the
  // scheduler's call — cold traffic loses nothing to optimism).  A
  // footprint-less transaction is invisible to the planner's queues, so it
  // always stays optimistic.  A demotion falls through to the Executor
  // below, which serializes the re-execution after the lane's epoch.
  if (lane_ != nullptr && mode_ != ExecMode::kAcn) {
    const ir::TxProgram* program =
        protocol == Protocol::kAcn && options.controller != nullptr
            ? &options.controller->algorithm().program()
            : options.program;
    if (program == nullptr)
      throw std::invalid_argument("shard::Client::run: missing program");
    const KeyFootprint predicted = predicted_footprint(*program, params);
    const bool deterministic =
        !predicted.empty() &&
        (mode_ == ExecMode::kQueue || (options.scheduler != nullptr &&
                                       options.scheduler->any_hot(predicted)));
    if (deterministic) {
      stats_.lane_submits.fetch_add(1, std::memory_order_relaxed);
      if (lane_->submit(*program, params, predicted, stats) ==
          LaneOutcome::kCommitted) {
        stats_.lane_commits.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      stats_.lane_demotions.fetch_add(1, std::memory_order_relaxed);
    }
  }

  executor_.run(protocol, options, params, stats);
  const CrossShardCoordinator::CommitRoute& route = coordinator_.last_commit();
  if (route.single) {
    stats_.fast_path.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  stats_.cross_shard.fetch_add(1, std::memory_order_relaxed);
  if (route.predicted_single)
    stats_.escalations.fetch_add(1, std::memory_order_relaxed);
}

namespace {

ShardMap make_map(const workloads::Workload& workload, std::uint32_t n_shards) {
  const workloads::Placement placement = workload.placement();
  ShardMapConfig config;
  config.n_shards = n_shards;
  if (placement.shard_of) {
    config.partitioning = Partitioning::kCustom;
    config.custom = placement.shard_of;
  }
  config.replicated_classes = placement.replicated_classes;
  return ShardMap(config);
}

}  // namespace

ClientFleet::ClientFleet(const workloads::Workload& workload,
                         std::uint32_t n_shards)
    : map_(make_map(workload, n_shards)), router_(map_) {}

void ClientFleet::seed(harness::Cluster& cluster,
                       workloads::Workload& workload) const {
  workload.seed_objects(
      [&](const store::ObjectKey& key, const store::Record& value) {
        seed_sharded(cluster, map_, key, value);
      });
  cluster.flush_seeds();
}

harness::SubmitterFactory ClientFleet::factory() {
  return [this](harness::Cluster& cluster, std::size_t client,
                const acn::ExecutorConfig& config,
                std::uint64_t seed) -> std::unique_ptr<harness::Submitter> {
    return std::make_unique<Client>(cluster, router_, stats_,
                                    static_cast<int>(client), config, seed,
                                    mode_, lane_for(cluster));
  };
}

void ClientFleet::set_lane(ExecMode mode, LaneFactory make_lane) {
  std::lock_guard<std::mutex> lock(lane_mutex_);
  mode_ = mode;
  make_lane_ = std::move(make_lane);
  lane_.reset();
}

std::shared_ptr<Lane> ClientFleet::lane() const {
  std::lock_guard<std::mutex> lock(lane_mutex_);
  return lane_;
}

std::shared_ptr<Lane> ClientFleet::lane_for(harness::Cluster& cluster) {
  // Client threads race through factory(); the first one builds the lane.
  std::lock_guard<std::mutex> lock(lane_mutex_);
  if (mode_ == ExecMode::kAcn || !make_lane_) return nullptr;
  if (!lane_) lane_ = make_lane_(cluster, router_);
  return lane_;
}

std::function<std::uint32_t(const store::ObjectKey&)> ClientFleet::shard_of()
    const {
  return [this](const store::ObjectKey& key) { return map_.shard_of(key); };
}

}  // namespace acn::shard
