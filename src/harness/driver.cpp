#include "src/harness/driver.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>

#include "src/common/clock.hpp"
#include "src/common/stats.hpp"

namespace acn::harness {
namespace {

/// The default Submitter: one group-0 stub + Executor, exactly the
/// pre-sharding client. Owns the stub so the pair's lifetimes stay tied.
/// It addresses group 0 only, so run() refuses it on a sharded cluster.
class ExecutorSubmitter final : public Submitter {
 public:
  ExecutorSubmitter(dtm::QuorumStub stub, const acn::ExecutorConfig& config,
                    std::uint64_t seed)
      : stub_(std::move(stub)), executor_(stub_, config, seed) {}

  void run(Protocol protocol, const acn::RunOptions& options,
           const std::vector<acn::ir::Record>& params,
           acn::ExecStats& stats) override {
    executor_.run(protocol, options, params, stats);
  }

 private:
  dtm::QuorumStub stub_;
  Executor executor_;
};

}  // namespace

double RunResult::mean_throughput(std::size_t from_interval) const {
  if (from_interval >= throughput.size()) return 0.0;
  double total = 0.0;
  for (std::size_t i = from_interval; i < throughput.size(); ++i)
    total += throughput[i];
  return total / static_cast<double>(throughput.size() - from_interval);
}

RunResult run(Cluster& cluster, const workloads::Workload& workload,
              Protocol protocol, const DriverConfig& config) {
  const auto& profiles = workload.profiles();
  if (profiles.empty())
    throw std::invalid_argument("run: workload has no profiles");
  if (!config.make_submitter && cluster.n_groups() > 1)
    throw std::invalid_argument(
        "run: the default submitter addresses group 0 only, but the cluster "
        "has " + std::to_string(cluster.n_groups()) +
        " groups; set DriverConfig::make_submitter to "
        "shard::ClientFleet::factory()");

  obs::Observability* const obs = config.obs;
  obs::Snapshot metrics_before;
  // Wire-level baseline: the transport accumulates its own atomic counters
  // (sim approximations or real TCP socket bytes); the run's delta is
  // folded into the obs registry at the end so both transports emit the
  // same transport.* metrics.
  const net::TransportCounters& wire = cluster.transport().counters();
  const std::uint64_t wire_sent0 = wire.bytes_sent.load();
  const std::uint64_t wire_recv0 = wire.bytes_recv.load();
  const std::uint64_t wire_reconnects0 = wire.reconnects.load();
  const std::uint64_t wire_corrupt0 = wire.frames_corrupt.load();
  // Simulated-delay baseline (sim mode only), folded in the same way.
  const net::NetStats* const sim_net =
      cluster.remote() ? nullptr : &cluster.network().stats();
  const std::uint64_t delay_rounds0 = sim_net ? sim_net->delay_rounds() : 0;
  const std::uint64_t delay_requested0 =
      sim_net ? sim_net->delay_requested_ns() : 0;
  const std::uint64_t delay_actual0 = sim_net ? sim_net->delay_actual_ns() : 0;
  if (obs) {
    metrics_before = obs->metrics.snapshot();
    cluster.set_obs(obs);
    // One trace "process" per protocol run: lanes group by protocol in the
    // Perfetto UI even when several runs share the tracer.
    obs->tracer.set_process(static_cast<std::int32_t>(protocol) + 1,
                            protocol_name(protocol));
  }

  // QR-ACN machinery: one controller per transaction program, one monitor
  // over the union of touched classes, refreshed through an admin stub.
  auto contention_model = default_contention_model();
  std::vector<std::unique_ptr<AdaptiveController>> controllers;
  std::unique_ptr<ContentionMonitor> monitor;
  std::unique_ptr<dtm::QuorumStub> admin_stub;
  if (protocol == Protocol::kAcn) {
    std::vector<ir::ClassId> classes;
    for (const auto& profile : profiles) {
      controllers.push_back(std::make_unique<AdaptiveController>(
          *profile.program, config.algorithm, contention_model));
      const auto touched = controllers.back()->touched_classes();
      classes.insert(classes.end(), touched.begin(), touched.end());
    }
    monitor = std::make_unique<ContentionMonitor>(std::move(classes));
    admin_stub = std::make_unique<dtm::QuorumStub>(
        cluster.make_stub(/*client_ordinal=*/1'000'000, config.seed ^ 0xadaULL));
    if (obs) {
      monitor->set_obs(obs);
      for (auto& controller : controllers) controller->set_obs(obs);
    }
  }

  // Contention-aware scheduler, shared by every client thread.  Its
  // class-hot refinement watches every class any profile touches.
  std::unique_ptr<sched::TxScheduler> scheduler;
  std::vector<ir::ClassId> sched_classes;
  if (config.scheduler.policy != sched::SchedulerPolicy::kNone) {
    scheduler = std::make_unique<sched::TxScheduler>(
        config.scheduler, config.n_clients, config.seed, obs);
    std::unordered_set<ir::ClassId> classes;
    for (const auto& profile : profiles)
      for (const auto& op : profile.program->ops)
        if (op.is_remote()) classes.insert(op.remote.cls);
    sched_classes.assign(classes.begin(), classes.end());
  }

  std::atomic<int> phase{0};
  // Peak per-interval hot-key count homed on each group (shard_of + sched).
  std::vector<std::uint64_t> hot_keys_by_group;
  if (config.shard_of) hot_keys_by_group.assign(cluster.n_groups(), 0);
  std::atomic<std::size_t> current_interval{0};
  std::atomic<bool> stop{false};
  IntervalSeries commits(config.intervals);
  IntervalSeries aborts(config.intervals);
  LatencyHistogram latency;
  std::vector<ExecStats> thread_stats(config.n_clients);
  std::vector<std::string> thread_errors(config.n_clients);

  // Every submitter is built before any client thread starts: building one
  // may register a network node (a sharded Client's coordinator), which
  // must not race traffic from running clients.
  std::vector<std::unique_ptr<Submitter>> submitters;
  submitters.reserve(config.n_clients);
  for (std::size_t t = 0; t < config.n_clients; ++t) {
    ExecutorConfig exec_config = config.executor;
    if (obs) exec_config.obs = obs;
    if (protocol == Protocol::kAcn && config.piggyback_contention)
      exec_config.piggyback_monitor = monitor.get();
    const std::uint64_t exec_seed = config.seed ^ (t << 20);
    submitters.push_back(
        config.make_submitter
            ? config.make_submitter(cluster, t, exec_config, exec_seed)
            : std::make_unique<ExecutorSubmitter>(
                  cluster.make_stub(static_cast<int>(t),
                                    config.seed + 0x100 + t),
                  exec_config, exec_seed));
  }

  std::vector<std::thread> clients;
  clients.reserve(config.n_clients);
  for (std::size_t t = 0; t < config.n_clients; ++t) {
    clients.emplace_back([&, t] {
      Rng rng(config.seed * 0x9e3779b97f4a7c15ULL + t + 1);
      if (obs) obs->tracer.set_thread_name("client-" + std::to_string(t));
      Submitter& submitter = *submitters[t];
      // One RunOptions per profile, built once: only the per-transaction
      // params vary inside the loop.
      std::vector<RunOptions> profile_options(profiles.size());
      for (std::size_t p = 0; p < profiles.size(); ++p) {
        RunOptions& options = profile_options[p];
        options.batch_reads = config.batch_reads;
        options.prefetch = config.prefetch;
        if (scheduler) options.scheduler = &scheduler->session(t);
        switch (protocol) {
          case Protocol::kFlat:
          case Protocol::kCheckpoint:
            options.program = profiles[p].program.get();
            break;
          case Protocol::kManualCN:
            options.program = profiles[p].program.get();
            options.model = &profiles[p].static_model;
            options.sequence = &profiles[p].manual_sequence;
            break;
          case Protocol::kAcn:
            options.controller = controllers[p].get();
            break;
        }
      }
      ExecStats& stats = thread_stats[t];
      std::uint64_t aborts_seen = 0;
      try {
        while (!stop.load(std::memory_order_relaxed)) {
          const std::size_t p = workloads::pick_profile(profiles, rng);
          const auto params = profiles[p].make_params(
              rng, phase.load(std::memory_order_relaxed));
          const Stopwatch tx_watch;
          submitter.run(protocol, profile_options[p], params, stats);
          latency.add(tx_watch.elapsed_ns());
          const std::size_t interval =
              current_interval.load(std::memory_order_relaxed);
          commits.add(interval);
          const std::uint64_t aborts_now =
              stats.full_aborts + stats.partial_aborts;
          aborts.add(interval, aborts_now - aborts_seen);
          aborts_seen = aborts_now;
          precise_sleep_for(config.think_time);
        }
      } catch (const std::exception& e) {
        thread_errors[t] = e.what();
        stop.store(true);
      }
    });
  }

  for (std::size_t k = 0; k < config.intervals && !stop.load(); ++k) {
    for (const auto& [at, new_phase] : config.phase_changes)
      if (at == k) phase.store(new_phase);
    std::this_thread::sleep_for(config.interval);
    cluster.roll_contention_windows();
    if (scheduler) {
      scheduler->note_class_levels(sched_classes,
                                   cluster.class_levels(sched_classes));
      scheduler->tick();
      if (config.shard_of) {
        std::vector<std::uint64_t> by_group(cluster.n_groups(), 0);
        for (const auto& key : scheduler->hot_keys())
          ++by_group[config.shard_of(key) % cluster.n_groups()];
        for (std::size_t g = 0; g < by_group.size(); ++g)
          hot_keys_by_group[g] = std::max(hot_keys_by_group[g], by_group[g]);
      }
    }
    if (protocol == Protocol::kAcn) {
      if (!config.piggyback_contention) monitor->refresh(*admin_stub);
      const auto raw = monitor->raw();
      for (auto& controller : controllers) controller->adapt(raw);
      if (config.piggyback_contention) monitor->reset();
    }
    current_interval.store(k + 1);
  }

  stop.store(true);
  for (auto& client : clients) client.join();

  for (const auto& error : thread_errors)
    if (!error.empty()) throw std::runtime_error("client thread failed: " + error);

  RunResult result;
  result.protocol = protocol;
  const double seconds =
      std::chrono::duration<double>(config.interval).count();
  result.throughput.reserve(config.intervals);
  result.abort_rate.reserve(config.intervals);
  for (std::size_t k = 0; k < config.intervals; ++k) {
    result.throughput.push_back(static_cast<double>(commits.at(k)) / seconds);
    result.abort_rate.push_back(static_cast<double>(aborts.at(k)) / seconds);
  }
  for (const auto& stats : thread_stats) result.stats.merge(stats);
  for (const auto& controller : controllers) {
    result.adaptations += controller->adaptations();
    result.recompositions += controller->recompositions();
  }
  result.latency_p50_ns = latency.percentile(0.5);
  result.latency_p99_ns = latency.percentile(0.99);
  if (scheduler && config.shard_of)
    result.hot_keys_by_group = std::move(hot_keys_by_group);
  if (obs) {
    obs->transport_bytes_sent.add(wire.bytes_sent.load() - wire_sent0);
    obs->transport_bytes_recv.add(wire.bytes_recv.load() - wire_recv0);
    obs->transport_reconnects.add(wire.reconnects.load() - wire_reconnects0);
    obs->transport_frames_corrupt.add(wire.frames_corrupt.load() -
                                      wire_corrupt0);
    if (sim_net) {
      obs->net_delay_rounds.add(sim_net->delay_rounds() - delay_rounds0);
      obs->net_delay_requested_ns.add(sim_net->delay_requested_ns() -
                                      delay_requested0);
      obs->net_delay_actual_ns.add(sim_net->delay_actual_ns() - delay_actual0);
    }
    result.metrics = obs->metrics.snapshot().since(metrics_before);
  }

  if (config.check_invariants) {
    if (cluster.remote()) {
      // Remote replicas: reconstruct their committed state locally from
      // control-plane dumps so the workload's checks run unchanged.
      const StateMirror m = cluster.mirror();
      workload.check_invariants(m.servers);
    } else {
      workload.check_invariants(cluster.servers());
    }
  }
  return result;
}

void seed_workload(Cluster& cluster, workloads::Workload& workload) {
  workload.seed_objects(
      [&](const store::ObjectKey& key, const store::Record& value) {
        cluster.seed_object(key, value);
      });
  cluster.flush_seeds();
}

std::vector<RunResult> run_all_protocols(
    const ClusterConfig& cluster_config,
    const std::function<std::unique_ptr<workloads::Workload>()>& make_workload,
    const DriverConfig& config) {
  std::vector<RunResult> results;
  for (const Protocol protocol :
       {Protocol::kFlat, Protocol::kManualCN, Protocol::kAcn}) {
    Cluster cluster(cluster_config);
    auto workload = make_workload();
    seed_workload(cluster, *workload);
    results.push_back(run(cluster, *workload, protocol, config));
  }
  return results;
}

}  // namespace acn::harness
