// Shared runner for the Figure 4 reproduction binaries.
//
// Each bench builds the paper's cluster shape — 10 server replicas in a
// ternary tree behind a simulated LAN — runs one workload under QR-DTM,
// QR-CN and QR-ACN for a fixed number of measurement intervals, and prints
// the per-interval throughput series plus the post-adaptation improvement
// summary (the numbers the paper quotes per panel).
//
// All benches share one option set, BenchOptions::parse(argc, argv):
//   --clients=N --intervals=N --interval-ms=N --servers=N --latency-us=N
//   --seed=N
//   --shards=N           quorum groups; n_servers is then per group (see
//                        harness::ClusterConfig::n_groups).  Every bench
//                        submits through shard::Client, which routes each
//                        transaction by its predicted footprint: N=1 keeps
//                        the classic single-group behavior, N>1 places the
//                        workload per its Placement and commits cross-shard
//                        transactions by 2PC.
// Fault injection (chaos-capable benches):
//   --drop=P             global message-drop probability (both legs)
//   --lease-ms=N         prepare-lease lifetime on every server (0 = off)
// Durability (src/wal; benches that honor it say so in their headers):
//   --durability=wal|none  per-replica write-ahead log + snapshots
//   --data-dir DIR       root directory for per-node logs (node-<i>/ inside)
//   --flush-us=N         group-commit window (0 = fsync every append)
//   --no-fsync           keep the log but skip fsync (comparative benches)
//   --snapshot-kb=N      snapshot + compact after this much log
// Batched read pipeline (QR-CN / QR-ACN runs):
//   --batch-reads        fetch each Block's independent reads in one round
//   --prefetch           also speculate on the next Block (implies the above)
// Contention-aware scheduler (src/sched):
//   --sched=POLICY       none | queue | admit | both (default none)
// Transport (src/transport; benches that support it say so):
//   --transport=MODE     sim | tcp (default sim).  tcp spawns each replica
//                        as a cluster_main process on localhost sockets and
//                        drives it through transport::TcpTransport; per-
//                        process logs land under --tcp-log-dir
//   --tcp-log-dir DIR    replica stderr logs (default cluster-logs)
// Execution mode (src/queue — the deterministic epoch lane):
//   --exec=MODE          acn | queue | hybrid (default acn).  queue sends
//                        every predictable transaction through the epoch
//                        lane; hybrid routes by scheduler hotness (pair it
//                        with --sched=queue/both so hotness is tracked)
//   --epoch-max=N        planner epoch cut size (transactions per epoch)
//   --epoch-wait-us=N    how long the planner holds an epoch open to fill
//   --executors=N        queue executor threads draining an epoch
// Observability (both --flag=FILE and --flag FILE forms):
//   --trace FILE         Chrome-trace/Perfetto JSON of the runs
//   --metrics-json FILE  per-protocol metrics snapshots as JSON
//   --metrics-csv FILE   same snapshots as protocol,name,kind,stat,value rows
#pragma once

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>

#include "src/harness/driver.hpp"
#include "src/harness/report.hpp"
#include "src/obs/obs.hpp"
#include "src/queue/service.hpp"
#include "src/shard/client.hpp"

namespace acn::bench {

struct BenchOptions {
  harness::ClusterConfig cluster;
  harness::DriverConfig driver;
  std::string csv_path;           // --csv=FILE: dump the per-interval series
  std::string trace_path;         // --trace FILE: Chrome-trace JSON
  std::string metrics_json_path;  // --metrics-json FILE
  std::string metrics_csv_path;   // --metrics-csv FILE
  /// --drop=P: benches that inject faults apply this to the cluster network
  /// after construction (run_figure ignores it).
  double drop_probability = 0.0;
  /// --exec=MODE plus the epoch lane's tuning knobs.
  shard::ExecMode exec_mode = shard::ExecMode::kAcn;
  queue::QueueConfig queue;
  /// True when --data-dir was given explicitly.  Otherwise the data dir
  /// defaults to a per-run path under the system temp directory, and
  /// cleanup_data_dir() removes it when the bench succeeds — durable runs
  /// must not litter the working tree with wal-data-* directories.
  bool data_dir_overridden = false;
  /// Shared so copies of BenchOptions keep driver.obs valid.
  std::shared_ptr<obs::Observability> obs;

  /// Remove the run's durable data (call on success only — a failed run
  /// keeps its logs for inspection).  No-op for an explicit --data-dir:
  /// the user owns that path.
  void cleanup_data_dir() const {
    if (data_dir_overridden) return;
    std::error_code ec;  // best effort: a vanished dir is fine
    std::filesystem::remove_all(cluster.durability.data_dir, ec);
  }

  BenchOptions() {
    cluster.n_servers = 10;
    cluster.base_latency = std::chrono::microseconds{25};
    cluster.stub.retry.base = std::chrono::microseconds{20};
    driver.n_clients = 8;
    driver.intervals = 8;
    driver.interval = std::chrono::milliseconds{250};
    driver.executor.backoff_base = std::chrono::microseconds{20};
    driver.seed = 42;
  }

  /// Parse the shared command-line options (see the header comment for the
  /// full list).  `extra` lets a bench claim its own flags before the
  /// shared set (return true = consumed); everything else is shared, so
  /// every bench accepts --shards/--sched/--durability/... identically.
  /// Unknown arguments are reported and ignored, so benches stay
  /// permissive across versions.
  static BenchOptions parse(int argc, char** argv,
                            const std::function<bool(const std::string&)>&
                                extra = {});
};

inline BenchOptions BenchOptions::parse(
    int argc, char** argv,
    const std::function<bool(const std::string&)>& extra) {
  BenchOptions args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (extra && extra(arg)) continue;
    auto value = [&](const char* prefix) -> long {
      return std::strtol(arg.c_str() + std::strlen(prefix), nullptr, 10);
    };
    // String-valued flag accepting --flag=FILE and --flag FILE.
    auto path_flag = [&](const char* flag, std::string& out) -> bool {
      const std::size_t n = std::strlen(flag);
      if (arg.rfind(flag, 0) != 0) return false;
      if (arg.size() > n && arg[n] == '=') {
        out = arg.substr(n + 1);
        return true;
      }
      if (arg.size() == n && i + 1 < argc) {
        out = argv[++i];
        return true;
      }
      return false;
    };
    if (path_flag("--csv", args.csv_path) ||
        path_flag("--trace", args.trace_path) ||
        path_flag("--metrics-json", args.metrics_json_path) ||
        path_flag("--metrics-csv", args.metrics_csv_path))
      continue;
    if (path_flag("--data-dir", args.cluster.durability.data_dir)) {
      args.data_dir_overridden = true;
      continue;
    }
    if (path_flag("--tcp-log-dir", args.cluster.tcp.log_dir)) continue;
    if (arg == "--transport=sim") {
      args.cluster.transport_mode = harness::TransportMode::kSim;
      continue;
    }
    if (arg == "--transport=tcp") {
      args.cluster.transport_mode = harness::TransportMode::kTcp;
      continue;
    }
    if (arg == "--durability=wal") {
      args.cluster.durability.mode = harness::DurabilityMode::kWal;
      continue;
    }
    if (arg == "--durability=none") {
      args.cluster.durability.mode = harness::DurabilityMode::kNone;
      continue;
    }
    if (arg.rfind("--flush-us=", 0) == 0) {
      args.cluster.durability.flush_interval_ns = value("--flush-us=") * 1'000;
      continue;
    }
    if (arg.rfind("--snapshot-kb=", 0) == 0) {
      args.cluster.durability.snapshot_every_bytes =
          static_cast<std::uint64_t>(value("--snapshot-kb=")) * 1024;
      continue;
    }
    if (arg == "--no-fsync") {
      args.cluster.durability.fsync = false;
      continue;
    }
    if (arg.rfind("--exec=", 0) == 0) {
      const auto mode =
          shard::parse_exec_mode(arg.c_str() + std::strlen("--exec="));
      if (!mode) {
        std::fprintf(stderr, "bad --exec value: %s\n", arg.c_str());
        std::exit(2);
      }
      args.exec_mode = *mode;
      continue;
    }
    if (arg.rfind("--epoch-max=", 0) == 0) {
      args.queue.epoch_max = static_cast<std::size_t>(value("--epoch-max="));
      continue;
    }
    if (arg.rfind("--epoch-wait-us=", 0) == 0) {
      args.queue.epoch_wait =
          std::chrono::microseconds{value("--epoch-wait-us=")};
      continue;
    }
    if (arg.rfind("--executors=", 0) == 0) {
      args.queue.n_executors = static_cast<std::size_t>(value("--executors="));
      continue;
    }
    if (arg.rfind("--sched=", 0) == 0) {
      const auto policy =
          sched::parse_policy(arg.c_str() + std::strlen("--sched="));
      if (!policy) {
        std::fprintf(stderr, "bad --sched value: %s\n", arg.c_str());
        std::exit(2);
      }
      args.driver.scheduler.policy = *policy;
      continue;
    }
    if (arg == "--batch-reads") {
      args.driver.batch_reads = true;
    } else if (arg == "--prefetch") {
      // Prefetching rides the batched round; the flag implies batching.
      args.driver.batch_reads = true;
      args.driver.prefetch = true;
    } else if (arg.rfind("--clients=", 0) == 0)
      args.driver.n_clients = static_cast<std::size_t>(value("--clients="));
    else if (arg.rfind("--intervals=", 0) == 0)
      args.driver.intervals = static_cast<std::size_t>(value("--intervals="));
    else if (arg.rfind("--interval-ms=", 0) == 0)
      args.driver.interval = std::chrono::milliseconds{value("--interval-ms=")};
    else if (arg.rfind("--servers=", 0) == 0)
      args.cluster.n_servers = static_cast<std::size_t>(value("--servers="));
    else if (arg.rfind("--shards=", 0) == 0)
      args.cluster.n_groups = static_cast<std::size_t>(value("--shards="));
    else if (arg.rfind("--latency-us=", 0) == 0)
      args.cluster.base_latency = std::chrono::microseconds{value("--latency-us=")};
    else if (arg.rfind("--seed=", 0) == 0)
      args.driver.seed = static_cast<std::uint64_t>(value("--seed="));
    else if (arg.rfind("--drop=", 0) == 0)
      args.drop_probability =
          std::strtod(arg.c_str() + std::strlen("--drop="), nullptr);
    else if (arg.rfind("--lease-ms=", 0) == 0)
      args.cluster.prepare_lease_ns = value("--lease-ms=") * 1'000'000;
    else
      std::fprintf(stderr, "ignoring unknown arg: %s\n", arg.c_str());
  }
  if (!args.data_dir_overridden) {
    // Per-run temp path: parallel bench invocations never collide, and a
    // successful run (cleanup_data_dir) leaves nothing in the working tree.
    std::error_code ec;
    std::filesystem::path base = std::filesystem::temp_directory_path(ec);
    if (ec) base = ".";
    args.cluster.durability.data_dir =
        (base / ("acn-wal-" +
                 std::filesystem::path(argv[0]).filename().string() + "-" +
                 std::to_string(static_cast<unsigned long>(::getpid()))))
            .string();
  }
  if (!args.trace_path.empty() || !args.metrics_json_path.empty() ||
      !args.metrics_csv_path.empty()) {
    obs::ObsConfig config;
    config.trace_enabled = !args.trace_path.empty();
    args.obs = std::make_shared<obs::Observability>(config);
    args.driver.obs = args.obs.get();
  }
  return args;
}

/// Route the fleet's clients through the deterministic epoch lane per
/// --exec (no-op for --exec=acn).  The lane is built lazily by the first
/// client thread; one EpochService is shared by the whole fleet.
inline void arm_exec_mode(shard::ClientFleet& fleet, const BenchOptions& args) {
  if (args.exec_mode == shard::ExecMode::kAcn) return;
  const queue::QueueConfig config = args.queue;
  const std::uint64_t seed = args.driver.seed;
  obs::Observability* obs = args.driver.obs;
  fleet.set_lane(args.exec_mode,
                 [config, seed, obs](harness::Cluster& cluster,
                                     const shard::ShardRouter& router) {
                   return std::make_shared<queue::EpochService>(
                       cluster, router, config, seed, obs);
                 });
}

/// Print the lane-side dispatch and epoch counters after a run (no-op when
/// the lane never engaged).
inline void print_lane_summary(const shard::ClientFleet& fleet) {
  const auto& stats = fleet.stats();
  if (stats.lane_submits.load() == 0) return;
  std::printf("lane dispatch: submitted %llu, committed %llu, demoted %llu\n",
              static_cast<unsigned long long>(stats.lane_submits.load()),
              static_cast<unsigned long long>(stats.lane_commits.load()),
              static_cast<unsigned long long>(stats.lane_demotions.load()));
  if (const auto service =
          std::dynamic_pointer_cast<queue::EpochService>(fleet.lane())) {
    const queue::ServiceStats& qs = service->stats();
    const std::uint64_t epochs = qs.epochs.load();
    std::printf(
        "epoch lane: %llu epochs (%llu committed, %llu retries), avg size "
        "%.1f, spec reads %llu, mispredicted %llu\n",
        static_cast<unsigned long long>(epochs),
        static_cast<unsigned long long>(qs.epoch_commits.load()),
        static_cast<unsigned long long>(qs.epoch_retries.load()),
        epochs > 0 ? static_cast<double>(qs.submitted.load()) /
                         static_cast<double>(epochs)
                   : 0.0,
        static_cast<unsigned long long>(qs.spec_reads.load()),
        static_cast<unsigned long long>(qs.mispredicted.load()));
  }
}

/// Run `workload` under `protocol` with every worker submitting through a
/// shard::Client of `fleet` (the cluster must be seeded via fleet.seed).
/// With --shards=1 this is behaviorally the classic unsharded run: every
/// transaction touches one group, and its ShardTx sends what a lone
/// nesting::Transaction on that group would.
inline harness::RunResult run_sharded(harness::Cluster& cluster,
                                      const workloads::Workload& workload,
                                      harness::Protocol protocol,
                                      harness::DriverConfig driver,
                                      shard::ClientFleet& fleet) {
  driver.make_submitter = fleet.factory();
  driver.shard_of = fleet.shard_of();
  return harness::run(cluster, workload, protocol, driver);
}

template <class MakeWorkload>
int run_figure(const std::string& title, const BenchOptions& args,
               MakeWorkload&& make_workload) {
  try {
    // One cluster + client fleet per protocol: workloads submit through
    // shard::Client, which commits each transaction on the groups it
    // touches (one group alone, or cross-shard 2PC) behind the uniform
    // Submitter API.
    std::vector<harness::RunResult> results;
    for (const harness::Protocol protocol :
         {harness::Protocol::kFlat, harness::Protocol::kManualCN,
          harness::Protocol::kAcn}) {
      harness::Cluster cluster(args.cluster);
      auto workload = make_workload();
      shard::ClientFleet fleet(
          *workload, static_cast<std::uint32_t>(args.cluster.n_groups));
      fleet.seed(cluster, *workload);
      arm_exec_mode(fleet, args);
      results.push_back(
          run_sharded(cluster, *workload, protocol, args.driver, fleet));
      print_lane_summary(fleet);
      if (args.cluster.n_groups > 1) {
        const auto& stats = fleet.stats();
        const auto router = fleet.router().stats();
        std::printf(
            "%s dispatch: fast-path %llu, cross-shard %llu "
            "(escalations %llu, mispredicted %llu, atomicity-breaches %llu)\n",
            harness::protocol_name(protocol),
            static_cast<unsigned long long>(stats.fast_path.load()),
            static_cast<unsigned long long>(stats.cross_shard.load()),
            static_cast<unsigned long long>(stats.escalations.load()),
            static_cast<unsigned long long>(router.mispredicted),
            static_cast<unsigned long long>(stats.atomicity_breaches.load()));
      }
    }
    harness::print_figure(title, results, args.driver);
    if (!args.csv_path.empty() &&
        harness::write_csv(args.csv_path, results, args.driver))
      std::printf("series written to %s\n", args.csv_path.c_str());
    if (args.obs) {
      if (!args.trace_path.empty() &&
          args.obs->tracer.write_chrome_json(args.trace_path))
        std::printf("trace written to %s (dropped events: %llu)\n",
                    args.trace_path.c_str(),
                    static_cast<unsigned long long>(args.obs->tracer.dropped()));
      if (!args.metrics_json_path.empty() &&
          harness::write_metrics_json(args.metrics_json_path, results))
        std::printf("metrics written to %s\n", args.metrics_json_path.c_str());
      if (!args.metrics_csv_path.empty() &&
          harness::write_metrics_csv(args.metrics_csv_path, results))
        std::printf("metrics written to %s\n", args.metrics_csv_path.c_str());
    }
    args.cleanup_data_dir();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s failed: %s\n", title.c_str(), e.what());
    return 1;
  }
}

}  // namespace acn::bench
