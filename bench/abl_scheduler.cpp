// Scheduler acceptance gate: contention-aware scheduling must beat plain
// optimistic racing on a hot-key-skewed Bank.
//
// Two QR-ACN runs on identical fresh clusters (same seed, same workload,
// same intervals): one with --sched=none (the baseline: reactive exponential
// backoff only), one with --sched=both (hot-key tracking + AIMD admission of
// hot-footprint transactions).  The workload concentrates nearly every
// transfer on a tiny branch hot set, the regime the scheduler exists for.  The gate requires,
// for the scheduled run relative to the baseline:
//
//   1. committed throughput no worse (total commits >= baseline commits),
//   2. strictly fewer full aborts (conflicts resolved locally, not by
//      racing to the validation/commit round),
//   3. strictly fewer total RPCs (the round-trips those aborts burned),
//   4. liveness throughout: every measurement interval of the scheduled
//      run commits at least one transaction (no starvation — admission
//      aging force-admits any gated waiter), and the run itself terminates.
//
// Exit status is non-zero when any check fails, so CI gates on it.
// Variants exercised by CI:
//   --durability=wal   same comparison over durable replicas,
//   --chaos-burst      same comparison with a mid-run message-drop burst
//                      (both runs get the identical fault plan).
#include <filesystem>
#include <string>

#include "bench/figure_common.hpp"
#include "src/chaos/chaos.hpp"
#include "src/workloads/bank.hpp"

namespace {

struct GateResult {
  acn::harness::RunResult run;
  std::uint64_t total_rpcs = 0;
};

std::uint64_t total_rpcs(const acn::obs::Snapshot& snap) {
  std::uint64_t total = 0;
  for (const char* name : {"rpc.read", "rpc.read.batched", "rpc.validate",
                           "rpc.prepare", "rpc.commit", "rpc.abort",
                           "rpc.contention"})
    total += snap.counter(name);
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace acn;
  bool chaos_burst = false;
  std::size_t hot_branches = 2;
  double hot_probability = 0.95;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    bool mine = true;
    if (arg == "--chaos-burst")
      chaos_burst = true;
    else if (arg.rfind("--hot-branches=", 0) == 0)
      hot_branches = static_cast<std::size_t>(
          std::strtol(arg.c_str() + 15, nullptr, 10));
    else if (arg.rfind("--hot-prob=", 0) == 0)
      hot_probability = std::strtod(arg.c_str() + 11, nullptr);
    else
      mine = false;
    // Neutralize consumed args for BenchOptions::parse (run_policy sets the
    // policy itself, so a spare --sched=none is inert).
    if (mine) argv[i] = const_cast<char*>("--sched=none");
  }
  auto args = bench::BenchOptions::parse(argc, argv);
  if (!args.obs) {
    args.obs = std::make_shared<obs::Observability>();
    args.driver.obs = args.obs.get();
  }
  const bool durable =
      args.cluster.durability.mode == harness::DurabilityMode::kWal;
  // The durable variant gates on the *scheduling* effect over the WAL code
  // path (append, group commit, snapshots), not on disk performance: real
  // fsync latency on shared CI disks varies by 2-3x run to run, which would
  // drown the comparison.
  if (durable) args.cluster.durability.fsync = false;

  // The hot-key regime: most transfers hit a small branch hot set.
  workloads::BankConfig bank_config;
  bank_config.hot_branches = hot_branches;
  bank_config.hot_probability = hot_probability;

  std::printf("\n=== Scheduler gate: skewed Bank, QR-ACN, none vs both%s%s ===\n",
              durable ? " (durable)" : "", chaos_burst ? " (drop burst)" : "");

  auto run_policy = [&](sched::SchedulerPolicy policy) -> GateResult {
    auto cluster_config = args.cluster;
    if (durable) {
      cluster_config.durability.data_dir =
          (std::filesystem::path(args.cluster.durability.data_dir) /
           sched::policy_name(policy))
              .string();
      std::filesystem::remove_all(cluster_config.durability.data_dir);
    }
    harness::Cluster cluster(cluster_config);
    cluster.set_obs(args.obs.get());
    workloads::Bank bank(bank_config);
    bank.seed(cluster.servers());
    cluster.checkpoint_all();

    auto driver = args.driver;
    driver.scheduler.policy = policy;

    chaos::FaultPlan plan;
    if (chaos_burst) {
      const auto interval =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              driver.interval);
      plan.drop_burst(interval * 2, /*probability=*/0.08, interval * 3);
    }
    chaos::ChaosController chaos(cluster, plan, args.obs.get());

    const auto before = args.obs->metrics.snapshot();
    GateResult result;
    try {
      chaos.start();
      result.run = harness::run(cluster, bank, harness::Protocol::kAcn, driver);
      chaos.stop();
    } catch (...) {
      chaos.stop(/*drain=*/true);
      throw;
    }
    result.total_rpcs =
        total_rpcs(args.obs->metrics.snapshot().since(before));
    return result;
  };

  try {
    const GateResult baseline = run_policy(sched::SchedulerPolicy::kNone);
    const GateResult scheduled = run_policy(sched::SchedulerPolicy::kBoth);

    const auto show = [](const char* label, const GateResult& r) {
      std::printf("%-6s commits=%8llu full_aborts=%8llu rpcs=%10llu\n", label,
                  static_cast<unsigned long long>(r.run.stats.commits),
                  static_cast<unsigned long long>(r.run.stats.full_aborts),
                  static_cast<unsigned long long>(r.total_rpcs));
    };
    show("none", baseline);
    show("both", scheduled);
    {
      const auto snap = args.obs->metrics.snapshot();
      std::printf(
          "sched: admit{immediate=%llu waits=%llu aged=%llu}\n",
          static_cast<unsigned long long>(snap.counter("sched.admit.immediate")),
          static_cast<unsigned long long>(snap.counter("sched.admit.waits")),
          static_cast<unsigned long long>(snap.counter("sched.admit.aged")));
    }

    bool ok = true;
    if (scheduled.run.stats.commits < baseline.run.stats.commits) {
      std::fprintf(stderr,
                   "FAIL: scheduled throughput below baseline "
                   "(%llu < %llu commits)\n",
                   static_cast<unsigned long long>(scheduled.run.stats.commits),
                   static_cast<unsigned long long>(baseline.run.stats.commits));
      ok = false;
    }
    if (scheduled.run.stats.full_aborts >= baseline.run.stats.full_aborts) {
      std::fprintf(stderr,
                   "FAIL: full aborts not reduced (%llu >= %llu)\n",
                   static_cast<unsigned long long>(
                       scheduled.run.stats.full_aborts),
                   static_cast<unsigned long long>(
                       baseline.run.stats.full_aborts));
      ok = false;
    }
    if (scheduled.total_rpcs >= baseline.total_rpcs) {
      std::fprintf(stderr, "FAIL: total RPCs not reduced (%llu >= %llu)\n",
                   static_cast<unsigned long long>(scheduled.total_rpcs),
                   static_cast<unsigned long long>(baseline.total_rpcs));
      ok = false;
    }
    for (std::size_t k = 0; k < scheduled.run.throughput.size(); ++k)
      if (scheduled.run.throughput[k] <= 0.0) {
        std::fprintf(stderr,
                     "FAIL: scheduled run starved in interval %zu "
                     "(no commits)\n",
                     k);
        ok = false;
      }

    if (!args.metrics_json_path.empty()) {
      std::FILE* file = std::fopen(args.metrics_json_path.c_str(), "w");
      if (file == nullptr) {
        std::fprintf(stderr, "FAIL: cannot open %s\n",
                     args.metrics_json_path.c_str());
        ok = false;
      } else {
        std::fprintf(file, "%s\n",
                     args.obs->metrics.snapshot().to_json().c_str());
        std::fclose(file);
        std::printf("metrics written to %s\n", args.metrics_json_path.c_str());
      }
    }
    if (ok) {
      std::printf("scheduler gate passed (throughput held, aborts and RPCs "
                  "reduced, no starvation)\n");
      args.cleanup_data_dir();
    }
    return ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "abl_scheduler failed: %s\n", e.what());
    return 1;
  }
}
