// Queue-lane acceptance gate: the deterministic epoch executor must turn
// hot-key conflicts into queue order instead of aborts.
//
// Phase A — throughput under skew.  On a 95%-skewed Bank (two hot
// branches), QR-ACN runs on identical fresh clusters under three execution
// modes: --exec=acn with the contention-aware scheduler at its best
// (--sched=both), --exec=queue (every predictable transaction through the
// epoch lane), and --exec=hybrid (scheduler hotness routes).  The gate
// requires the queue run to commit at least as much as the scheduled
// optimistic baseline with near-zero full aborts — intra-epoch conflicts
// are queue order, and sequential epochs cannot race each other.  The
// queue mode is additionally swept over --epoch-max (the largest epoch
// the planner cuts) to chart the epoch-size curve.
//
// Phase B — hybrid state equality.  A fixed, commutative transfer list
// (unconditional amount-1 moves, so any commit order yields one final
// state) is executed once through a pure-ACN reference and once through
// --exec=hybrid with the hot accounts heated, splitting traffic between
// the epoch lane and the optimistic path.  Every touched key must end
// byte-equal to the reference, and both paths must actually have run.
//
// Phase C — epoch commit atomicity under chaos.  A queue-mode run takes a
// mid-epoch replica crash (restarted with catch-up before the run ends).
// Afterwards: zero orphaned prepares anywhere (no open lease, no
// protected key on any replica, crashed-and-rejoined included), zero
// atomicity breaches from the epoch coordinator, and the Bank sum
// invariant intact.
//
// Exit status is non-zero when any check fails, so CI gates on it.
// --metrics-json FILE writes the per-mode commits/aborts, the epoch-size
// curve and the full metrics snapshot (bench_snapshot.sh folds this into
// BENCH_9.json).
#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench/figure_common.hpp"
#include "src/sched/scheduler.hpp"
#include "src/workloads/bank.hpp"

namespace {

using namespace acn;
using ir::ProgramBuilder;
using ir::TxEnv;
using ir::VarId;
using store::ObjectKey;
using store::Record;

struct ModeResult {
  harness::RunResult run;
  std::uint64_t lane_submits = 0;
  std::uint64_t lane_commits = 0;
  std::uint64_t lane_demotions = 0;
  std::uint64_t epochs = 0;
  std::uint64_t epoch_commits = 0;
  std::uint64_t epoch_retries = 0;
  std::uint64_t spec_reads = 0;
  std::uint64_t mispredicted = 0;
  double avg_epoch = 0.0;
};

void fold_lane_stats(const shard::ClientFleet& fleet, ModeResult& result) {
  const auto& stats = fleet.stats();
  result.lane_submits = stats.lane_submits.load();
  result.lane_commits = stats.lane_commits.load();
  result.lane_demotions = stats.lane_demotions.load();
  if (const auto service =
          std::dynamic_pointer_cast<queue::EpochService>(fleet.lane())) {
    const queue::ServiceStats& qs = service->stats();
    result.epochs = qs.epochs.load();
    result.epoch_commits = qs.epoch_commits.load();
    result.epoch_retries = qs.epoch_retries.load();
    result.spec_reads = qs.spec_reads.load();
    result.mispredicted = qs.mispredicted.load();
    result.avg_epoch =
        result.epochs > 0 ? static_cast<double>(qs.submitted.load()) /
                                static_cast<double>(result.epochs)
                          : 0.0;
  }
}

/// Throw if any replica still holds an open lease or a protected key —
/// the "zero orphaned prepares" invariant every phase asserts.
void require_no_orphans(harness::Cluster& cluster, const char* where) {
  for (dtm::Server* server : cluster.servers()) {
    if (server->open_lease_count() != 0 ||
        server->store().protected_count() != 0)
      throw std::runtime_error(std::string(where) +
                               ": orphaned prepare state on a replica");
  }
}

/// One interval-driven Bank run under `mode` on a fresh cluster.
ModeResult run_mode(const bench::BenchOptions& args,
                    const workloads::BankConfig& bank_config,
                    shard::ExecMode mode, sched::SchedulerPolicy policy,
                    std::size_t epoch_max) {
  harness::Cluster cluster(args.cluster);
  cluster.set_obs(args.obs.get());
  workloads::Bank bank(bank_config);
  shard::ClientFleet fleet(bank,
                           static_cast<std::uint32_t>(args.cluster.n_groups));
  fleet.seed(cluster, bank);

  auto mode_args = args;
  mode_args.exec_mode = mode;
  mode_args.queue.epoch_max = epoch_max;
  bench::arm_exec_mode(fleet, mode_args);

  auto driver = args.driver;
  driver.scheduler.policy = policy;

  ModeResult result;
  result.run =
      bench::run_sharded(cluster, bank, harness::Protocol::kAcn, driver, fleet);
  fold_lane_stats(fleet, result);
  require_no_orphans(cluster, shard::exec_mode_name(mode));
  bank.check_invariants(cluster.servers());
  return result;
}

// ---- Phase B: fixed commutative transfer list ---------------------------

/// Unconditional move of 1 unit between two param-keyed accounts.  No
/// balance check, so transfers commute: any commit order of the same list
/// produces the same final state.
ir::TxProgram flat_transfer_program() {
  ProgramBuilder b("queue.gate.transfer", 2);
  const VarId p_src = b.param(0);
  const VarId p_dst = b.param(1);
  const VarId src = b.remote_read(
      workloads::Bank::kAccount, {p_src},
      [p_src](const TxEnv& e) {
        return workloads::Bank::account_key(e.geti(p_src));
      },
      "read src", /*for_write=*/true);
  const VarId dst = b.remote_read(
      workloads::Bank::kAccount, {p_dst},
      [p_dst](const TxEnv& e) {
        return workloads::Bank::account_key(e.geti(p_dst));
      },
      "read dst", /*for_write=*/true);
  b.local({src, dst}, {src, dst},
          [src, dst](TxEnv& e) {
            Record a = e.get(src);
            Record d = e.get(dst);
            a[0] -= 1;
            d[0] += 1;
            e.write_object(src, std::move(a));
            e.write_object(dst, std::move(d));
          },
          "transfer");
  return b.build();
}

bool run_state_equality(const bench::BenchOptions& args,
                        const workloads::BankConfig& bank_config) {
  constexpr std::size_t kHotAccounts = 4;
  constexpr std::size_t kTransfers = 240;
  constexpr std::size_t kThreads = 4;

  // The deterministic list: roughly half the transfers touch the hot
  // accounts (lane traffic under hybrid), the rest stay cold (optimistic).
  std::vector<std::pair<store::Field, store::Field>> transfers;
  Rng rng(args.driver.seed ^ 0x9A7E);
  const auto accounts =
      static_cast<std::uint64_t>(bank_config.n_accounts);
  for (std::size_t i = 0; i < kTransfers; ++i) {
    store::Field src, dst;
    if (rng.bernoulli(0.5)) {
      src = static_cast<store::Field>(rng.uniform(0, kHotAccounts - 1));
      dst = static_cast<store::Field>(rng.uniform(kHotAccounts, accounts - 1));
    } else {
      src = static_cast<store::Field>(rng.uniform(kHotAccounts, accounts - 1));
      dst = static_cast<store::Field>(rng.uniform(kHotAccounts, accounts - 1));
      if (dst == src) dst = static_cast<store::Field>(
          kHotAccounts + (static_cast<std::uint64_t>(dst) + 1 - kHotAccounts) %
                             (accounts - kHotAccounts));
    }
    transfers.emplace_back(src, dst);
  }
  std::set<store::Field> touched;
  for (const auto& [src, dst] : transfers) {
    touched.insert(src);
    touched.insert(dst);
  }
  const auto program = flat_transfer_program();

  // Reference: every transfer once, sequentially, pure ACN.
  std::map<store::Field, store::Field> reference_state;
  {
    harness::Cluster cluster(args.cluster);
    workloads::Bank bank(bank_config);
    shard::ClientFleet fleet(bank,
                             static_cast<std::uint32_t>(args.cluster.n_groups));
    fleet.seed(cluster, bank);
    auto submitter = fleet.factory()(cluster, 0, args.driver.executor,
                                     args.driver.seed ^ 0xACEF);
    acn::ExecStats stats;
    for (const auto& [src, dst] : transfers)
      submitter->run(harness::Protocol::kFlat, acn::with_program(program),
                     {Record{src}, Record{dst}}, stats);
    for (const store::Field id : touched)
      reference_state[id] =
          shard::latest_sharded(cluster, fleet.map(),
                               workloads::Bank::account_key(id))
              .value.fields[0];
  }

  // Hybrid: the same list split over concurrent clients, hot accounts
  // heated so the scheduler routes them to the epoch lane.
  std::uint64_t lane_submits = 0, fast_path = 0;
  std::map<store::Field, store::Field> hybrid_state;
  {
    harness::Cluster cluster(args.cluster);
    workloads::Bank bank(bank_config);
    shard::ClientFleet fleet(bank,
                             static_cast<std::uint32_t>(args.cluster.n_groups));
    fleet.seed(cluster, bank);
    auto hybrid_args = args;
    hybrid_args.exec_mode = shard::ExecMode::kHybrid;
    bench::arm_exec_mode(fleet, hybrid_args);

    sched::SchedulerConfig sched_config;
    sched_config.policy = sched::SchedulerPolicy::kBoth;
    sched_config.class_hot_level = 0;
    sched::TxScheduler scheduler(sched_config, kThreads, args.driver.seed);
    {
      // Heat the hot accounts through the public blame interface: three
      // blamed aborts reach the default hot_score.
      auto& gate = scheduler.session(0);
      gate.admit({});
      for (std::size_t id = 0; id < kHotAccounts; ++id)
        for (int i = 0; i < 3; ++i)
          gate.on_full_abort(
              TxOutcome::kValidation,
              {workloads::Bank::account_key(static_cast<store::Field>(id))});
      gate.finish(TxOutcome::kValidation);
    }

    auto factory = fleet.factory();
    std::vector<std::unique_ptr<harness::Submitter>> submitters;
    for (std::size_t t = 0; t < kThreads; ++t)
      submitters.push_back(factory(cluster, static_cast<int>(t),
                                   args.driver.executor,
                                   args.driver.seed ^ (t << 12)));
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t)
      threads.emplace_back([&, t] {
        acn::RunOptions options = acn::with_program(program);
        options.scheduler = &scheduler.session(t);
        acn::ExecStats stats;
        for (std::size_t i = t; i < transfers.size(); i += kThreads)
          submitters[t]->run(harness::Protocol::kFlat, options,
                             {Record{transfers[i].first},
                              Record{transfers[i].second}},
                             stats);
      });
    for (std::thread& thread : threads) thread.join();

    lane_submits = fleet.stats().lane_submits.load();
    fast_path = fleet.stats().fast_path.load();
    require_no_orphans(cluster, "hybrid state-equality");
    for (const store::Field id : touched)
      hybrid_state[id] =
          shard::latest_sharded(cluster, fleet.map(),
                               workloads::Bank::account_key(id))
              .value.fields[0];
  }

  bool ok = true;
  std::size_t mismatches = 0;
  for (const store::Field id : touched)
    if (hybrid_state[id] != reference_state[id]) ++mismatches;
  if (mismatches != 0) {
    std::fprintf(stderr,
                 "FAIL: hybrid state diverges from the ACN reference on "
                 "%zu of %zu touched keys\n",
                 mismatches, touched.size());
    ok = false;
  }
  if (lane_submits == 0) {
    std::fprintf(stderr,
                 "FAIL: hybrid run never used the epoch lane "
                 "(hot routing inert)\n");
    ok = false;
  }
  if (fast_path == 0) {
    std::fprintf(stderr,
                 "FAIL: hybrid run never used the optimistic path\n");
    ok = false;
  }
  std::printf(
      "hybrid state-equality: %zu keys equal, lane %llu / optimistic %llu\n",
      touched.size(), static_cast<unsigned long long>(lane_submits),
      static_cast<unsigned long long>(fast_path));
  return ok;
}

// ---- Phase C: mid-epoch crash --------------------------------------------

bool run_crash_atomicity(const bench::BenchOptions& args,
                         const workloads::BankConfig& bank_config) {
  auto cluster_config = args.cluster;
  // Four replicas per group keep the write quorum constructible with one
  // leaf down; extra quorum re-picks dodge the crashed node.
  cluster_config.n_servers = std::max<std::size_t>(cluster_config.n_servers, 4);
  cluster_config.stub.max_quorum_retries = 16;
  harness::Cluster cluster(cluster_config);
  cluster.set_obs(args.obs.get());
  workloads::Bank bank(bank_config);
  shard::ClientFleet fleet(
      bank, static_cast<std::uint32_t>(cluster_config.n_groups));
  fleet.seed(cluster, bank);
  auto mode_args = args;
  mode_args.exec_mode = shard::ExecMode::kQueue;
  bench::arm_exec_mode(fleet, mode_args);

  const auto run_time = args.driver.interval * args.driver.intervals;
  const std::size_t victim_group = cluster_config.n_groups > 1 ? 1 : 0;
  const net::NodeId victim = cluster.group_members(victim_group).back();
  std::thread crasher([&] {
    std::this_thread::sleep_for(run_time * 2 / 5);
    cluster.crash_node(victim);
    std::printf("[fault] crash node %d mid-epoch\n", victim);
    std::this_thread::sleep_for(run_time / 5);
    cluster.restart_node(victim, harness::CatchUpScope::kAllReplicas);
    std::printf("[heal] node %d rejoined\n", victim);
  });

  ModeResult result;
  bool ok = true;
  try {
    result.run = bench::run_sharded(cluster, bank, harness::Protocol::kAcn,
                                    args.driver, fleet);
    fold_lane_stats(fleet, result);
    crasher.join();
  } catch (...) {
    crasher.join();
    throw;
  }

  const std::uint64_t breaches = fleet.stats().atomicity_breaches.load();
  if (breaches != 0) {
    std::fprintf(stderr, "FAIL: %llu atomicity breaches under chaos\n",
                 static_cast<unsigned long long>(breaches));
    ok = false;
  }
  for (dtm::Server* server : cluster.servers())
    if (server->open_lease_count() != 0 ||
        server->store().protected_count() != 0) {
      std::fprintf(stderr,
                   "FAIL: orphaned prepare state after mid-epoch crash "
                   "(lease=%zu protected=%zu)\n",
                   server->open_lease_count(),
                   server->store().protected_count());
      ok = false;
    }
  try {
    bank.check_invariants(cluster.servers());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "FAIL: bank invariant after crash: %s\n", e.what());
    ok = false;
  }
  std::printf(
      "crash run: commits=%llu epochs=%llu (retries %llu), demotions %llu\n",
      static_cast<unsigned long long>(result.run.stats.commits),
      static_cast<unsigned long long>(result.epochs),
      static_cast<unsigned long long>(result.epoch_retries),
      static_cast<unsigned long long>(result.lane_demotions));
  return ok;
}

void append_mode_json(std::string& json, const char* name,
                      const ModeResult& r, bool first) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "%s\"%s\": {\"commits\": %llu, \"full_aborts\": %llu, "
      "\"lane_commits\": %llu, \"lane_demotions\": %llu, \"epochs\": %llu, "
      "\"epoch_retries\": %llu, \"avg_epoch\": %.2f, \"spec_reads\": %llu}",
      first ? "" : ", ", name,
      static_cast<unsigned long long>(r.run.stats.commits),
      static_cast<unsigned long long>(r.run.stats.full_aborts),
      static_cast<unsigned long long>(r.lane_commits),
      static_cast<unsigned long long>(r.lane_demotions),
      static_cast<unsigned long long>(r.epochs),
      static_cast<unsigned long long>(r.epoch_retries), r.avg_epoch,
      static_cast<unsigned long long>(r.spec_reads));
  json += buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t hot_branches = 2;
  double hot_probability = 0.95;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    bool mine = true;
    if (arg.rfind("--hot-branches=", 0) == 0)
      hot_branches =
          static_cast<std::size_t>(std::strtol(arg.c_str() + 15, nullptr, 10));
    else if (arg.rfind("--hot-prob=", 0) == 0)
      hot_probability = std::strtod(arg.c_str() + 11, nullptr);
    else
      mine = false;
    if (mine) argv[i] = const_cast<char*>("--sched=none");
  }
  auto args = bench::BenchOptions::parse(argc, argv);
  if (!args.obs) {
    args.obs = std::make_shared<obs::Observability>();
    args.driver.obs = args.obs.get();
  }

  workloads::BankConfig bank_config;
  bank_config.hot_branches = hot_branches;
  bank_config.hot_probability = hot_probability;

  std::printf(
      "\n=== Queue gate: skewed Bank, acn+sched vs queue vs hybrid ===\n");

  try {
    // ---- Phase A: throughput under skew + the epoch-size curve ----------
    const ModeResult baseline =
        run_mode(args, bank_config, shard::ExecMode::kAcn,
                 sched::SchedulerPolicy::kBoth, args.queue.epoch_max);
    const std::vector<std::size_t> curve_sizes{8, 32, 128};
    std::vector<ModeResult> curve;
    for (const std::size_t epoch_max : curve_sizes)
      curve.push_back(run_mode(args, bank_config, shard::ExecMode::kQueue,
                               sched::SchedulerPolicy::kNone, epoch_max));
    const ModeResult& queued = curve.back();  // the gate point (128)
    const ModeResult hybrid =
        run_mode(args, bank_config, shard::ExecMode::kHybrid,
                 sched::SchedulerPolicy::kBoth, args.queue.epoch_max);

    const auto show = [](const char* label, const ModeResult& r) {
      std::printf(
          "%-9s commits=%8llu full_aborts=%8llu lane=%llu/%llu epochs=%llu "
          "(avg %.1f, retries %llu)\n",
          label, static_cast<unsigned long long>(r.run.stats.commits),
          static_cast<unsigned long long>(r.run.stats.full_aborts),
          static_cast<unsigned long long>(r.lane_commits),
          static_cast<unsigned long long>(r.lane_demotions),
          static_cast<unsigned long long>(r.epochs), r.avg_epoch,
          static_cast<unsigned long long>(r.epoch_retries));
    };
    show("acn+both", baseline);
    for (std::size_t i = 0; i < curve.size(); ++i)
      show(("queue@" + std::to_string(curve_sizes[i])).c_str(), curve[i]);
    show("hybrid", hybrid);

    bool ok = true;
    if (queued.run.stats.commits < baseline.run.stats.commits) {
      std::fprintf(stderr,
                   "FAIL: queue mode below the scheduled baseline "
                   "(%llu < %llu commits)\n",
                   static_cast<unsigned long long>(queued.run.stats.commits),
                   static_cast<unsigned long long>(baseline.run.stats.commits));
      ok = false;
    }
    // "Near-zero": sequential epochs cannot race each other, so the only
    // aborts are epoch retries against external interference — of which a
    // single-lane run has none.  Allow 1% headroom for scheduling noise.
    if (queued.run.stats.full_aborts * 100 > queued.run.stats.commits) {
      std::fprintf(stderr, "FAIL: queue mode full aborts not near-zero "
                   "(%llu aborts / %llu commits)\n",
                   static_cast<unsigned long long>(queued.run.stats.full_aborts),
                   static_cast<unsigned long long>(queued.run.stats.commits));
      ok = false;
    }
    if (queued.lane_commits == 0 || queued.epochs == 0) {
      std::fprintf(stderr, "FAIL: queue mode never engaged the epoch lane\n");
      ok = false;
    }

    // ---- Phase B: hybrid state equality ---------------------------------
    if (!run_state_equality(args, bank_config)) ok = false;

    // ---- Phase C: mid-epoch crash ---------------------------------------
    if (!run_crash_atomicity(args, bank_config)) ok = false;

    if (!args.metrics_json_path.empty()) {
      std::string json = "{\"modes\": {";
      append_mode_json(json, "acn_both", baseline, true);
      append_mode_json(json, "queue", queued, false);
      append_mode_json(json, "hybrid", hybrid, false);
      json += "}, \"epoch_curve\": [";
      for (std::size_t i = 0; i < curve.size(); ++i) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "%s{\"epoch_max\": %zu, \"commits\": %llu, "
                      "\"full_aborts\": %llu, \"avg_epoch\": %.2f}",
                      i == 0 ? "" : ", ", curve_sizes[i],
                      static_cast<unsigned long long>(curve[i].run.stats.commits),
                      static_cast<unsigned long long>(
                          curve[i].run.stats.full_aborts),
                      curve[i].avg_epoch);
        json += buf;
      }
      json += "], \"metrics\": ";
      json += args.obs->metrics.snapshot().to_json();
      json += "}";
      std::FILE* file = std::fopen(args.metrics_json_path.c_str(), "w");
      if (file == nullptr) {
        std::fprintf(stderr, "FAIL: cannot open %s\n",
                     args.metrics_json_path.c_str());
        ok = false;
      } else {
        std::fprintf(file, "%s\n", json.c_str());
        std::fclose(file);
        std::printf("metrics written to %s\n", args.metrics_json_path.c_str());
      }
    }

    if (ok) {
      std::printf(
          "queue gate passed (throughput held, near-zero aborts, hybrid "
          "state-equal, crash atomic)\n");
      args.cleanup_data_dir();
    }
    return ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "abl_queue failed: %s\n", e.what());
    return 1;
  }
}
