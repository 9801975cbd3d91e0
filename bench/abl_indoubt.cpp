// Cross-shard atomicity under 2PC phase-boundary chaos (the in-doubt gate).
//
// Three scenarios, each on a fresh 2-group cluster with live shard::Client
// traffic recording a history and a cross-shard decision log:
//
//   1. crash-coordinator — a victim coordinator prepares a transaction on
//      both groups, then its client node goes down between prepare and
//      phase 2 (FaultPlan::crash_coordinator) and the handle is abandoned.
//      No decision record exists, so cooperative termination must resolve
//      both parked groups to ABORT (sealing presumed abort at the
//      coordinator) and a zombie phase 2 afterwards must be refused.
//
//   2. isolate-prepared-group — the victim prepares on both groups, group 1
//      is partitioned away (FaultPlan::isolate_group), and phase 2 runs:
//      group 0 installs, group 1's push becomes an in-doubt handoff.  After
//      the heal, termination must finish the transaction to COMMIT from the
//      coordinator's decision record — never abort half of it.
//
//   3. phase2-drop — a heavy drop burst (FaultPlan::phase2_drop_burst)
//      covers the phase-2 window; pushes and decision queries are lossy but
//      bounded (RetryPolicy + op_deadline), so every loss is a classified
//      handoff, and termination finishes whatever the burst swallowed.
//
// In every scenario concurrent clients run a deterministic mixed
// single/cross-shard transfer list to completion.  The gate exits non-zero
// unless, under every plan:
//   * atomicity_breaches == 0 across every coordinator (the hard invariant);
//   * ChaosController::stop() leaves nothing in-doubt, no open lease and no
//     protected key;
//   * the committed history is conflict-serializable and the cross-shard
//     atomicity checker finds no torn transaction (all groups installed or
//     none; no reader saw an uninstalled proposal);
//   * the final state of every live key equals a fault-free sequential
//     reference, and the victim keys equal exactly their expected outcome
//     (untouched after the abort scenario, fully transferred otherwise).
//
// Flags beyond the shared set: --txs=N transfers in the live list (default
// 160).  --metrics-json FILE writes per-scenario results (the format
// scripts/bench_snapshot.sh folds into BENCH_8.json).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <optional>
#include <thread>
#include <vector>

#include "bench/figure_common.hpp"
#include "src/chaos/chaos.hpp"
#include "src/dtm/abort.hpp"
#include "src/common/rng.hpp"
#include "src/harness/indoubt.hpp"
#include "src/nesting/history.hpp"
#include "src/shard/coordinator.hpp"
#include "src/shard/router.hpp"
#include "src/shard/shard_map.hpp"

namespace {

using namespace acn;
using shard::CrossShardCoordinator;
using shard::ShardMap;
using shard::ShardRouter;
using shard::ShardTx;
using store::ObjectKey;
using store::Record;

constexpr store::Field kInitialBalance = 1'000;
constexpr store::Field kVictimAmount = 111;
constexpr std::size_t kShards = 2;
constexpr std::size_t kClients = 4;

enum class Scenario { kCrashCoordinator, kIsolateGroup, kPhase2Drop };

const char* scenario_name(Scenario scenario) {
  switch (scenario) {
    case Scenario::kCrashCoordinator: return "crash-coordinator";
    case Scenario::kIsolateGroup: return "isolate-prepared-group";
    case Scenario::kPhase2Drop: return "phase2-drop";
  }
  return "?";
}

acn::KeyFootprint write_footprint(std::vector<ObjectKey> keys) {
  std::sort(keys.begin(), keys.end());
  acn::KeyFootprint footprint;
  for (const auto& key : keys) footprint.push_back({key, true});
  return footprint;
}

/// `per_group` account keys owned by each group under `map`.
std::vector<std::vector<ObjectKey>> build_pools(const ShardMap& map,
                                                std::size_t per_group) {
  std::vector<std::vector<ObjectKey>> pools(map.n_shards());
  std::size_t filled = 0;
  for (std::uint64_t id = 0; filled < pools.size(); ++id) {
    const ObjectKey key{1, id};
    auto& pool = pools[map.shard_of(key)];
    if (pool.size() >= per_group) continue;
    pool.push_back(key);
    if (pool.size() == per_group) ++filled;
  }
  return pools;
}

/// Unconditional transfer of a fixed amount between two param-keyed
/// accounts — the live traffic every scenario runs through shard::Client.
ir::TxProgram transfer_program() {
  ir::ProgramBuilder b("indoubt.transfer", 2);
  const ir::VarId p_src = b.param(0);
  const ir::VarId p_dst = b.param(1);
  const ir::VarId src = b.remote_read(
      1, {p_src},
      [p_src](const ir::TxEnv& e) {
        return ObjectKey{1, static_cast<std::uint64_t>(e.geti(p_src))};
      },
      "read src", /*for_write=*/true);
  const ir::VarId dst = b.remote_read(
      1, {p_dst},
      [p_dst](const ir::TxEnv& e) {
        return ObjectKey{1, static_cast<std::uint64_t>(e.geti(p_dst))};
      },
      "read dst", /*for_write=*/true);
  b.local({src, dst}, {src, dst},
          [src, dst](ir::TxEnv& e) {
            Record a = e.get(src);
            Record d = e.get(dst);
            a[0] -= 7;
            d[0] += 7;
            e.write_object(src, std::move(a));
            e.write_object(dst, std::move(d));
          },
          "transfer");
  return b.build();
}

struct Op {
  ObjectKey src, dst;
};

/// Deterministic transfer list: ~40% cross-group, drawn from pool indices
/// 0..7 (indices 10 and 11 are reserved for the victim transaction).
std::vector<Op> make_ops(const std::vector<std::vector<ObjectKey>>& pools,
                         std::size_t n_ops, std::uint64_t seed) {
  std::vector<Op> ops;
  acn::Rng rng(seed + 0x1d0b7);
  for (std::size_t k = 0; k < n_ops; ++k) {
    const std::size_t src_group = rng.uniform(0, pools.size() - 1);
    std::size_t dst_group = src_group;
    if (rng.uniform(0, 99) < 40) dst_group = (src_group + 1) % pools.size();
    Op op;
    op.src = pools[src_group][rng.uniform(0, 7)];
    do {
      op.dst = pools[dst_group][rng.uniform(0, 7)];
    } while (op.dst == op.src);
    ops.push_back(op);
  }
  return ops;
}

struct ScenarioResult {
  bool ok = true;
  std::uint64_t breaches = 0;
  std::uint64_t handoffs = 0;
  harness::IndoubtReport indoubt;
};

ScenarioResult run_scenario(const bench::BenchOptions& args,
                            Scenario scenario, std::size_t n_ops) {
  ScenarioResult result;
  auto fail = [&](const char* what) {
    std::fprintf(stderr, "FAIL [%s]: %s\n", scenario_name(scenario), what);
    result.ok = false;
  };

  harness::ClusterConfig config = args.cluster;
  config.n_groups = kShards;
  config.prepare_lease_ns = 80'000'000;  // 80 ms
  harness::Cluster cluster(config);
  if (args.obs) cluster.set_obs(args.obs.get());

  const ShardMap map(
      shard::ShardMapConfig{.n_shards = static_cast<std::uint32_t>(kShards)});
  ShardRouter router(map);
  const auto pools = build_pools(map, /*per_group=*/12);
  for (const auto& pool : pools)
    for (const ObjectKey& key : pool)
      shard::seed_sharded(cluster, map, key, Record{kInitialBalance});

  nesting::HistoryLog history;
  nesting::CrossShardLog cross_log;
  acn::ExecutorConfig executor = args.driver.executor;
  executor.history = &history;
  executor.cross_log = &cross_log;

  shard::ClientStats stats;
  std::vector<std::unique_ptr<shard::Client>> clients;
  for (std::size_t i = 0; i < kClients; ++i)
    clients.push_back(std::make_unique<shard::Client>(
        cluster, router, stats, static_cast<int>(i), executor,
        args.driver.seed ^ (i << 8)));

  // The victim coordinator shares the logs, so its decision-time commit
  // intent is held against the final state by the atomicity checker.
  CrossShardCoordinator victim(cluster, router, /*client_ordinal=*/50);
  victim.set_logs(&history, &cross_log);
  const ObjectKey victim_src = pools[0][10];
  const ObjectKey victim_dst = pools[1][11];

  using Ms = std::chrono::milliseconds;
  chaos::FaultPlan plan;
  switch (scenario) {
    case Scenario::kCrashCoordinator:
      // Down until stop(): the decision record is unreachable while live
      // traffic runs, reachable again exactly when the heal resolves.
      plan.crash_coordinator(Ms{30}, victim.client_node());
      break;
    case Scenario::kIsolateGroup:
      plan.isolate_group(Ms{30}, cluster, /*group=*/1, /*heal_after=*/Ms{200});
      break;
    case Scenario::kPhase2Drop:
      plan.phase2_drop_burst(Ms{30}, 0.8, /*burst_for=*/Ms{200});
      break;
  }
  chaos::ChaosController chaos(cluster, plan, args.obs ? args.obs.get()
                                                       : nullptr);

  // Victim prepares on both groups before any fault fires.
  std::optional<ShardTx> parked;
  parked.emplace(victim.begin(write_footprint({victim_src, victim_dst})));
  parked->insert(victim_src, Record{kInitialBalance - kVictimAmount});
  parked->insert(victim_dst, Record{kInitialBalance + kVictimAmount});
  if (parked->prepare_all() < 2) {
    fail("victim prepared fewer than 2 groups");
    return result;
  }

  const ir::TxProgram program = transfer_program();
  const auto ops = make_ops(pools, n_ops, args.driver.seed);
  std::vector<std::thread> threads;
  std::atomic<std::size_t> never_committed{0};
  chaos.start();

  // Cooperative termination runs DURING the chaos window, not only at
  // stop(): a fleet transaction whose own release or phase 2 got eaten by
  // the fault parks in-doubt with its keys protected, and the retrying
  // clients would otherwise wait on keys only termination can free — a
  // deadlock with resolution deferred to after the joins.  The pump is
  // idempotent and version-guarded, so racing live traffic is safe.
  std::atomic<bool> pumping{true};
  harness::IndoubtReport pumped;
  std::thread resolver([&] {
    while (pumping.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(Ms{25});
      for (dtm::Server* server : cluster.servers())
        server->expire_stale_leases();
      const auto round = harness::resolve_indoubt(cluster);
      pumped.queries += round.queries;
      pumped.resolved_commit += round.resolved_commit;
      pumped.resolved_abort += round.resolved_abort;
    }
  });

  for (std::size_t i = 0; i < kClients; ++i)
    threads.emplace_back([&, i] {
      acn::ExecStats es;
      for (std::size_t k = i; k < ops.size(); k += kClients) {
        // Retry until committed: chaos-window aborts are classified and
        // bounded, so the op lands once the relevant fault clears (capped
        // so a wedge fails the gate instead of hanging it).
        bool committed = false;
        for (std::size_t attempt = 1; attempt <= 1000; ++attempt) {
          try {
            clients[i]->run(
                harness::Protocol::kFlat, acn::with_program(program),
                {Record{static_cast<store::Field>(ops[k].src.id)},
                 Record{static_cast<store::Field>(ops[k].dst.id)}},
                es);
            committed = true;
            break;
          } catch (const dtm::TxAbort&) {
            std::this_thread::sleep_for(
                std::chrono::microseconds{100 * std::min<std::size_t>(
                                                    attempt, 50)});
          }
        }
        if (!committed) never_committed.fetch_add(1);
      }
    });

  // Let the scheduled fault land between the victim's prepare and phase 2.
  std::this_thread::sleep_for(Ms{60});
  switch (scenario) {
    case Scenario::kCrashCoordinator:
      // Abandon: the node is down and nobody will ever push phase 2.
      break;
    case Scenario::kIsolateGroup:
    case Scenario::kPhase2Drop:
      // Phase 2 into the fault: unreachable groups become handoffs and the
      // client-visible outcome is still commit.
      try {
        parked->commit_prepared();
      } catch (const dtm::TxAbort&) {
        fail("victim phase 2 aborted after the decision was recorded");
      }
      break;
  }

  for (auto& thread : threads) thread.join();
  // Outlive the victim's prepare lease before healing: a short op list can
  // drain faster than the lease, and termination only sees the prepare
  // after it has parked in-doubt.
  std::this_thread::sleep_for(Ms{120});
  pumping.store(false, std::memory_order_relaxed);
  resolver.join();
  // stop() heals, parks every overdue cross-shard lease and runs
  // cooperative termination; "healed" implies nothing is left in-doubt —
  // the pump's resolutions fold into the same report.
  chaos.stop();
  result.indoubt = chaos.indoubt_report();
  result.indoubt.queries += pumped.queries;
  result.indoubt.resolved_commit += pumped.resolved_commit;
  result.indoubt.resolved_abort += pumped.resolved_abort;
  result.handoffs = victim.stats().indoubt_handoffs.load();
  if (never_committed.load() != 0) fail("a live op never committed");

  if (scenario == Scenario::kCrashCoordinator) {
    if (result.indoubt.resolved_abort == 0)
      fail("abandoned prepare was not resolved to abort");
    // The zombie wakes up after its transaction was resolved away: the
    // sealed presumed abort must refuse phase 2.
    try {
      parked->commit_prepared();
      fail("zombie phase 2 was accepted after presumed abort was sealed");
    } catch (const dtm::TxAbort&) {
    }
  }
  if (scenario == Scenario::kIsolateGroup &&
      result.indoubt.resolved_commit == 0)
    fail("handed-off push was not resolved to commit");
  if (result.indoubt.unresolved != 0) fail("prepares left in-doubt");

  std::size_t open_leases = 0, protected_keys = 0;
  for (dtm::Server* server : cluster.servers()) {
    open_leases += server->open_lease_count();
    protected_keys += server->store().protected_count();
  }
  if (open_leases != 0 || protected_keys != 0) fail("leases or keys leaked");

  // The hard invariant, across the fleet and the victim.
  result.breaches = stats.atomicity_breaches.load() +
                    victim.stats().atomicity_breaches.load();
  if (result.breaches != 0) fail("atomicity breach");

  // Fault-free sequential reference for the live keys.
  harness::ClusterConfig reference_config = config;
  reference_config.n_groups = 1;
  harness::Cluster reference(reference_config);
  const ShardMap one(shard::ShardMapConfig{.n_shards = 1});
  ShardRouter reference_router(one);
  for (const auto& pool : pools)
    for (const ObjectKey& key : pool)
      shard::seed_sharded(reference, one, key, Record{kInitialBalance});
  {
    CrossShardCoordinator reference_client(reference, reference_router, 0);
    for (const Op& op : ops) {
      ShardTx tx = reference_client.begin(write_footprint({op.src, op.dst}));
      const Record a = tx.read(op.src);
      const Record b = tx.read(op.dst);
      tx.write(op.src, Record{a.fields[0] - 7});
      tx.write(op.dst, Record{b.fields[0] + 7});
      tx.commit();
    }
  }
  std::size_t mismatched = 0;
  for (const auto& pool : pools)
    for (const ObjectKey& key : pool) {
      if (key == victim_src || key == victim_dst) continue;
      const store::Field got =
          shard::latest_sharded(cluster, map, key).value.fields[0];
      const store::Field want =
          shard::latest_sharded(reference, one, key).value.fields[0];
      if (got != want) {
        ++mismatched;
        std::fprintf(stderr, "FAIL [%s]: key %s = %lld, reference %lld\n",
                     scenario_name(scenario), store::to_string(key).c_str(),
                     static_cast<long long>(got),
                     static_cast<long long>(want));
      }
    }
  if (mismatched != 0) result.ok = false;

  // The victim's outcome must be all-or-nothing, per scenario.
  const store::Field got_src =
      shard::latest_sharded(cluster, map, victim_src).value.fields[0];
  const store::Field got_dst =
      shard::latest_sharded(cluster, map, victim_dst).value.fields[0];
  const bool committed = scenario != Scenario::kCrashCoordinator;
  const store::Field want_src =
      committed ? kInitialBalance - kVictimAmount : kInitialBalance;
  const store::Field want_dst =
      committed ? kInitialBalance + kVictimAmount : kInitialBalance;
  if (got_src != want_src || got_dst != want_dst) fail("victim outcome torn");

  // History-level checks: conflict serializability of everything that
  // committed, and cross-shard atomicity of every recorded decision
  // against the final installed versions.
  const auto serializable = nesting::check_serializable(history.snapshot());
  if (!serializable.ok) {
    std::fprintf(stderr, "FAIL [%s]: %s\n", scenario_name(scenario),
                 serializable.violation.c_str());
    result.ok = false;
  }
  std::vector<std::pair<ObjectKey, store::Version>> final_versions;
  for (const auto& pool : pools)
    for (const ObjectKey& key : pool)
      final_versions.push_back(
          {key, shard::latest_sharded(cluster, map, key).version});
  const auto atomic = nesting::check_cross_shard_atomicity(
      history.snapshot(), cross_log.snapshot(), final_versions);
  if (!atomic.ok) {
    std::fprintf(stderr, "FAIL [%s]: %s\n", scenario_name(scenario),
                 atomic.violation.c_str());
    result.ok = false;
  }

  std::printf("[%s] ops=%zu cross_entries=%zu handoffs=%llu breaches=%llu "
              "indoubt: %zu queries, %zu commit, %zu abort, %zu left — %s\n",
              scenario_name(scenario), ops.size(), cross_log.size(),
              static_cast<unsigned long long>(result.handoffs),
              static_cast<unsigned long long>(result.breaches),
              result.indoubt.queries, result.indoubt.resolved_commit,
              result.indoubt.resolved_abort, result.indoubt.unresolved,
              result.ok ? "ok" : "FAILED");
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t n_ops = 160;
  const auto extra = [&](const std::string& arg) {
    if (arg.rfind("--txs=", 0) == 0) {
      n_ops = static_cast<std::size_t>(
          std::strtol(arg.c_str() + std::strlen("--txs="), nullptr, 10));
      return true;
    }
    return false;
  };
  auto args = bench::BenchOptions::parse(argc, argv, extra);
  args.cluster.n_servers = 3;
  if (args.cluster.base_latency > std::chrono::microseconds{10})
    args.cluster.base_latency = std::chrono::microseconds{10};
  args.driver.executor.backoff_base = std::chrono::microseconds{10};
  if (!args.obs) {
    args.obs = std::make_shared<obs::Observability>();
    args.driver.obs = args.obs.get();
  }

  std::printf("\n=== In-doubt termination: cross-shard atomicity under 2PC "
              "phase-boundary chaos ===\n");

  bool ok = true;
  std::vector<std::pair<Scenario, ScenarioResult>> results;
  try {
    for (const Scenario scenario :
         {Scenario::kCrashCoordinator, Scenario::kIsolateGroup,
          Scenario::kPhase2Drop}) {
      results.emplace_back(scenario, run_scenario(args, scenario, n_ops));
      ok = ok && results.back().second.ok;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "abl_indoubt failed: %s\n", e.what());
    return 1;
  }

  const auto snap = args.obs->metrics.snapshot();
  std::printf("obs: indoubt.queries=%llu indoubt.resolved.commit=%llu "
              "indoubt.resolved.abort=%llu\n",
              static_cast<unsigned long long>(snap.counter("indoubt.queries")),
              static_cast<unsigned long long>(
                  snap.counter("indoubt.resolved.commit")),
              static_cast<unsigned long long>(
                  snap.counter("indoubt.resolved.abort")));

  if (!args.metrics_json_path.empty()) {
    std::FILE* file = std::fopen(args.metrics_json_path.c_str(), "w");
    if (file == nullptr) {
      std::fprintf(stderr, "FAIL: cannot open %s\n",
                   args.metrics_json_path.c_str());
      ok = false;
    } else {
      std::uint64_t breaches = 0;
      std::size_t commits = 0, aborts = 0, unresolved = 0;
      std::fprintf(file, "{\n \"scenarios\": {");
      for (std::size_t i = 0; i < results.size(); ++i) {
        const auto& [scenario, r] = results[i];
        std::fprintf(file, "%s\"%s\": %s", i ? ", " : "",
                     scenario_name(scenario), r.ok ? "true" : "false");
        breaches += r.breaches;
        commits += r.indoubt.resolved_commit;
        aborts += r.indoubt.resolved_abort;
        unresolved += r.indoubt.unresolved;
      }
      std::fprintf(file,
                   "},\n \"atomicity_breaches\": %llu,\n"
                   " \"indoubt_resolved_commit\": %zu,\n"
                   " \"indoubt_resolved_abort\": %zu,\n"
                   " \"indoubt_unresolved\": %zu\n}\n",
                   static_cast<unsigned long long>(breaches), commits, aborts,
                   unresolved);
      std::fclose(file);
      std::printf("metrics written to %s\n", args.metrics_json_path.c_str());
    }
  }

  if (ok)
    std::printf("all in-doubt termination/atomicity checks passed "
                "(invariants verified)\n");
  return ok ? 0 : 1;
}
