// Horizontal-sharding acceptance gate (src/shard).
//
// Three phases, each with a hard pass/fail check so CI can gate on the
// exit status:
//
//   1. Scale-out curve — the same single-shard-only transfer workload runs
//      on 1, 2, 4, ... --shards quorum groups with a fixed number of
//      clients and replicas *per group*.  Because single-shard commits
//      touch nothing outside their home group, adding groups must add
//      throughput nearly linearly: the gate fails unless
//      thr[S_max] >= 0.8 * S_max * thr[1].  The run also asserts the
//      fast-path invariant held (zero cross-shard commits, zero
//      mispredictions, zero wrong-group refusals).
//
//   2. Mixed single/cross-shard correctness — a deterministic transfer
//      list (--cross percent forced cross-group) runs concurrently with
//      retry-until-commit on a sharded cluster AND single-threaded on an
//      unsharded reference cluster.  Transfers are unconditional, so the
//      final balances are order-independent: every key must match the
//      reference exactly and the total must be conserved.
//
//   3. Coordinator-crash chaos — cross-shard transactions prepare on two
//      groups and their coordinators "crash" (the handles are abandoned);
//      one leaf per group crashes and rejoins under live traffic.  After
//      their leases run out the prepares must park IN-DOUBT (protections
//      held — presumed abort is unsafe once a sibling may have committed),
//      cooperative termination must resolve every one of them to abort
//      (sealing the outcome at the coordinators), and afterwards the gate
//      requires zero orphaned prepares (no open lease, no protected key)
//      in EVERY group, zero atomicity breaches anywhere, and that a zombie
//      coordinator waking up after resolution is refused phase 2.
//
//   4. TPC-C scale curve — full NewOrder transactions submitted through
//      shard::Client with warehouse-per-group placement, one warehouse per
//      group, clients pinned to their home warehouse, 0% remote lines.
//      Every transaction must take the single-shard fast path (zero
//      cross-shard dispatches, escalations, mispredictions or wrong-group
//      refusals) and the largest point must reach >= 0.8x linear over the
//      1-group baseline — the unsharded run is the first point of the same
//      curve, so "matches unsharded within noise" is the frac itself.
//
//   5. TPC-C remote mix vs unsharded reference — a deterministic NewOrder
//      list where each order line's stock is supplied by a foreign
//      warehouse with probability --remote-wh (default 0.10) runs through
//      shard::Client on a sharded cluster (one thread per warehouse, so
//      every district sees its orders in a fixed sequence) and sequentially
//      on an unsharded reference.  Stock is seeded deep enough that the
//      restock rule stays dormant, making cross-warehouse stock updates
//      commute: the gate requires the final record of EVERY seeded key to
//      equal the reference exactly, at least one cross-shard NewOrder
//      commit, and zero orphaned prepares (no open lease, no protected
//      key) after the run.
//
// With --transport=tcp every cluster in phases 1-5 is a spawned
// multi-process fleet on localhost sockets — except the phase 2/5 reference
// clusters, which stay on the in-process simulation so the state-equality
// gates literally check "the socket fleet ends state-equal to the sim run
// of the same op list".  The 0.8x-linear throughput gates apply to sim only
// (they calibrate against the sleep-injected LAN model; on real sockets the
// curve measures host core count), but every correctness gate — fast-path
// purity, state equality, conservation, in-doubt resolution, zero orphaned
// prepares — is enforced identically in both modes.
//
// Flags beyond the shared set (see figure_common.hpp), consumed through
// BenchOptions::parse's `extra` hook: --shards=N is the largest group
// count on the curve (default 8); --group-servers=N replicas per group
// (default 4); --clients-per-shard=N (default 2); --txs=N transactions per
// client on the curves (default 300); --cross=P percent of mixed-phase
// transfers forced cross-shard (default 25); --remote-wh=P probability a
// phase-5 order line is remote (default 0.10).
// --metrics-json FILE writes the curve and check results as JSON (the
// format scripts/bench_snapshot.sh folds into BENCH_7.json).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "bench/figure_common.hpp"
#include "src/chaos/chaos.hpp"
#include "src/common/rng.hpp"
#include "src/harness/indoubt.hpp"
#include "src/shard/coordinator.hpp"
#include "src/shard/router.hpp"
#include "src/shard/shard_map.hpp"
#include "src/transport/wire.hpp"
#include "src/workloads/tpcc.hpp"

namespace {

using namespace acn;
using shard::CrossShardCoordinator;
using shard::ShardMap;
using shard::ShardRouter;
using shard::ShardTx;
using store::ObjectKey;
using store::Record;

constexpr store::Field kInitialBalance = 10'000;

acn::KeyFootprint write_footprint(std::vector<ObjectKey> keys) {
  std::sort(keys.begin(), keys.end());
  acn::KeyFootprint footprint;
  for (const auto& key : keys) footprint.push_back({key, true});
  return footprint;
}

/// `per_group` account keys owned by each group under `map` (hash
/// placement is opaque, so walk ids until every pool is full).
std::vector<std::vector<ObjectKey>> build_pools(const ShardMap& map,
                                                std::size_t per_group,
                                                std::uint64_t first_id = 0) {
  std::vector<std::vector<ObjectKey>> pools(map.n_shards());
  std::size_t filled = 0;
  for (std::uint64_t id = first_id; filled < pools.size(); ++id) {
    const ObjectKey key{1, id};
    auto& pool = pools[map.shard_of(key)];
    if (pool.size() >= per_group) continue;
    pool.push_back(key);
    if (pool.size() == per_group) ++filled;
  }
  return pools;
}

/// One unconditional transfer, retried until it commits (conflicts between
/// concurrent clients surface as TxAbort; the transfer itself never fails
/// on balances).  Returns attempts made.
std::size_t transfer(CrossShardCoordinator& coordinator, const ObjectKey& src,
                     const ObjectKey& dst, store::Field amount) {
  for (std::size_t attempt = 1;; ++attempt) {
    ShardTx tx = coordinator.begin(write_footprint({src, dst}));
    try {
      const Record a = tx.read(src);
      const Record b = tx.read(dst);
      tx.write(src, Record{a.fields[0] - amount});
      tx.write(dst, Record{b.fields[0] + amount});
      tx.commit();
      return attempt;
    } catch (const dtm::TxAbort&) {
      std::this_thread::sleep_for(std::chrono::microseconds{20 * attempt});
    }
  }
}

// Fleet-wide gauges summed over probe_replica: a direct Server read in sim
// mode, one kProbe control round-trip per replica on TCP.
std::size_t cluster_protected(harness::Cluster& cluster) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < cluster.size(); ++i)
    count += static_cast<std::size_t>(cluster.probe_replica(i).protected_keys);
  return count;
}

std::size_t cluster_open_leases(harness::Cluster& cluster) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < cluster.size(); ++i)
    count += static_cast<std::size_t>(cluster.probe_replica(i).open_leases);
  return count;
}

std::uint64_t cluster_wrong_group(harness::Cluster& cluster) {
  std::uint64_t count = 0;
  for (std::size_t i = 0; i < cluster.size(); ++i)
    count += cluster.probe_replica(i).wrong_group;
  return count;
}

std::size_t cluster_indoubt(harness::Cluster& cluster) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < cluster.size(); ++i)
    count += static_cast<std::size_t>(cluster.probe_replica(i).indoubt);
  return count;
}

/// Invariant check that works against a remote fleet: mirror its committed
/// state locally and hand the workload in-process replicas as usual.
void check_workload_invariants(harness::Cluster& cluster,
                               const workloads::Workload& workload) {
  if (cluster.remote()) {
    const harness::StateMirror m = cluster.mirror();
    workload.check_invariants(m.servers);
  } else {
    workload.check_invariants(cluster.servers());
  }
}

/// Latest committed value of `key` read from `mirror` (see latest_value).
store::Field mirrored_balance(const harness::StateMirror& mirror,
                              const ObjectKey& key) {
  return workloads::latest_value(mirror.servers, key).value.fields[0];
}

struct ScaleOptions {
  std::size_t max_shards = 8;
  std::size_t group_servers = 4;
  std::size_t clients_per_shard = 2;
  std::size_t txs_per_client = 300;
  int cross_pct = 25;
  double remote_wh = 0.10;  // phase-5 remote order-line probability
};

struct ScalePoint {
  std::size_t shards = 0;
  double tx_per_sec = 0;
  std::uint64_t commits = 0;
};

/// Phase 1: the single-shard workload on `shards` groups.  Every client is
/// pinned to a home group and transfers only inside its pool, so groups
/// never exchange a message; per-group load is identical across the curve.
ScalePoint run_scale_point(const bench::BenchOptions& args,
                           const ScaleOptions& scale, std::size_t shards) {
  harness::ClusterConfig config = args.cluster;
  config.n_servers = scale.group_servers;
  config.n_groups = shards;
  config.prepare_lease_ns = 2'000'000'000;  // generous: expiry is phase 3
  harness::Cluster cluster(config);

  const ShardMap map(shard::ShardMapConfig{
      .n_shards = static_cast<std::uint32_t>(shards)});
  ShardRouter router(map);
  const auto pools = build_pools(map, /*per_group=*/16);
  for (const auto& pool : pools)
    for (const ObjectKey& key : pool)
      shard::seed_sharded(cluster, map, key, Record{kInitialBalance});
  cluster.flush_seeds();

  const std::size_t n_clients = scale.clients_per_shard * shards;
  std::vector<std::unique_ptr<CrossShardCoordinator>> coordinators;
  coordinators.reserve(n_clients);
  for (std::size_t i = 0; i < n_clients; ++i)
    coordinators.push_back(std::make_unique<CrossShardCoordinator>(
        cluster, router, static_cast<int>(i)));

  std::atomic<bool> go{false};
  std::vector<std::thread> clients;
  clients.reserve(n_clients);
  for (std::size_t i = 0; i < n_clients; ++i)
    clients.emplace_back([&, i] {
      const std::size_t home = i % shards;
      const auto& pool = pools[home];
      acn::Rng rng(args.driver.seed + 0x5ca1e + i);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (std::size_t t = 0; t < scale.txs_per_client; ++t) {
        const std::size_t a = rng.uniform(0, pool.size() - 1);
        std::size_t b = rng.uniform(0, pool.size() - 2);
        if (b >= a) ++b;
        transfer(*coordinators[i], pool[a], pool[b], 1);
      }
    });

  const auto start = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (auto& thread : clients) thread.join();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  ScalePoint point;
  point.shards = shards;
  std::uint64_t cross = 0, mispredicted = router.stats().mispredicted;
  for (const auto& coordinator : coordinators) {
    point.commits += coordinator->stats().single_shard_commits.load();
    cross += coordinator->stats().cross_shard_commits.load();
  }
  point.tx_per_sec = seconds > 0 ? static_cast<double>(point.commits) / seconds
                                 : 0;
  if (cross != 0 || mispredicted != 0 || cluster_wrong_group(cluster) != 0)
    throw std::runtime_error(
        "single-shard workload leaked off the fast path (cross=" +
        std::to_string(cross) + " mispredict=" + std::to_string(mispredicted) +
        ")");
  return point;
}

// ---- TPC-C through the unified Client API (phases 4 and 5) -------------

workloads::TpccConfig tpcc_config(std::size_t warehouses,
                                  std::size_t districts) {
  workloads::TpccConfig config;
  config.n_warehouses = warehouses;
  config.districts_per_warehouse = districts;
  config.customers_per_district = 30;
  config.n_items = 64;
  config.w_neworder = 1.0;
  // Deep stock keeps the restock rule dormant, so remote stock updates
  // commute and phase 5's state-equality check is order-independent.
  config.initial_stock_quantity = 1'000'000;
  return config;
}

/// One NewOrder parameter vector: [w, d, c, items, qtys, supply].  Items
/// are made distinct by a fixed stride; each line's supplying warehouse is
/// foreign with probability `remote`.
std::vector<Record> make_neworder_params(const workloads::TpccConfig& config,
                                         store::Field w, store::Field d,
                                         acn::Rng& rng, double remote) {
  const std::size_t lines = workloads::Tpcc::kOrderLines;
  Record items(lines), qtys(lines), supply(lines);
  const auto first =
      static_cast<store::Field>(rng.uniform(0, config.n_items - 1));
  for (std::size_t l = 0; l < lines; ++l) {
    items[l] = static_cast<store::Field>(
        (static_cast<std::uint64_t>(first) + 7 * l) % config.n_items);
    qtys[l] = static_cast<store::Field>(rng.uniform(1, 10));
    supply[l] = w;
    if (remote > 0 && config.n_warehouses > 1 && rng.bernoulli(remote)) {
      auto other = static_cast<store::Field>(
          rng.uniform(0, config.n_warehouses - 2));
      supply[l] = other >= w ? other + 1 : other;
    }
  }
  const auto c = static_cast<store::Field>(
      rng.uniform(0, config.customers_per_district - 1));
  return {Record{w}, Record{d}, Record{c}, items, qtys, supply};
}

/// Phase 4: one point of the TPC-C curve.  One warehouse per group, every
/// client pinned to a distinct district of its home group's warehouse, 0%
/// remote lines — per-group load is constant across the curve and every
/// transaction must stay on the single-shard fast path.
ScalePoint run_tpcc_scale_point(const bench::BenchOptions& args,
                                const ScaleOptions& scale,
                                std::size_t shards) {
  harness::ClusterConfig config = args.cluster;
  config.n_servers = scale.group_servers;
  config.n_groups = shards;
  config.prepare_lease_ns = 2'000'000'000;
  harness::Cluster cluster(config);

  const workloads::TpccConfig workload_config =
      tpcc_config(shards, std::max<std::size_t>(scale.clients_per_shard, 2));
  workloads::Tpcc tpcc(workload_config);
  shard::ClientFleet fleet(tpcc, static_cast<std::uint32_t>(shards));
  fleet.seed(cluster, tpcc);

  const ir::TxProgram& program = *tpcc.profiles()[0].program;
  const std::size_t n_clients = scale.clients_per_shard * shards;
  auto factory = fleet.factory();
  std::vector<std::unique_ptr<harness::Submitter>> submitters;
  for (std::size_t i = 0; i < n_clients; ++i)
    submitters.push_back(factory(cluster, i, args.driver.executor,
                                 args.driver.seed ^ (i << 16)));

  std::atomic<bool> go{false};
  std::atomic<std::uint64_t> commits{0};
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < n_clients; ++i)
    clients.emplace_back([&, i] {
      const auto w = static_cast<store::Field>(i % shards);
      const auto d = static_cast<store::Field>(i / shards);
      acn::Rng rng(args.driver.seed + 0x79cc + i);
      acn::ExecStats stats;
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (std::size_t t = 0; t < scale.txs_per_client; ++t)
        submitters[i]->run(
            harness::Protocol::kFlat, acn::with_program(program),
            make_neworder_params(workload_config, w, d, rng, 0.0), stats);
      commits.fetch_add(stats.commits, std::memory_order_relaxed);
    });

  const auto start = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (auto& thread : clients) thread.join();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  ScalePoint point;
  point.shards = shards;
  point.commits = commits.load();
  point.tx_per_sec = seconds > 0 ? static_cast<double>(point.commits) / seconds
                                 : 0;
  const auto& stats = fleet.stats();
  if (stats.cross_shard.load() != 0 || stats.escalations.load() != 0 ||
      fleet.router().stats().mispredicted != 0 ||
      cluster_wrong_group(cluster) != 0)
    throw std::runtime_error(
        "pinned TPC-C leaked off the fast path (cross=" +
        std::to_string(stats.cross_shard.load()) + " escalations=" +
        std::to_string(stats.escalations.load()) + ")");
  check_workload_invariants(cluster, tpcc);
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  ScaleOptions scale;
  bool latency_given = false;
  // Bench-specific flags are claimed through the shared parser's `extra`
  // hook; everything else is the common option set.
  const auto extra = [&](const std::string& arg) {
    auto value = [&](const char* prefix) {
      return std::strtol(arg.c_str() + std::strlen(prefix), nullptr, 10);
    };
    if (arg.rfind("--latency-us", 0) == 0) latency_given = true;  // observed
    if (arg.rfind("--group-servers=", 0) == 0)
      scale.group_servers = static_cast<std::size_t>(value("--group-servers="));
    else if (arg.rfind("--clients-per-shard=", 0) == 0)
      scale.clients_per_shard =
          static_cast<std::size_t>(value("--clients-per-shard="));
    else if (arg.rfind("--txs=", 0) == 0)
      scale.txs_per_client = static_cast<std::size_t>(value("--txs="));
    else if (arg.rfind("--cross=", 0) == 0)
      scale.cross_pct = static_cast<int>(value("--cross="));
    else if (arg.rfind("--remote-wh=", 0) == 0)
      scale.remote_wh =
          std::strtod(arg.c_str() + std::strlen("--remote-wh="), nullptr);
    else
      return false;
    return true;
  };
  auto args = bench::BenchOptions::parse(argc, argv, extra);
  if (args.cluster.n_groups > 1) scale.max_shards = args.cluster.n_groups;
  // Sleep-dominated RPCs make the curve insensitive to host core count; a
  // too-small latency would measure thread scheduling instead of sharding.
  if (!latency_given) args.cluster.base_latency = std::chrono::microseconds{60};
  args.cluster.stub.max_quorum_retries = 16;  // phase 3 crashes leaves
  // The linearity gates calibrate against the simulated LAN; over real
  // sockets the curve reflects host core count, so TCP runs print it
  // without gating (every correctness gate still applies).
  const bool tcp =
      args.cluster.transport_mode == harness::TransportMode::kTcp;

  std::printf("\n=== Shard scale-out: %zu replicas/group, %zu clients/shard, "
              "%zu tx/client ===\n",
              scale.group_servers, scale.clients_per_shard,
              scale.txs_per_client);

  bool ok = true;
  std::vector<ScalePoint> curve;
  double linear_frac = 0;
  std::uint64_t mixed_cross = 0, mixed_single = 0;
  std::uint64_t orphans_reclaimed = 0, atomicity_breaches = 0;
  std::vector<ScalePoint> tpcc_curve;
  double tpcc_linear_frac = 0;
  std::uint64_t tpcc_cross = 0;

  try {
    // ---- Phase 1: throughput curve over group counts ---------------------
    std::printf("%8s %10s %12s %10s\n", "shards", "commits", "tx/s",
                "vs linear");
    for (std::size_t shards = 1; shards <= scale.max_shards; shards *= 2) {
      const ScalePoint point = run_scale_point(args, scale, shards);
      curve.push_back(point);
      const double frac =
          curve.front().tx_per_sec > 0
              ? point.tx_per_sec / (static_cast<double>(point.shards) *
                                    curve.front().tx_per_sec)
              : 0;
      std::printf("%8zu %10llu %12.1f %9.2fx\n", point.shards,
                  static_cast<unsigned long long>(point.commits),
                  point.tx_per_sec, frac);
      linear_frac = frac;  // the last (largest) point decides the gate
    }
    if (linear_frac < 0.8) {
      if (tcp) {
        std::printf("note: %.2fx linear on tcp (gate is sim-only)\n",
                    linear_frac);
      } else {
        std::fprintf(stderr,
                     "FAIL: %zu-shard throughput is %.2fx linear (< 0.80x)\n",
                     scale.max_shards, linear_frac);
        ok = false;
      }
    }

    // ---- Phase 2: mixed workload vs unsharded reference ------------------
    const std::size_t mixed_shards = std::min<std::size_t>(4, scale.max_shards);
    const std::size_t n_ops = 400;
    const std::size_t n_mixed_clients = 4;
    std::printf("mixed: %zu transfers (%d%% cross-shard) on %zu shards vs "
                "unsharded reference\n",
                n_ops, scale.cross_pct, mixed_shards);

    harness::ClusterConfig sharded_config = args.cluster;
    sharded_config.n_servers = scale.group_servers;
    sharded_config.n_groups = mixed_shards;
    sharded_config.prepare_lease_ns = 2'000'000'000;
    harness::Cluster sharded(sharded_config);
    const ShardMap map(shard::ShardMapConfig{
        .n_shards = static_cast<std::uint32_t>(mixed_shards)});
    ShardRouter router(map);

    harness::ClusterConfig reference_config = sharded_config;
    reference_config.n_groups = 1;
    // The reference is always the in-process simulation: on --transport=tcp
    // this gate becomes "the socket fleet ends state-equal to the sim run
    // of the same op list".
    reference_config.transport_mode = harness::TransportMode::kSim;
    harness::Cluster reference(reference_config);
    const ShardMap one(shard::ShardMapConfig{.n_shards = 1});
    ShardRouter reference_router(one);

    const auto pools = build_pools(map, /*per_group=*/12);
    std::vector<ObjectKey> keys;
    for (const auto& pool : pools)
      keys.insert(keys.end(), pool.begin(), pool.end());
    std::sort(keys.begin(), keys.end());
    for (const ObjectKey& key : keys) {
      shard::seed_sharded(sharded, map, key, Record{kInitialBalance});
      shard::seed_sharded(reference, one, key, Record{kInitialBalance});
    }
    sharded.flush_seeds();
    reference.flush_seeds();

    // The op list is fixed up front so both clusters execute the exact same
    // transfers; cross-shard ops draw src and dst from different groups.
    struct Op {
      ObjectKey src, dst;
      store::Field amount = 0;
    };
    std::vector<Op> ops;
    acn::Rng rng(args.driver.seed + 0x30ca1);
    for (std::size_t k = 0; k < n_ops; ++k) {
      const bool cross =
          static_cast<int>(rng.uniform(0, 99)) < scale.cross_pct;
      const std::size_t src_group = rng.uniform(0, map.n_shards() - 1);
      std::size_t dst_group = src_group;
      if (cross && map.n_shards() > 1) {
        dst_group = rng.uniform(0, map.n_shards() - 2);
        if (dst_group >= src_group) ++dst_group;
      }
      const auto& src_pool = pools[src_group];
      const auto& dst_pool = pools[dst_group];
      Op op;
      op.src = src_pool[rng.uniform(0, src_pool.size() - 1)];
      do {
        op.dst = dst_pool[rng.uniform(0, dst_pool.size() - 1)];
      } while (op.dst == op.src);
      op.amount = static_cast<store::Field>(rng.uniform(1, 50));
      ops.push_back(op);
    }

    // Concurrent retry-until-commit on the sharded cluster: transfers are
    // unconditional, so any commit order yields the same final balances.
    {
      std::vector<std::unique_ptr<CrossShardCoordinator>> coordinators;
      for (std::size_t i = 0; i < n_mixed_clients; ++i)
        coordinators.push_back(std::make_unique<CrossShardCoordinator>(
            sharded, router, static_cast<int>(i)));
      std::vector<std::thread> clients;
      for (std::size_t i = 0; i < n_mixed_clients; ++i)
        clients.emplace_back([&, i] {
          for (std::size_t k = i; k < ops.size(); k += n_mixed_clients)
            transfer(*coordinators[i], ops[k].src, ops[k].dst, ops[k].amount);
        });
      for (auto& thread : clients) thread.join();
      for (const auto& coordinator : coordinators) {
        mixed_single += coordinator->stats().single_shard_commits.load();
        mixed_cross += coordinator->stats().cross_shard_commits.load();
        atomicity_breaches += coordinator->stats().atomicity_breaches.load();
      }
    }
    // Single-threaded on the unsharded reference (no conflicts to retry).
    {
      CrossShardCoordinator coordinator(reference, reference_router, 0);
      for (const Op& op : ops)
        transfer(coordinator, op.src, op.dst, op.amount);
    }

    // One committed-state pass per cluster (a store dump per replica on
    // TCP), then per-key max-version reads against the local copies.
    const harness::StateMirror sharded_state = sharded.mirror();
    const harness::StateMirror reference_state = reference.mirror();
    std::size_t mismatched = 0;
    store::Field sharded_total = 0;
    for (const ObjectKey& key : keys) {
      const store::Field got = mirrored_balance(sharded_state, key);
      const store::Field want = mirrored_balance(reference_state, key);
      sharded_total += got;
      if (got != want) {
        ++mismatched;
        std::fprintf(stderr, "FAIL: key %s = %lld, reference %lld\n",
                     store::to_string(key).c_str(),
                     static_cast<long long>(got),
                     static_cast<long long>(want));
      }
    }
    const store::Field expected_total =
        static_cast<store::Field>(keys.size()) * kInitialBalance;
    std::printf(
        "mixed commits: %llu single, %llu cross; %zu keys compared\n",
        static_cast<unsigned long long>(mixed_single),
        static_cast<unsigned long long>(mixed_cross), keys.size());
    if (mismatched != 0) ok = false;
    if (sharded_total != expected_total) {
      std::fprintf(stderr, "FAIL: total %lld != seeded %lld\n",
                   static_cast<long long>(sharded_total),
                   static_cast<long long>(expected_total));
      ok = false;
    }
    if (mixed_cross == 0 && mixed_shards > 1) {
      std::fprintf(stderr, "FAIL: mixed run exercised no cross-shard 2PC\n");
      ok = false;
    }
    if (mixed_single + mixed_cross != n_ops) {
      std::fprintf(stderr, "FAIL: %llu commits for %zu transfers\n",
                   static_cast<unsigned long long>(mixed_single + mixed_cross),
                   n_ops);
      ok = false;
    }

    // ---- Phase 3: coordinator crash + per-group leaf chaos ---------------
    std::printf("chaos: abandoning cross-shard prepares, crashing one leaf "
                "per group\n");
    harness::ClusterConfig chaos_config = sharded_config;
    chaos_config.prepare_lease_ns = 120'000'000;  // 120 ms
    harness::Cluster chaotic(chaos_config);
    for (const ObjectKey& key : keys)
      shard::seed_sharded(chaotic, map, key, Record{kInitialBalance});
    chaotic.flush_seeds();

    // Three coordinators prepare across two groups each, then "crash":
    // their ShardTx handles are parked and never run phase 2.
    std::vector<std::unique_ptr<CrossShardCoordinator>> doomed;
    std::vector<ShardTx> parked;
    for (std::size_t c = 0; c < 3; ++c) {
      doomed.push_back(std::make_unique<CrossShardCoordinator>(
          chaotic, router, static_cast<int>(100 + c)));
      // Orphan c holds slot 8+c of two adjacent pools: the per-c slot makes
      // the three orphans' key sets disjoint even when the groups wrap
      // (mixed_shards == 2), and the live traffic below stays in slots 0..7.
      const ObjectKey src = pools[c % mixed_shards][8 + c];
      const ObjectKey dst = pools[(c + 1) % mixed_shards][8 + c];
      ShardTx tx = doomed.back()->begin(write_footprint({src, dst}));
      tx.insert(src, Record{0});
      tx.insert(dst, Record{0});
      if (tx.prepare_all() == 0)
        throw std::runtime_error("chaos: orphan prepared no group");
      parked.push_back(std::move(tx));
    }
    if (cluster_open_leases(chaotic) == 0)
      throw std::runtime_error("chaos: no lease outstanding after prepares");

    // One leaf per group crashes and rejoins under the orphaned prepares.
    for (std::size_t g = 0; g < mixed_shards; ++g) {
      const auto victims = chaos::ChaosController::leaf_victims(chaotic, 1, g);
      chaotic.crash_node(victims.front());
      chaotic.restart_node(victims.front());
    }

    // Live traffic keeps committing around the orphans (the parked
    // prepares hold only each pool's .back() key; live transfers use the
    // front halves).
    CrossShardCoordinator survivor(chaotic, router, 7);
    for (std::size_t k = 0; k < 24; ++k) {
      const auto& src_pool = pools[k % mixed_shards];
      const auto& dst_pool = pools[(k + 1) % mixed_shards];
      transfer(survivor, src_pool[k % 4], dst_pool[4 + k % 4], 1);
    }
    atomicity_breaches += survivor.stats().atomicity_breaches.load();

    // The orphans' leases run out — but cross-shard prepares are never
    // presumed aborted by expiry alone: they must park in-doubt with their
    // protections held until cooperative termination decides them.
    std::this_thread::sleep_for(std::chrono::milliseconds{150});
    chaotic.expire_all_leases();
    const std::size_t parked_indoubt = cluster_indoubt(chaotic);
    if (parked_indoubt == 0) {
      std::fprintf(stderr, "FAIL: no orphaned prepare parked in-doubt\n");
      ok = false;
    }
    // Cooperative termination: the coordinators are reachable but recorded
    // no decision, so every orphan resolves to abort and the absence of a
    // record is sealed at each coordinator.
    const harness::IndoubtReport indoubt = harness::resolve_indoubt(chaotic);
    orphans_reclaimed = indoubt.resolved_abort;
    const std::size_t leaked_leases = cluster_open_leases(chaotic);
    const std::size_t leaked_keys = cluster_protected(chaotic);
    std::printf("chaos: %zu prepares parked in-doubt, %llu resolved to "
                "abort, %zu open leases, %zu protected keys after "
                "termination\n",
                parked_indoubt,
                static_cast<unsigned long long>(orphans_reclaimed),
                leaked_leases, leaked_keys);
    if (orphans_reclaimed == 0) {
      std::fprintf(stderr, "FAIL: no orphaned prepare was resolved\n");
      ok = false;
    }
    if (indoubt.unresolved != 0) {
      std::fprintf(stderr, "FAIL: %zu prepares left in-doubt\n",
                   indoubt.unresolved);
      ok = false;
    }
    if (leaked_leases != 0 || leaked_keys != 0) {
      std::fprintf(stderr,
                   "FAIL: orphaned prepares leaked (%zu leases, %zu keys)\n",
                   leaked_leases, leaked_keys);
      ok = false;
    }
    // A zombie coordinator waking up after resolution must be refused: its
    // own decision log now holds the sealed abort, so record_commit fails
    // and phase 2 never starts.
    try {
      parked.front().commit_prepared();
      std::fprintf(stderr, "FAIL: zombie phase 2 was accepted\n");
      ok = false;
    } catch (const dtm::TxAbort&) {
    }
    for (const auto& coordinator : doomed)
      atomicity_breaches += coordinator->stats().atomicity_breaches.load();
    if (atomicity_breaches != 0) {
      std::fprintf(stderr, "FAIL: %llu atomicity breaches\n",
                   static_cast<unsigned long long>(atomicity_breaches));
      ok = false;
    }

    // ---- Phase 4: TPC-C NewOrder curve through shard::Client -------------
    std::printf("tpcc: NewOrder curve, 1 warehouse/group, 0%% remote\n");
    std::printf("%8s %10s %12s %10s\n", "shards", "commits", "tx/s",
                "vs linear");
    for (std::size_t shards = 1; shards <= scale.max_shards; shards *= 2) {
      const ScalePoint point = run_tpcc_scale_point(args, scale, shards);
      tpcc_curve.push_back(point);
      const double frac =
          tpcc_curve.front().tx_per_sec > 0
              ? point.tx_per_sec / (static_cast<double>(point.shards) *
                                    tpcc_curve.front().tx_per_sec)
              : 0;
      std::printf("%8zu %10llu %12.1f %9.2fx\n", point.shards,
                  static_cast<unsigned long long>(point.commits),
                  point.tx_per_sec, frac);
      tpcc_linear_frac = frac;
    }
    if (tpcc_linear_frac < 0.8) {
      if (tcp) {
        std::printf("note: %.2fx linear on tcp (gate is sim-only)\n",
                    tpcc_linear_frac);
      } else {
        std::fprintf(stderr,
                     "FAIL: %zu-shard TPC-C throughput is %.2fx linear "
                     "(< 0.80x)\n",
                     scale.max_shards, tpcc_linear_frac);
        ok = false;
      }
    }

    // ---- Phase 5: TPC-C remote mix vs unsharded reference ----------------
    const std::size_t tpcc_shards = std::min<std::size_t>(4, scale.max_shards);
    const std::size_t tpcc_txs = 100;  // per warehouse
    std::printf("tpcc mixed: %zu NewOrders/warehouse (%.0f%% remote lines) "
                "on %zu shards vs unsharded reference\n",
                tpcc_txs, scale.remote_wh * 100, tpcc_shards);

    const workloads::TpccConfig tpcc_config_mixed = tpcc_config(
        tpcc_shards, /*districts=*/4);
    workloads::Tpcc tpcc(tpcc_config_mixed);
    const ir::TxProgram& neworder = *tpcc.profiles()[0].program;

    harness::ClusterConfig tpcc_sharded_config = args.cluster;
    tpcc_sharded_config.n_servers = scale.group_servers;
    tpcc_sharded_config.n_groups = tpcc_shards;
    tpcc_sharded_config.prepare_lease_ns = 2'000'000'000;
    harness::Cluster tpcc_sharded(tpcc_sharded_config);
    shard::ClientFleet fleet(tpcc, static_cast<std::uint32_t>(tpcc_shards));
    fleet.seed(tpcc_sharded, tpcc);

    harness::ClusterConfig tpcc_reference_config = tpcc_sharded_config;
    tpcc_reference_config.n_groups = 1;
    // In-process simulation always (see phase 2's reference).
    tpcc_reference_config.transport_mode = harness::TransportMode::kSim;
    harness::Cluster tpcc_reference(tpcc_reference_config);
    tpcc.seed(tpcc_reference.servers());

    // One op list per warehouse, fixed up front: warehouse w's thread (and
    // the reference, per warehouse in the same order) executes exactly this
    // sequence, so every district sees a deterministic order of NewOrders.
    // Cross-warehouse effects are only commuting stock updates.
    std::vector<std::vector<std::vector<Record>>> tpcc_ops(tpcc_shards);
    for (std::size_t w = 0; w < tpcc_shards; ++w) {
      acn::Rng rng(args.driver.seed + 0x700 + 0xdead * w);
      for (std::size_t t = 0; t < tpcc_txs; ++t) {
        const auto d = static_cast<store::Field>(
            rng.uniform(0, tpcc_config_mixed.districts_per_warehouse - 1));
        tpcc_ops[w].push_back(make_neworder_params(
            tpcc_config_mixed, static_cast<store::Field>(w), d, rng,
            scale.remote_wh));
      }
    }

    // Sharded run: one Client per warehouse, concurrent.
    std::uint64_t tpcc_commits = 0;
    {
      auto factory = fleet.factory();
      std::vector<std::unique_ptr<harness::Submitter>> submitters;
      for (std::size_t w = 0; w < tpcc_shards; ++w)
        submitters.push_back(factory(tpcc_sharded, w, args.driver.executor,
                                     args.driver.seed ^ (w << 16)));
      std::vector<acn::ExecStats> stats(tpcc_shards);
      std::vector<std::thread> clients;
      for (std::size_t w = 0; w < tpcc_shards; ++w)
        clients.emplace_back([&, w] {
          for (const auto& params : tpcc_ops[w])
            submitters[w]->run(harness::Protocol::kFlat,
                               acn::with_program(neworder), params, stats[w]);
        });
      for (auto& thread : clients) thread.join();
      for (const auto& s : stats) tpcc_commits += s.commits;
    }
    // Sequential reference: per warehouse in the same per-op order.
    {
      auto stub = tpcc_reference.make_stub(0, args.driver.seed);
      acn::Executor executor(stub, args.driver.executor, args.driver.seed);
      acn::ExecStats stats;
      for (std::size_t w = 0; w < tpcc_shards; ++w)
        for (const auto& params : tpcc_ops[w])
          executor.run(harness::Protocol::kFlat, acn::with_program(neworder),
                       params, stats);
    }

    // Every seeded key is the whole universe (NewOrder writes only ring
    // slots that seeding created), so compare all of them.
    std::vector<ObjectKey> tpcc_keys;
    tpcc.seed_objects([&](const ObjectKey& key, const Record&) {
      tpcc_keys.push_back(key);
    });
    const harness::StateMirror tpcc_state = tpcc_sharded.mirror();
    std::size_t tpcc_mismatched = 0;
    for (const ObjectKey& key : tpcc_keys) {
      const Record got =
          workloads::latest_value(tpcc_state.servers, key).value;
      const Record want =
          workloads::latest_value(tpcc_reference.servers(), key).value;
      if (got != want) {
        ++tpcc_mismatched;
        std::fprintf(stderr, "FAIL: tpcc key %s diverged from reference\n",
                     store::to_string(key).c_str());
      }
    }
    tpcc_cross = fleet.stats().cross_shard.load();
    const std::size_t tpcc_leases = cluster_open_leases(tpcc_sharded);
    const std::size_t tpcc_protected = cluster_protected(tpcc_sharded);
    std::printf("tpcc mixed: %llu commits (%llu cross-shard), %zu keys "
                "compared\n",
                static_cast<unsigned long long>(tpcc_commits),
                static_cast<unsigned long long>(tpcc_cross),
                tpcc_keys.size());
    if (tpcc_mismatched != 0) ok = false;
    if (tpcc_commits != tpcc_shards * tpcc_txs) {
      std::fprintf(stderr, "FAIL: tpcc %llu commits for %zu NewOrders\n",
                   static_cast<unsigned long long>(tpcc_commits),
                   tpcc_shards * tpcc_txs);
      ok = false;
    }
    if (tpcc_cross == 0 && tpcc_shards > 1 && scale.remote_wh > 0) {
      std::fprintf(stderr,
                   "FAIL: tpcc mixed run committed no cross-shard NewOrder\n");
      ok = false;
    }
    if (tpcc_leases != 0 || tpcc_protected != 0) {
      std::fprintf(stderr,
                   "FAIL: tpcc orphaned prepares (%zu leases, %zu keys)\n",
                   tpcc_leases, tpcc_protected);
      ok = false;
    }
    check_workload_invariants(tpcc_sharded, tpcc);
    tpcc.check_invariants(tpcc_reference.servers());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "abl_shardscale failed: %s\n", e.what());
    return 1;
  }

  if (!args.metrics_json_path.empty()) {
    std::FILE* file = std::fopen(args.metrics_json_path.c_str(), "w");
    if (file == nullptr) {
      std::fprintf(stderr, "FAIL: cannot open %s\n",
                   args.metrics_json_path.c_str());
      ok = false;
    } else {
      std::fprintf(file, "{\n \"curve\": {");
      for (std::size_t i = 0; i < curve.size(); ++i)
        std::fprintf(file, "%s\"%zu\": %.1f", i ? ", " : "", curve[i].shards,
                     curve[i].tx_per_sec);
      std::fprintf(file, "},\n \"tpcc_curve\": {");
      for (std::size_t i = 0; i < tpcc_curve.size(); ++i)
        std::fprintf(file, "%s\"%zu\": %.1f", i ? ", " : "",
                     tpcc_curve[i].shards, tpcc_curve[i].tx_per_sec);
      std::fprintf(file,
                   "},\n \"linear_frac\": %.4f,\n"
                   " \"tpcc_linear_frac\": %.4f,\n"
                   " \"tpcc_cross\": %llu,\n \"mixed_single\": %llu,\n"
                   " \"mixed_cross\": %llu,\n \"orphans_reclaimed\": %llu,\n"
                   " \"atomicity_breaches\": %llu\n}\n",
                   linear_frac, tpcc_linear_frac,
                   static_cast<unsigned long long>(tpcc_cross),
                   static_cast<unsigned long long>(mixed_single),
                   static_cast<unsigned long long>(mixed_cross),
                   static_cast<unsigned long long>(orphans_reclaimed),
                   static_cast<unsigned long long>(atomicity_breaches));
      std::fclose(file);
      std::printf("metrics written to %s\n", args.metrics_json_path.c_str());
    }
  }

  if (ok)
    std::printf("all shard scale/correctness/crash checks passed "
                "(invariants verified)\n");
  return ok ? 0 : 1;
}
