// Google-benchmark micro-benchmarks for the framework's moving parts:
// quorum construction, store operations, dependency analysis, and the
// Algorithm Module's recompute (the cost the paper argues is negligible,
// cf. its discussion of Figure 4(d)).
#include <benchmark/benchmark.h>

#include "src/acn/algorithm_module.hpp"
#include "src/quorum/level_quorum.hpp"
#include "src/quorum/tree_quorum.hpp"
#include "src/store/contention_tracker.hpp"
#include "src/store/versioned_store.hpp"
#include "src/workloads/bank.hpp"
#include "src/workloads/tpcc.hpp"

namespace {

using namespace acn;

void BM_TreeReadQuorum(benchmark::State& state) {
  quorum::TreeQuorumSystem qs{
      quorum::TreeTopology(static_cast<std::size_t>(state.range(0)), 3)};
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(qs.read_quorum(rng));
}
BENCHMARK(BM_TreeReadQuorum)->Arg(10)->Arg(30)->Arg(100);

void BM_TreeWriteQuorum(benchmark::State& state) {
  quorum::TreeQuorumSystem qs{
      quorum::TreeTopology(static_cast<std::size_t>(state.range(0)), 3)};
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(qs.write_quorum(rng));
}
BENCHMARK(BM_TreeWriteQuorum)->Arg(10)->Arg(30)->Arg(100);

void BM_LevelWriteQuorum(benchmark::State& state) {
  quorum::LevelMajorityQuorumSystem qs{
      quorum::TreeTopology(static_cast<std::size_t>(state.range(0)), 3)};
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(qs.write_quorum(rng));
}
BENCHMARK(BM_LevelWriteQuorum)->Arg(10)->Arg(30);

void BM_StoreRead(benchmark::State& state) {
  store::VersionedStore s;
  for (std::uint64_t i = 0; i < 1024; ++i)
    s.seed({1, i}, store::Record{static_cast<store::Field>(i)});
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.read({1, i++ % 1024}));
  }
}
BENCHMARK(BM_StoreRead);

void BM_StoreProtectUnprotect(benchmark::State& state) {
  store::VersionedStore s;
  s.seed({1, 1}, store::Record{1});
  for (auto _ : state) {
    s.try_protect({1, 1}, 7);
    s.unprotect({1, 1}, 7);
  }
}
BENCHMARK(BM_StoreProtectUnprotect);

// One committed write as dtm::Server::on_commit counts it: read the window,
// install and count the key in its store entry, raise the class maximum.
void BM_ContentionBump(benchmark::State& state) {
  store::VersionedStore s;
  store::ContentionTracker tracker;
  const store::Record value{1};
  for (std::uint64_t i = 0; i < 64; ++i) s.seed({1, i}, value);
  std::uint64_t i = 0;
  for (auto _ : state) {
    const std::uint32_t window = tracker.window(0);
    const store::ObjectKey key{1, i++ % 64};
    tracker.note(window, key.cls,
                 s.apply_counted(key, value, 1, store::kNoTx, window));
  }
}
BENCHMARK(BM_ContentionBump);

void BM_DependencyAnalysisBank(benchmark::State& state) {
  workloads::Bank bank;
  const auto& program = *bank.profiles()[0].program;
  for (auto _ : state)
    benchmark::DoNotOptimize(
        build_dependency_model(program, AttachPolicy::kLatestProducer));
}
BENCHMARK(BM_DependencyAnalysisBank);

void BM_DependencyAnalysisTpccNewOrder(benchmark::State& state) {
  workloads::Tpcc tpcc;
  const auto& program = *tpcc.profiles()[0].program;
  for (auto _ : state)
    benchmark::DoNotOptimize(
        build_dependency_model(program, AttachPolicy::kLatestProducer));
}
BENCHMARK(BM_DependencyAnalysisTpccNewOrder);

void BM_AlgorithmRecomputeBank(benchmark::State& state) {
  workloads::Bank bank;
  AlgorithmModule mod(*bank.profiles()[0].program, {},
                      default_contention_model());
  const RawLevels levels{{workloads::Bank::kBranch, 120},
                         {workloads::Bank::kAccount, 7}};
  for (auto _ : state) benchmark::DoNotOptimize(mod.recompute(levels));
}
BENCHMARK(BM_AlgorithmRecomputeBank);

void BM_AlgorithmRecomputeTpccNewOrder(benchmark::State& state) {
  workloads::Tpcc tpcc;
  AlgorithmModule mod(*tpcc.profiles()[0].program, {},
                      default_contention_model());
  const RawLevels levels{{workloads::Tpcc::kDistrict, 200},
                         {workloads::Tpcc::kStock, 12},
                         {workloads::Tpcc::kWarehouse, 3},
                         {workloads::Tpcc::kCustomer, 4},
                         {workloads::Tpcc::kItem, 0}};
  for (auto _ : state) benchmark::DoNotOptimize(mod.recompute(levels));
}
BENCHMARK(BM_AlgorithmRecomputeTpccNewOrder);

}  // namespace

BENCHMARK_MAIN();
