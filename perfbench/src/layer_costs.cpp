#include "perfbench/src/layer_costs.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>

#include "src/acn/algorithm_module.hpp"
#include "src/acn/contention_model.hpp"
#include "src/common/clock.hpp"
#include "src/dtm/codec.hpp"
#include "src/dtm/server.hpp"
#include "src/harness/cluster.hpp"
#include "src/nesting/transaction.hpp"
#include "src/workloads/bank.hpp"

namespace perfbench {
namespace {

using namespace acn;

constexpr int kRounds = 15;

// Results feed this so the measured calls cannot be optimised away.
volatile std::uint64_t g_sink = 0;

/// Median over kRounds of (time of `fn()` / `ops`), in ns.  `prepare()`
/// runs untimed before each round.
template <class Prepare, class Fn>
double ns_per_op(std::size_t ops, Prepare&& prepare, Fn&& fn) {
  std::vector<double> rounds;
  for (int r = 0; r < kRounds; ++r) {
    prepare();
    const std::uint64_t start = now_ns();
    fn();
    rounds.push_back(static_cast<double>(now_ns() - start) /
                     static_cast<double>(ops));
  }
  std::sort(rounds.begin(), rounds.end());
  return rounds[rounds.size() / 2];
}

template <class Fn>
double ns_per_op(std::size_t ops, Fn&& fn) {
  return ns_per_op(ops, [] {}, std::forward<Fn>(fn));
}

/// Size of one round so that all rounds together take about `budget_ms`,
/// given a rough per-op cost.
std::size_t ops_for(int budget_ms, double approx_ns) {
  const double per_round = budget_ms * 1e6 / kRounds;
  return std::max<std::size_t>(16, static_cast<std::size_t>(per_round / approx_ns));
}

/// One Block's nested frame: adopt `reads` fetched records, overwrite the
/// first `writes` of them, insert `inserts` fresh objects, then merge the
/// frame into its parent or discard it.
void frame_cycle(nesting::Transaction& tx, std::size_t reads,
                 std::size_t writes, std::size_t inserts, bool commit) {
  tx.begin_nested();
  for (std::size_t r = 0; r < reads; ++r)
    tx.adopt_read({workloads::Bank::kAccount, r}, {store::Record{100}, 1});
  for (std::size_t w = 0; w < writes; ++w)
    tx.write({workloads::Bank::kAccount, w}, store::Record{99});
  for (std::size_t i = 0; i < inserts; ++i)
    tx.insert({8, i}, store::Record{1, 2, 3});
  if (commit)
    tx.commit_nested();
  else
    tx.abort_nested();
}

double frame_ns(dtm::QuorumStub& stub, int budget_ms, std::size_t reads,
                std::size_t writes, std::size_t inserts, bool commit) {
  const std::size_t ops = ops_for(budget_ms, 2000);
  std::vector<std::unique_ptr<nesting::Transaction>> txs;
  return ns_per_op(
      ops,
      [&] {
        txs.clear();
        for (std::size_t i = 0; i < ops; ++i)
          txs.push_back(
              std::make_unique<nesting::Transaction>(stub, nesting::next_tx_id()));
      },
      [&] {
        for (auto& tx : txs) frame_cycle(*tx, reads, writes, inserts, commit);
      });
}

std::vector<dtm::VersionCheck> checks(std::size_t n) {
  std::vector<dtm::VersionCheck> out;
  for (std::size_t i = 0; i < n; ++i)
    out.push_back({{workloads::Bank::kAccount, 100 + i}, 1});
  return out;
}

}  // namespace

std::vector<Metric> layer_costs(int budget_ms) {
  std::vector<Metric> out;
  workloads::Bank bank;
  const ir::TxProgram& transfer = *bank.profiles()[0].program;

  // -- ir::TxEnv snapshot / restore, every slot of a Bank transfer bound.
  {
    ir::TxEnv env(transfer, {store::Record{1}, store::Record{2},
                             store::Record{3}, store::Record{4},
                             store::Record{5}});
    for (std::size_t v = transfer.n_params; v < transfer.n_vars; ++v)
      env.set(static_cast<ir::VarId>(v), store::Record{100});
    const std::size_t ops = ops_for(budget_ms, 200);
    std::vector<ir::TxEnv::Snapshot> snaps(ops);
    out.push_back({"acn.env_snapshot_ns", ns_per_op(ops, [&] {
                     for (auto& snap : snaps) snap = env.snapshot();
                   }),
                   "ns"});
    out.push_back({"acn.env_restore_ns",
                   ns_per_op(
                       ops,
                       [&] {
                         for (auto& snap : snaps) snap = env.snapshot();
                       },
                       [&] {
                         for (auto& snap : snaps) env.restore(std::move(snap));
                       }),
                   "ns"});
  }

  // -- nesting::Transaction frames: Bank (2 reads, 2 writes) and NewOrder
  // (13 reads, 6 writes, 7 inserts) sized Blocks.
  {
    harness::ClusterConfig config;
    config.base_latency = std::chrono::nanoseconds{0};
    harness::Cluster cluster(config);
    dtm::QuorumStub stub = cluster.make_stub(0, 1);
    out.push_back({"nesting.frame_commit_ns",
                   frame_ns(stub, budget_ms, 2, 2, 0, true), "ns"});
    out.push_back({"nesting.frame_abort_ns",
                   frame_ns(stub, budget_ms, 2, 2, 0, false), "ns"});
    out.push_back({"nesting.frame_commit_neworder_ns",
                   frame_ns(stub, budget_ms, 13, 6, 7, true), "ns"});
    out.push_back({"nesting.frame_abort_neworder_ns",
                   frame_ns(stub, budget_ms, 13, 6, 7, false), "ns"});
  }

  // -- codec: encode + decode_request of a Bank-sized read and prepare.
  {
    dtm::ReadRequest read;
    read.tx = 7;
    read.key = {workloads::Bank::kBranch, 3};
    read.validate = checks(3);
    dtm::PrepareRequest prepare;
    prepare.tx = 7;
    prepare.read_validate = checks(4);
    for (std::uint64_t k = 0; k < 4; ++k) {
      prepare.write_keys.push_back({workloads::Bank::kAccount, 100 + k});
      prepare.values.push_back(store::Record{10'000});
    }
    const dtm::Request requests[] = {dtm::Request{read}, dtm::Request{prepare}};
    const std::size_t ops = ops_for(budget_ms, 1000);
    out.push_back({"dtm.codec_roundtrip_ns", ns_per_op(ops, [&] {
                     for (std::size_t i = 0; i < ops; ++i) {
                       const auto bytes = dtm::encode(requests[i % 2]);
                       g_sink = g_sink + dtm::decode_request(bytes).payload.index();
                     }
                   }),
                   "ns"});
  }

  // -- dtm::Server::handle of a read with incremental validation.
  {
    dtm::Server server(0);
    bank.seed_objects([&](const store::ObjectKey& key, const store::Record& value) {
      server.store().seed(key, value);
    });
    dtm::ReadRequest read;
    read.tx = 9;
    read.validate = checks(2);
    const std::size_t ops = ops_for(budget_ms, 300);
    out.push_back({"dtm.server_read_ns", ns_per_op(ops, [&] {
                     for (std::size_t i = 0; i < ops; ++i) {
                       read.key = {workloads::Bank::kAccount, i % 4096};
                       g_sink = g_sink + server.handle(1000, dtm::Request{read})
                                             .payload.index();
                     }
                   }),
                   "ns"});
  }

  // -- net::Network::call with zero latency to a trivial handler.
  {
    net::Network<dtm::Request, dtm::Response> network;
    network.register_node(0, [](net::NodeId, const dtm::Request&) {
      return dtm::Response{dtm::ContentionResponse{}};
    });
    const dtm::Request request{dtm::ContentionRequest{}};
    const std::size_t ops = ops_for(budget_ms, 200);
    out.push_back({"net.call_zero_ns", ns_per_op(ops, [&] {
                     for (std::size_t i = 0; i < ops; ++i)
                       g_sink = g_sink + network.call(1, 0, request).response
                                             .payload.index();
                   }),
                   "ns"});
  }

  // -- AlgorithmModule::recompute on the Bank transfer.
  {
    AlgorithmModule module(transfer, {}, default_contention_model());
    const RawLevels levels{{workloads::Bank::kBranch, 120},
                           {workloads::Bank::kAccount, 7}};
    const std::size_t ops = ops_for(budget_ms, 4000);
    out.push_back({"acn.recompute_us", ns_per_op(ops, [&] {
                     for (std::size_t i = 0; i < ops; ++i)
                       g_sink = g_sink + module.recompute(levels).sequence.size();
                   }) / 1000.0,
                   "us"});
  }
  return out;
}

}  // namespace perfbench
