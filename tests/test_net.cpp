// Unit tests for the simulated message-passing network.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/common/clock.hpp"
#include "src/net/network.hpp"

namespace acn::net {
namespace {

struct Ping {
  int value = 0;
  std::size_t bytes = 32;
  std::size_t approx_size() const noexcept { return bytes; }
};

struct Pong {
  int value = 0;
  int handled_by = -1;
  std::size_t approx_size() const noexcept { return 48; }
};

using TestNet = Network<Ping, Pong>;

std::unique_ptr<TestNet> make_net(std::size_t n,
                                  std::shared_ptr<const LatencyModel> latency =
                                      std::make_shared<ZeroLatency>()) {
  auto net = std::make_unique<TestNet>(std::move(latency));
  for (std::size_t i = 0; i < n; ++i)
    net->register_node(static_cast<NodeId>(i),
                       [i](NodeId, const Ping& p) {
                         return Pong{p.value + 1, static_cast<int>(i)};
                       });
  return net;
}

TEST(Network, CallReachesHandler) {
  auto net = make_net(3);
  const auto result = net->call(10, 1, Ping{41});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.response.value, 42);
  EXPECT_EQ(result.response.handled_by, 1);
}

TEST(Network, AccountsMessagesAndBytes) {
  auto net = make_net(2);
  net->call(10, 0, Ping{1, 100});
  EXPECT_EQ(net->stats().messages(), 2u);  // request + response
  EXPECT_EQ(net->stats().bytes(), 100u + 48u);
}

TEST(Network, NodeDownIsRefused) {
  auto net = make_net(2);
  net->set_node_down(1, true);
  const auto result = net->call(10, 1, Ping{1});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.error, NetErrorCode::kNodeDown);
  EXPECT_EQ(net->stats().refused(), 1u);
  net->set_node_down(1, false);
  EXPECT_TRUE(net->call(10, 1, Ping{1}).ok());
}

TEST(Network, UnregisteredNodeIsRefused) {
  auto net = make_net(2);
  EXPECT_EQ(net->call(10, 7, Ping{1}).error, NetErrorCode::kNodeDown);
}

TEST(Network, MulticallAlignsWithTargets) {
  auto net = make_net(4);
  const std::vector<NodeId> targets{2, 0, 3};
  const auto results = net->multicall(10, targets, Ping{20});
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].response.handled_by, 2);
  EXPECT_EQ(results[0].response.value, 21);
  EXPECT_EQ(results[1].response.handled_by, 0);
  EXPECT_EQ(results[2].response.handled_by, 3);
}

TEST(Network, MulticallSkipsDownNodesOnly) {
  auto net = make_net(3);
  net->set_node_down(1, true);
  const auto results = net->multicall(10, {0, 1, 2}, Ping{1});
  EXPECT_TRUE(results[0].ok());
  EXPECT_FALSE(results[1].ok());
  EXPECT_TRUE(results[2].ok());
}

TEST(Network, DropProbabilityOneDropsEverything) {
  auto net = make_net(2);
  net->set_drop_probability(1.0);
  const auto result = net->call(10, 0, Ping{1});
  EXPECT_EQ(result.error, NetErrorCode::kDropped);
  EXPECT_GE(net->stats().drops(), 1u);
  net->set_drop_probability(0.0);
  EXPECT_TRUE(net->call(10, 0, Ping{1}).ok());
}

TEST(Network, SetNodeDownUnknownIdThrows) {
  auto net = make_net(2);
  EXPECT_THROW(net->set_node_down(7, true), std::invalid_argument);
  EXPECT_THROW(net->set_node_down(-1, true), std::invalid_argument);
  EXPECT_THROW(net->node_down(99), std::invalid_argument);
  // Known ids still work after the failed calls.
  EXPECT_NO_THROW(net->set_node_down(1, true));
  EXPECT_TRUE(net->node_down(1));
}

TEST(Network, RegistrationRacesFaultInjectionSafely) {
  // A fault thread may crash and rejoin a replica while clients are still
  // registering their own handlers, which grows the node table.
  auto net = make_net(1);
  constexpr NodeId kNodes = 256;
  std::thread registrar([&] {
    for (NodeId id = 1; id <= kNodes; ++id)
      net->register_node(id, [](NodeId, const Ping&) { return Pong{}; });
  });
  std::size_t seen_down = 0;
  for (int i = 0; i < 2000; ++i) {
    net->set_node_down(0, i % 2 == 0);
    if (net->node_down(0)) ++seen_down;
  }
  registrar.join();
  EXPECT_EQ(seen_down, 1000u);
  EXPECT_FALSE(net->node_down(0));  // the last toggle brought it back up
  for (NodeId id = 1; id <= kNodes; ++id) EXPECT_FALSE(net->node_down(id));
}

TEST(Network, ResponseLegDropSurfacesAsDrop) {
  auto net = make_net(2);
  std::atomic<int> handled{0};
  net->register_node(5, [&handled](NodeId, const Ping& p) {
    handled.fetch_add(1);
    return Pong{p.value, 5};
  });
  // Only the server->client leg is lossy: the request is delivered and
  // handled, but the caller never sees the ack — the lost-ack 2PC hazard.
  net->set_link_fault(5, 10, LinkFault{1.0, Nanos{0}});
  const auto result = net->call(10, 5, Ping{1});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.error, NetErrorCode::kDropped);
  EXPECT_EQ(handled.load(), 1);
  EXPECT_EQ(net->stats().response_drops(), 1u);
  // Other directions are unaffected.
  net->clear_link_faults();
  EXPECT_TRUE(net->call(10, 5, Ping{1}).ok());
}

TEST(Network, RequestLegLinkFaultSkipsHandler) {
  auto net = make_net(2);
  std::atomic<int> handled{0};
  net->register_node(5, [&handled](NodeId, const Ping& p) {
    handled.fetch_add(1);
    return Pong{p.value, 5};
  });
  net->set_link_fault(10, 5, LinkFault{1.0, Nanos{0}});
  EXPECT_EQ(net->call(10, 5, Ping{1}).error, NetErrorCode::kDropped);
  EXPECT_EQ(handled.load(), 0);
  net->clear_link_fault(10, 5);
  EXPECT_TRUE(net->call(10, 5, Ping{1}).ok());
}

TEST(Network, PartitionBlocksCrossGroupTraffic) {
  auto net = make_net(3);
  // Unlisted callers (the client, id 10) belong to group 0.
  net->set_partition({{0, 1}, {2}});
  EXPECT_TRUE(net->partitioned());
  EXPECT_TRUE(net->call(10, 1, Ping{1}).ok());
  const auto blocked = net->call(10, 2, Ping{1});
  EXPECT_FALSE(blocked.ok());
  EXPECT_EQ(blocked.error, NetErrorCode::kPartitioned);
  EXPECT_GE(net->stats().partitioned(), 1u);

  const auto results = net->multicall(10, {0, 1, 2}, Ping{1});
  EXPECT_TRUE(results[0].ok());
  EXPECT_TRUE(results[1].ok());
  EXPECT_EQ(results[2].error, NetErrorCode::kPartitioned);

  net->clear_partition();
  EXPECT_FALSE(net->partitioned());
  EXPECT_TRUE(net->call(10, 2, Ping{1}).ok());
}

TEST(Network, PerLinkExtraLatencyIsApplied) {
  using namespace std::chrono_literals;
  auto net = make_net(2);
  net->set_link_fault(10, 0, LinkFault{0.0, Nanos{2ms}});
  Stopwatch watch;
  ASSERT_TRUE(net->call(10, 0, Ping{1}).ok());
  EXPECT_GE(watch.elapsed_ns(), 2'000'000u);  // request leg pays the fault
  // The other node's links are untouched: no 2ms floor there.
  EXPECT_TRUE(net->call(10, 1, Ping{1}).ok());
}

TEST(Network, GlobalExtraLatencyIsApplied) {
  using namespace std::chrono_literals;
  auto net = make_net(2);
  net->set_extra_latency(Nanos{1ms});
  EXPECT_EQ(net->extra_latency(), Nanos{1ms});
  Stopwatch watch;
  ASSERT_TRUE(net->call(10, 0, Ping{1}).ok());
  EXPECT_GE(watch.elapsed_ns(), 2'000'000u);  // both legs pay the spike
  net->set_extra_latency(Nanos{0});
}

TEST(Network, LatencyIsApplied) {
  using namespace std::chrono_literals;
  auto net = make_net(2, std::make_shared<FixedLatency>(Nanos{2ms}));
  Stopwatch watch;
  net->call(10, 0, Ping{1});
  EXPECT_GE(watch.elapsed_ns(), 4'000'000u);  // request + response leg
}

TEST(Network, MulticallPaysWorstRoundTripOnce) {
  using namespace std::chrono_literals;
  auto net = make_net(4, std::make_shared<FixedLatency>(Nanos{2ms}));
  Stopwatch watch;
  net->multicall(10, {0, 1, 2, 3}, Ping{1});
  const auto elapsed = watch.elapsed_ns();
  EXPECT_GE(elapsed, 4'000'000u);
  // Four sequential calls would cost >= 16ms; a quorum multicall must not.
  EXPECT_LT(elapsed, 12'000'000u);
}

// ---- delay fidelity: the counters, not wall time ------------------------

TEST(NetDelay, ZeroLatencyRoundsNeverCount) {
  auto net = make_net(3);
  net->call(10, 0, Ping{1});
  net->multicall(10, {0, 1, 2}, Ping{1});
  EXPECT_EQ(net->stats().delay_rounds(), 0u);
  EXPECT_EQ(net->stats().delay_requested_ns(), 0u);
}

TEST(NetDelay, CallIsExactlyOneRound) {
  using namespace std::chrono_literals;
  auto net = make_net(2, std::make_shared<FixedLatency>(Nanos{20us}));
  ASSERT_TRUE(net->call(10, 0, Ping{1}).ok());
  EXPECT_EQ(net->stats().delay_rounds(), 1u);
  // Both legs and the handler, one deadline: at least 40 us requested.
  EXPECT_GE(net->stats().delay_requested_ns(), 40'000u);
  EXPECT_GE(net->stats().delay_actual_ns(), net->stats().delay_requested_ns());
}

TEST(NetDelay, EveryRoundWakesNoEarlierThanRequested) {
  using namespace std::chrono_literals;
  auto net = make_net(4, std::make_shared<FixedLatency>(Nanos{10us}));
  net->set_link_fault(10, 3, LinkFault{0.0, Nanos{30us}});
  for (int i = 0; i < 50; ++i) {
    const std::uint64_t requested0 = net->stats().delay_requested_ns();
    const std::uint64_t actual0 = net->stats().delay_actual_ns();
    if (i % 2 == 0)
      net->call(10, static_cast<NodeId>(i % 4), Ping{i});
    else
      net->multicall(10, {0, 1, 2, 3}, Ping{i});
    const std::uint64_t requested = net->stats().delay_requested_ns() - requested0;
    const std::uint64_t actual = net->stats().delay_actual_ns() - actual0;
    EXPECT_GT(requested, 0u) << "round " << i;
    EXPECT_GE(actual, requested) << "round " << i;
  }
  EXPECT_EQ(net->stats().delay_rounds(), 50u);
}

TEST(NetDelay, MulticallChargesTheSlowestHandlerNotTheSum) {
  using namespace std::chrono_literals;
  constexpr Nanos kLeg{2ms};
  auto net = std::make_unique<TestNet>(std::make_shared<FixedLatency>(kLeg));
  // Each handler spins 1 ms and reports the wall time it took, so a handler
  // that a loaded host preempts is charged what it really took.
  std::vector<std::uint64_t> handler_ns(4, 0);
  for (NodeId id = 0; id < 4; ++id)
    net->register_node(id, [id, &handler_ns](NodeId, const Ping& p) {
      const Stopwatch spin;
      while (spin.elapsed_ns() < 1'000'000) {
      }
      handler_ns[static_cast<std::size_t>(id)] = spin.elapsed_ns();
      return Pong{p.value, id};
    });
  net->multicall(10, {0, 1, 2, 3}, Ping{1});
  ASSERT_EQ(net->stats().delay_rounds(), 1u);
  const std::uint64_t slowest =
      *std::max_element(handler_ns.begin(), handler_ns.end());
  const auto legs = static_cast<std::uint64_t>((2 * kLeg).count());
  const std::uint64_t requested = net->stats().delay_requested_ns();
  EXPECT_GE(requested, legs + slowest);  // the slowest handler counts...
  // ...and only it: the other three (3 ms or more) are not added.
  EXPECT_LT(requested, legs + slowest + 1'000'000);
  EXPECT_GE(net->stats().delay_actual_ns(), requested);
}

TEST(NetStats, ResetClears) {
  auto net = make_net(1);
  net->call(5, 0, Ping{1});
  net->stats().reset();
  EXPECT_EQ(net->stats().messages(), 0u);
  EXPECT_EQ(net->stats().bytes(), 0u);
}

TEST(NetStats, SummaryMentionsCounters) {
  NetStats stats;
  stats.on_message(10);
  const auto text = stats.summary();
  EXPECT_NE(text.find("messages=1"), std::string::npos);
  EXPECT_NE(text.find("bytes=10"), std::string::npos);
  stats.on_delay(100, 130);
  const auto delayed = stats.summary();
  EXPECT_NE(delayed.find("delay_rounds=1"), std::string::npos);
  EXPECT_NE(delayed.find("delay_requested_ns=100"), std::string::npos);
  EXPECT_NE(delayed.find("delay_actual_ns=130"), std::string::npos);
}

TEST(Network, NestedCallFromHandlerThrows) {
  // A handler that calls back into the network would deadlock a real
  // transport's event loop; the sim must reject it the same way so tests
  // written against sim stay honest about what TCP can honor.
  auto net = std::make_unique<TestNet>(std::make_shared<ZeroLatency>());
  net->register_node(0, [&](NodeId, const Ping& p) {
    if (p.value == 99) net->call(0, 1, Ping{1});  // nested RPC: forbidden
    return Pong{p.value, 0};
  });
  net->register_node(1,
                     [](NodeId, const Ping& p) { return Pong{p.value, 1}; });
  EXPECT_TRUE(net->call(10, 0, Ping{1}).ok());  // plain call still fine
  EXPECT_THROW(net->call(10, 0, Ping{99}), std::logic_error);
  // The guard is RAII: after the throw unwinds, the depth is back to zero
  // and top-level calls keep working.
  EXPECT_TRUE(net->call(10, 0, Ping{1}).ok());
  EXPECT_TRUE(net->call(10, 1, Ping{2}).ok());
}

TEST(Network, NestedMulticallFromHandlerThrows) {
  auto net = std::make_unique<TestNet>(std::make_shared<ZeroLatency>());
  net->register_node(0, [&](NodeId, const Ping& p) {
    net->multicall(0, {1}, Ping{1});
    return Pong{p.value, 0};
  });
  net->register_node(1,
                     [](NodeId, const Ping& p) { return Pong{p.value, 1}; });
  EXPECT_THROW(net->call(10, 0, Ping{1}), std::logic_error);
}

}  // namespace
}  // namespace acn::net
