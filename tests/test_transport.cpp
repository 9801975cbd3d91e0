// Real-TCP transport tests: loopback request/reply over TcpServer +
// TcpTransport (frame correlation, torn frames, corrupt frames poisoning
// the connection, deadlines surfacing as kDropped, reconnect after a peer
// restart, a control plane that answers under data-plane faults and
// re-dials after a peer restart, client-side chaos knobs, one fault script
// giving the same outcomes on the simulated network), cluster_main's flag
// parser, and the multi-process harness — a spawned cluster_main fleet
// driven through harness::Cluster with TransportMode::kTcp, including
// cross-shard transfers whose final state must match an identically-seeded
// simulated cluster and a rejoin that finishes what its group committed.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "src/acn/footprint.hpp"
#include "src/common/clock.hpp"
#include "src/dtm/abort.hpp"
#include "src/dtm/codec.hpp"
#include "src/harness/cluster.hpp"
#include "src/shard/coordinator.hpp"
#include "src/shard/router.hpp"
#include "src/shard/shard_map.hpp"
#include "src/transport/frame.hpp"
#include "src/transport/replica_host.hpp"
#include "src/transport/tcp_server.hpp"
#include "src/transport/tcp_transport.hpp"
#include "src/transport/wire.hpp"
#include "src/wal/format.hpp"

namespace acn::transport {
namespace {

using namespace std::chrono_literals;
using store::ObjectKey;
using store::Record;

// ---- loopback fixture ---------------------------------------------------

/// A server whose data plane answers ReadRequest{tx} with a ReadResponse
/// carrying record {tx * 10, from} at version tx — enough structure to
/// verify that every response reached the caller that asked for it.
/// `slow_tx` (when nonzero) makes that one transaction sleep `delay`,
/// so deadline tests can stall a single call while the peer stays healthy.
/// A nonzero `port` brings a restarted server back on its old port.
std::unique_ptr<TcpServer> make_echo_server(
    std::chrono::milliseconds delay = 0ms, dtm::TxId slow_tx = 0,
    int port = 0) {
  TcpServerConfig config;
  config.port = port;
  auto on_data = [delay, slow_tx](std::int64_t from,
                                  std::span<const std::uint8_t> body)
      -> std::optional<std::vector<std::uint8_t>> {
    const dtm::Request req = dtm::decode_request(body);
    const auto& read = std::get<dtm::ReadRequest>(req.payload);
    if (delay.count() > 0 && (slow_tx == 0 || read.tx == slow_tx))
      std::this_thread::sleep_for(delay);
    dtm::ReadResponse rr;
    rr.code = dtm::ReadCode::kOk;
    rr.record.value = Record{static_cast<store::Field>(read.tx * 10),
                             static_cast<store::Field>(from)};
    rr.record.version = read.tx;
    dtm::Response res;
    res.payload = rr;
    return dtm::encode(res);
  };
  auto on_control = [](std::span<const std::uint8_t> body) {
    const ControlRequest req = decode_control(body);
    ControlOutcome out;
    out.reply_body = encode_control_reply(ControlReply{});
    if (req.op == ControlOp::kShutdown) out.action = ControlAction::kShutdown;
    return out;
  };
  return std::make_unique<TcpServer>(config, std::move(on_data),
                                     std::move(on_control));
}

dtm::Request read_request(dtm::TxId tx) {
  dtm::Request req;
  req.payload = dtm::ReadRequest{tx, ObjectKey{1, 5}, {}, {}};
  return req;
}

std::unique_ptr<TcpTransport> dial(int port,
                                   std::chrono::milliseconds timeout = 2000ms) {
  TcpTransportConfig config;
  config.call_timeout = timeout;
  return std::make_unique<TcpTransport>(
      std::map<net::NodeId, Endpoint>{{0, Endpoint{"127.0.0.1", port}}},
      config);
}

TEST(TcpLoopback, CallRoundTrips) {
  auto server = make_echo_server();
  auto transport = dial(server->port());
  const auto result = transport->call(/*from=*/100, /*to=*/0, read_request(7));
  ASSERT_TRUE(result.ok());
  const auto& rr = std::get<dtm::ReadResponse>(result.response.payload);
  EXPECT_EQ(rr.record.version, 7u);
  EXPECT_EQ(rr.record.value.fields[0], 70);
  EXPECT_EQ(rr.record.value.fields[1], 100);  // sender id round-tripped
  EXPECT_GT(transport->counters().bytes_sent.load(), 0u);
  EXPECT_GT(transport->counters().bytes_recv.load(), 0u);
}

TEST(TcpLoopback, UnknownPeerIsNodeDown) {
  auto server = make_echo_server();
  auto transport = dial(server->port());
  EXPECT_EQ(transport->call(100, 5, read_request(1)).error,
            net::NetErrorCode::kNodeDown);
}

TEST(TcpLoopback, ConcurrentCallsCorrelateById) {
  // Callers on several threads, responses arriving out of order (the
  // handler sleeps a tx-dependent amount): every response must carry the
  // payload of ITS request — correlation by envelope id, not arrival order.
  auto server = make_echo_server();
  auto transport = dial(server->port(), 5000ms);
  constexpr int kThreads = 4;
  constexpr int kCallsPerThread = 25;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kCallsPerThread; ++i) {
        const dtm::TxId tx = static_cast<dtm::TxId>(t * 1000 + i + 1);
        const auto result = transport->call(100 + t, 0, read_request(tx));
        if (!result.ok()) {
          ++failures;
          continue;
        }
        const auto& rr = std::get<dtm::ReadResponse>(result.response.payload);
        if (rr.record.version != tx ||
            rr.record.value.fields[0] != static_cast<store::Field>(tx * 10))
          ++failures;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(TcpLoopback, MulticallFansOutAcrossPeers) {
  auto a = make_echo_server();
  auto b = make_echo_server();
  TcpTransportConfig config;
  TcpTransport transport({{0, {"127.0.0.1", a->port()}},
                          {1, {"127.0.0.1", b->port()}}},
                         config);
  const auto results = transport.multicall(100, {0, 1}, read_request(3));
  ASSERT_EQ(results.size(), 2u);
  for (const auto& result : results) {
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(std::get<dtm::ReadResponse>(result.response.payload)
                  .record.version,
              3u);
  }
}

TEST(TcpLoopback, MulticallSendsEachTargetItsOwnRequest) {
  auto a = make_echo_server();
  auto b = make_echo_server(/*delay=*/40ms, /*slow_tx=*/7);
  TcpTransportConfig config;
  config.call_timeout = 2000ms;
  TcpTransport transport({{0, {"127.0.0.1", a->port()}},
                          {1, {"127.0.0.1", b->port()}}},
                         config);
  const dtm::Request fast = read_request(3), slow = read_request(7);
  const std::vector<const dtm::Request*> requests{&fast, &slow, &fast};
  const Stopwatch watch;
  const auto results = transport.multicall(100, {0, 1, 0}, requests);
  // The caller waits for the slowest reply, once.
  EXPECT_GE(watch.elapsed_ns(), 40'000'000u);
  ASSERT_EQ(results.size(), 3u);
  const std::vector<store::Version> expected{3, 7, 3};
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << i;
    const auto& rr = std::get<dtm::ReadResponse>(results[i].response.payload);
    EXPECT_EQ(rr.record.version, expected[i]) << i;
    EXPECT_EQ(rr.record.value.fields[1], 100) << i;  // sender round-tripped
  }
}

TEST(TcpLoopback, NodeDownFailsFastAndRecovers) {
  auto server = make_echo_server();
  auto transport = dial(server->port());
  ASSERT_TRUE(transport->call(100, 0, read_request(1)).ok());
  transport->set_node_down(0, true);
  const Stopwatch watch;
  EXPECT_EQ(transport->call(100, 0, read_request(2)).error,
            net::NetErrorCode::kNodeDown);
  // Fail-fast: no socket round-trip, certainly no 2s deadline.
  EXPECT_LT(watch.elapsed_ns(), 500'000'000u);
  transport->set_node_down(0, false);
  EXPECT_TRUE(transport->call(100, 0, read_request(3)).ok());
}

TEST(TcpLoopback, PartitionRefusesCrossGroupCalls) {
  auto server = make_echo_server();
  auto transport = dial(server->port());
  ASSERT_TRUE(transport->call(100, 0, read_request(1)).ok());
  // Client 100 in one group, replica 0 in the other.
  transport->set_partition({{100}, {0}});
  EXPECT_TRUE(transport->partitioned());
  EXPECT_EQ(transport->call(100, 0, read_request(2)).error,
            net::NetErrorCode::kPartitioned);
  transport->clear_partition();
  EXPECT_FALSE(transport->partitioned());
  EXPECT_TRUE(transport->call(100, 0, read_request(3)).ok());
}

TEST(TcpLoopback, DropProbabilityOneDropsEveryCall) {
  auto server = make_echo_server();
  auto transport = dial(server->port());
  transport->set_drop_probability(1.0);
  EXPECT_EQ(transport->call(100, 0, read_request(1)).error,
            net::NetErrorCode::kDropped);
  transport->set_drop_probability(0.0);
  EXPECT_TRUE(transport->call(100, 0, read_request(2)).ok());
}

TEST(TcpLoopback, DeadlineExpiryIsDropped) {
  // tx 1 stalls 1.5s in the handler; the call deadline is 150ms, so the
  // caller sees kDropped — the same shape a sim timeout has, which is what
  // lets QuorumStub's retry ladder run unmodified over TCP.  tx 2 answers
  // promptly on the same connection: the late response for tx 1 must be
  // discarded, not mis-delivered.
  auto server = make_echo_server(1500ms, /*slow_tx=*/1);
  auto transport = dial(server->port(), 150ms);
  const Stopwatch watch;
  EXPECT_EQ(transport->call(100, 0, read_request(1)).error,
            net::NetErrorCode::kDropped);
  EXPECT_LT(watch.elapsed_ns(), 1'200'000'000u);
  const auto result = transport->call(100, 0, read_request(2));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(std::get<dtm::ReadResponse>(result.response.payload)
                .record.version,
            2u);
  // Let the stalled handler finish and its orphaned response arrive; the
  // transport must swallow it (no caller waits on that id any more).
  std::this_thread::sleep_for(1600ms);
  EXPECT_TRUE(transport->call(100, 0, read_request(3)).ok());
}

TEST(TcpLoopback, ReconnectsAfterPeerRestart) {
  auto server = make_echo_server();
  const int port = server->port();
  auto transport = dial(port, 300ms);
  ASSERT_TRUE(transport->call(100, 0, read_request(1)).ok());

  server.reset();  // peer process "dies"
  EXPECT_FALSE(transport->call(100, 0, read_request(2)).ok());

  // Peer comes back on the SAME port (SO_REUSEADDR); the transport must
  // re-dial — through its backoff — without a new instance.
  TcpServerConfig config;
  config.port = port;
  server = std::make_unique<TcpServer>(
      config,
      [](std::int64_t, std::span<const std::uint8_t> body)
          -> std::optional<std::vector<std::uint8_t>> {
        const auto req = dtm::decode_request(body);
        dtm::ReadResponse rr;
        rr.code = dtm::ReadCode::kOk;
        rr.record.version = std::get<dtm::ReadRequest>(req.payload).tx;
        dtm::Response res;
        res.payload = rr;
        return dtm::encode(res);
      },
      [](std::span<const std::uint8_t>) {
        return ControlOutcome{encode_control_reply(ControlReply{}),
                              ControlAction::kNone};
      });

  bool recovered = false;
  const Stopwatch watch;
  while (watch.elapsed_ns() < 10'000'000'000ull) {
    if (transport->call(100, 0, read_request(9)).ok()) {
      recovered = true;
      break;
    }
    std::this_thread::sleep_for(20ms);
  }
  EXPECT_TRUE(recovered);
  EXPECT_GE(transport->counters().reconnects.load(), 1u);
}

// ---- control plane ------------------------------------------------------

TEST(TcpLoopback, ControlAnswersWhileTheDataPlaneIsFaulted) {
  // Control never consults the fault model: the harness manages replicas
  // that the data plane treats as dead.
  auto server = make_echo_server();
  auto transport = dial(server->port());
  ASSERT_TRUE(transport->call(100, 0, read_request(1)).ok());
  struct Fault {
    const char* name;
    std::function<void()> apply;
    std::function<void()> clear;
  };
  const std::vector<Fault> faults = {
      {"node down", [&] { transport->set_node_down(0, true); },
       [&] { transport->set_node_down(0, false); }},
      {"partition", [&] { transport->set_partition({{100}, {0}}); },
       [&] { transport->clear_partition(); }},
      {"drop 1.0", [&] { transport->set_drop_probability(1.0); },
       [&] { transport->set_drop_probability(0.0); }},
  };
  for (const Fault& fault : faults) {
    fault.apply();
    EXPECT_FALSE(transport->call(100, 0, read_request(2)).ok()) << fault.name;
    const auto pong = transport->control(0, ControlRequest{});
    ASSERT_TRUE(pong.has_value()) << fault.name;
    EXPECT_TRUE(pong->ok) << fault.name;
    fault.clear();
    EXPECT_TRUE(transport->call(100, 0, read_request(3)).ok()) << fault.name;
  }
}

TEST(TcpLoopback, ControlRedialsAfterPeerRestart) {
  auto server = make_echo_server();
  const int port = server->port();
  auto transport = dial(port);
  ASSERT_TRUE(transport->control(0, ControlRequest{}).has_value());

  server.reset();  // peer process "dies"
  EXPECT_FALSE(transport->control(0, ControlRequest{}).has_value());

  server = make_echo_server(0ms, 0, port);
  const auto pong = transport->control(0, ControlRequest{});
  ASSERT_TRUE(pong.has_value());
  EXPECT_TRUE(pong->ok);
}

TEST(TcpLoopback, ControlRedialsAfterSilentPeerRestart) {
  // No call between the death and the restart: the cached control
  // connection is stale, and the first call must still get through.
  auto server = make_echo_server();
  const int port = server->port();
  auto transport = dial(port);
  ASSERT_TRUE(transport->control(0, ControlRequest{}).has_value());

  server.reset();
  server = make_echo_server(0ms, 0, port);
  const auto pong = transport->control(0, ControlRequest{});
  ASSERT_TRUE(pong.has_value());
  EXPECT_TRUE(pong->ok);
}

// ---- one fault model, two transports ------------------------------------

/// One call's outcome under a fault: the error the caller saw, and whether
/// the handler ran (which tells a request-leg drop from a reply-leg drop).
struct Outcome {
  net::NetErrorCode error;
  bool handled;
  bool operator==(const Outcome&) const = default;
};

void PrintTo(const Outcome& outcome, std::ostream* os) {
  *os << "{error " << static_cast<int>(outcome.error)
      << (outcome.handled ? ", handled}" : ", not handled}");
}

/// Drive one fault script through `transport`: after each step, caller 100
/// calls node 0, whose handler bumps `handled`.  Every call must also take
/// at least its step's extra latency.
std::vector<Outcome> run_fault_script(dtm::DtmTransport& transport,
                                      const std::atomic<int>& handled) {
  constexpr net::NodeId kCaller = 100;
  struct Step {
    std::function<void()> apply;
    std::chrono::nanoseconds min_elapsed{0};
  };
  const std::vector<Step> script = {
      {[&] { transport.set_node_down(0, true); }},
      {[&] { transport.set_node_down(0, false); }},
      // The caller is unlisted, so it falls into group 0.
      {[&] { transport.set_partition({{}, {0}}); }},
      {[&] { transport.clear_partition(); }},
      {[&] { transport.set_link_fault(kCaller, 0, net::LinkFault{1.0}); }},
      {[&] { transport.clear_link_fault(kCaller, 0); }},
      {[&] { transport.set_link_fault(0, kCaller, net::LinkFault{1.0}); }},
      {[&] { transport.clear_link_faults(); }},
      {[&] { transport.set_drop_probability(1.0); }},
      {[&] { transport.set_drop_probability(0.0); }},
      {[&] {
         transport.set_link_fault(kCaller, 0, net::LinkFault{0.0, 2ms});
       },
       2ms},
  };
  std::vector<Outcome> outcomes;
  for (std::size_t i = 0; i < script.size(); ++i) {
    script[i].apply();
    const int before = handled.load();
    const Stopwatch watch;
    const auto result = transport.call(kCaller, 0, read_request(i + 1));
    EXPECT_GE(watch.elapsed_ns(),
              static_cast<std::uint64_t>(script[i].min_elapsed.count()))
        << "step " << i;
    outcomes.push_back({result.error, handled.load() > before});
  }
  return outcomes;
}

TEST(FaultModel, OneScriptGivesTheSameOutcomesOnSimAndTcp) {
  std::atomic<int> handled{0};
  const auto handler = [&handled](net::NodeId, const dtm::Request& req) {
    handled.fetch_add(1);
    dtm::ReadResponse rr;
    rr.code = dtm::ReadCode::kOk;
    rr.record.version = std::get<dtm::ReadRequest>(req.payload).tx;
    dtm::Response res;
    res.payload = rr;
    return res;
  };

  dtm::DtmNetwork sim;
  sim.register_node(0, handler);
  const std::vector<Outcome> sim_outcomes = run_fault_script(sim, handled);

  TcpServer server(
      TcpServerConfig{},
      [&handler](std::int64_t from, std::span<const std::uint8_t> body)
          -> std::optional<std::vector<std::uint8_t>> {
        return dtm::encode(
            handler(static_cast<net::NodeId>(from), dtm::decode_request(body)));
      },
      [](std::span<const std::uint8_t>) {
        return ControlOutcome{encode_control_reply(ControlReply{}),
                              ControlAction::kNone};
      });
  auto tcp = dial(server.port());
  const std::vector<Outcome> tcp_outcomes = run_fault_script(*tcp, handled);

  using net::NetErrorCode;
  const std::vector<Outcome> expected = {
      {NetErrorCode::kNodeDown, false},     {NetErrorCode::kOk, true},
      {NetErrorCode::kPartitioned, false},  {NetErrorCode::kOk, true},
      {NetErrorCode::kDropped, false},      {NetErrorCode::kOk, true},
      {NetErrorCode::kDropped, true},       {NetErrorCode::kOk, true},
      {NetErrorCode::kDropped, false},      {NetErrorCode::kOk, true},
      {NetErrorCode::kOk, true},
  };
  EXPECT_EQ(sim_outcomes, expected);
  EXPECT_EQ(tcp_outcomes, sim_outcomes);
}

// ---- raw-socket tests: torn and corrupt frames --------------------------

int raw_dial(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  return fd;
}

void write_all(int fd, std::span<const std::uint8_t> bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    ASSERT_GT(n, 0);
    off += static_cast<std::size_t>(n);
  }
}

/// Read until one full frame parses (or the peer closes / 5s passes);
/// returns the frame payload, or nullopt on close.
std::optional<std::vector<std::uint8_t>> read_frame(int fd) {
  FrameReader reader;
  std::uint8_t buf[512];
  const Stopwatch watch;
  while (watch.elapsed_ns() < 5'000'000'000ull) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n <= 0) return std::nullopt;
    if (!reader.feed(std::span(buf, static_cast<std::size_t>(n))))
      return std::nullopt;
    auto frames = reader.take();
    if (!frames.empty()) return std::move(frames.front());
  }
  return std::nullopt;
}

TEST(TcpRawSocket, TornFramesReassembleByteByByte) {
  auto server = make_echo_server();
  const int fd = raw_dial(server->port());

  std::vector<std::uint8_t> stream;
  wal::frame_record(stream, encode_hello(Channel::kData, /*node=*/42));
  wal::frame_record(stream,
                    encode_request_payload(/*id=*/12345, /*from=*/42,
                                           read_request(6)));
  // One byte per write: the server's reader sees maximally torn frames —
  // partial length prefix, partial CRC, partial payload — and must
  // reassemble without ever acting on an incomplete frame.
  for (const std::uint8_t byte : stream)
    write_all(fd, std::span(&byte, 1));

  const auto payload = read_frame(fd);
  ASSERT_TRUE(payload.has_value());
  const Envelope env = read_envelope(*payload);
  EXPECT_EQ(env.kind, FrameKind::kResponse);
  EXPECT_EQ(env.id, 12345u);
  const dtm::Response res =
      dtm::decode_response(std::span(*payload).subspan(env.body_offset));
  EXPECT_EQ(std::get<dtm::ReadResponse>(res.payload).record.version, 6u);
  ::close(fd);
}

TEST(TcpRawSocket, CorruptFramePoisonsTheConnection) {
  auto server = make_echo_server();
  const int fd = raw_dial(server->port());

  std::vector<std::uint8_t> stream;
  wal::frame_record(stream, encode_hello(Channel::kData, 42));
  const std::size_t request_start = stream.size();
  wal::frame_record(stream, encode_request_payload(1, 42, read_request(6)));
  stream[request_start + 8] ^= 0x01;  // corrupt the request payload
  write_all(fd, stream);

  // The server must drop the connection (poisoned stream), not answer.
  EXPECT_FALSE(read_frame(fd).has_value());
  EXPECT_GE(server->counters().frames_corrupt.load(), 1u);
  ::close(fd);

  // The listener itself is unharmed: a clean connection still works.
  const int fd2 = raw_dial(server->port());
  std::vector<std::uint8_t> clean;
  wal::frame_record(clean, encode_hello(Channel::kData, 43));
  wal::frame_record(clean, encode_request_payload(2, 43, read_request(8)));
  write_all(fd2, clean);
  EXPECT_TRUE(read_frame(fd2).has_value());
  ::close(fd2);
}

/// Read frames from `fd` until `count` have arrived or the peer closes.
std::vector<std::vector<std::uint8_t>> read_frames(int fd, std::size_t count) {
  FrameReader reader;
  std::vector<std::vector<std::uint8_t>> frames;
  std::uint8_t buf[512];
  while (frames.size() < count) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n <= 0 || !reader.feed(std::span(buf, static_cast<std::size_t>(n))))
      break;
    for (auto& frame : reader.take()) frames.push_back(std::move(frame));
  }
  return frames;
}

TEST(TcpRawSocket, ControlCallIsResentOnceOnAFreshConnection) {
  // A scripted replica reads each control connection's hello and request.
  // It hangs up without replying on the first `hangups` connections and
  // answers on the next.  One hang-up costs a re-send on a fresh
  // connection; a second one fails the call, with no third connection.
  for (const int hangups : {1, 2}) {
    const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    socklen_t len = sizeof addr;
    ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), len), 0);
    ASSERT_EQ(::listen(listener, 4), 0);
    ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len);
    std::thread replica([listener, hangups] {
      for (int conn = 1; conn <= 2; ++conn) {
        const int fd = ::accept(listener, nullptr, nullptr);
        if (fd < 0) return;  // the test shut the listener down
        const auto frames = read_frames(fd, 2);
        if (conn > hangups && frames.size() == 2) {
          std::vector<std::uint8_t> reply;
          wal::frame_record(
              reply, make_payload(FrameKind::kControlReply,
                                  read_envelope(frames[1]).id,
                                  encode_control_reply(ControlReply{})));
          write_all(fd, reply);
        }
        ::close(fd);
      }
    });
    auto transport = dial(ntohs(addr.sin_port));
    const auto reply = transport->control(0, ControlRequest{});
    EXPECT_EQ(reply.has_value(), hangups == 1) << hangups << " hang-ups";
    ::fcntl(listener, F_SETFL, O_NONBLOCK);
    EXPECT_LT(::accept(listener, nullptr, nullptr), 0) << "a third connection";
    ::shutdown(listener, SHUT_RDWR);  // ends an accept() still waiting
    replica.join();
    ::close(listener);
  }
}

// ---- cluster_main's command line ----------------------------------------
//
// Out-of-range values are only ever parsed here, never handed to a real
// cluster_main: cast to an unsigned count, --workers=-1 asks for SIZE_MAX
// threads.

/// The parse error for `args` (a valid --node is prepended), or "" when
/// they parse.
std::string parse_error(std::vector<std::string> args) {
  args.insert(args.begin(), "--node=1");
  std::string error;
  return parse_replica_flags(args, error) ? "" : error;
}

TEST(ReplicaFlags, ArgsRoundTripThroughTheParser) {
  ReplicaFlags flags;
  flags.replica = {7, 3, 5'000'000, 1'000'000, true,
                   {"data/node-7", -1, 4096, false}};
  flags.host = "10.0.0.7";
  flags.port = 7007;
  flags.workers = 4;
  std::string error;
  const auto parsed = parse_replica_flags(replica_args(flags), error);
  ASSERT_TRUE(parsed) << error;
  EXPECT_EQ(parsed->replica, flags.replica);
  EXPECT_EQ(parsed->host, flags.host);
  EXPECT_EQ(parsed->port, flags.port);
  EXPECT_EQ(parsed->workers, flags.workers);
}

TEST(ReplicaFlags, DefaultsNeedOnlyANode) {
  std::string error;
  const auto parsed = parse_replica_flags({"--node=4"}, error);
  ASSERT_TRUE(parsed) << error;
  EXPECT_EQ(parsed->replica.node, 4);
  EXPECT_FALSE(parsed->replica.durable);
  EXPECT_EQ(parsed->replica.wal.dir, "acn-data/node-4");
  EXPECT_EQ(parsed->workers, 2u);
  EXPECT_FALSE(parse_replica_flags({}, error));
  EXPECT_EQ(error, "--node is required");
}

TEST(ReplicaFlags, NodeOutOfRangeIsRejected) {
  std::string error;
  EXPECT_FALSE(parse_replica_flags({"--node=-1"}, error));
  EXPECT_NE(error.find("--node"), std::string::npos) << error;
  EXPECT_FALSE(parse_replica_flags({"--node=2147483648"}, error));
}

TEST(ReplicaFlags, GroupOutOfRangeIsRejected) {
  EXPECT_NE(parse_error({"--group=-1"}).find("--group"), std::string::npos);
  EXPECT_NE(parse_error({"--group=4294967296"}), "");
  EXPECT_EQ(parse_error({"--group=4294967295"}), "");
}

TEST(ReplicaFlags, PortOutOfRangeIsRejected) {
  EXPECT_NE(parse_error({"--port=-1"}).find("--port"), std::string::npos);
  EXPECT_NE(parse_error({"--port=65536"}), "");
  EXPECT_EQ(parse_error({"--port=65535"}), "");
}

TEST(ReplicaFlags, WorkersOutOfRangeIsRejected) {
  EXPECT_NE(parse_error({"--workers=-1"}).find("--workers"),
            std::string::npos);
  EXPECT_NE(parse_error({"--workers=0"}), "");
  const std::string max = std::to_string(kMaxReplicaWorkers);
  EXPECT_EQ(parse_error({"--workers=" + max}), "");
  EXPECT_NE(parse_error({"--workers=" + max + "0"}), "");
}

TEST(ReplicaFlags, NegativeSnapshotBytesIsRejected) {
  EXPECT_NE(parse_error({"--snapshot-bytes=-1"}).find("--snapshot-bytes"),
            std::string::npos);
  EXPECT_EQ(parse_error({"--snapshot-bytes=0"}), "");
}

TEST(ReplicaFlags, NegativeWindowIsRejected) {
  EXPECT_NE(parse_error({"--window-ns=-1"}).find("--window-ns"),
            std::string::npos);
}

TEST(ReplicaFlags, LeaseAndFlushAcceptNegativesButNotGarbage) {
  // <= 0 disables lease expiry; < 0 flushes the WAL only explicitly.
  EXPECT_EQ(parse_error({"--lease-ns=-1", "--flush-ns=-1"}), "");
  EXPECT_NE(parse_error({"--lease-ns=1ms"}).find("--lease-ns"),
            std::string::npos);
  EXPECT_NE(parse_error({"--flush-ns="}).find("--flush-ns"),
            std::string::npos);
}

TEST(ReplicaFlags, BadDurabilityAndUnknownFlagsAreRejected) {
  EXPECT_EQ(parse_error({"--durability=disk"}),
            "--durability must be none|wal");
  EXPECT_EQ(parse_error({"--nodes=2"}), "unknown flag: --nodes=2");
}

// ---- multi-process cluster (spawned cluster_main fleet) -----------------

shard::ShardMap range_map(std::uint32_t n_shards) {
  shard::ShardMapConfig config;
  config.n_shards = n_shards;
  config.partitioning = shard::Partitioning::kRange;
  config.range_block = 100;
  return shard::ShardMap(config);
}

KeyFootprint write_footprint(std::vector<ObjectKey> keys) {
  std::sort(keys.begin(), keys.end());
  KeyFootprint footprint;
  for (const auto& key : keys) footprint.push_back({key, true});
  return footprint;
}

harness::ClusterConfig fleet_config(std::size_t per_group, std::size_t groups,
                                    const char* log_dir) {
  harness::ClusterConfig config;
  config.n_servers = per_group;
  config.n_groups = groups;
  config.base_latency = std::chrono::nanoseconds{0};
  config.transport_mode = harness::TransportMode::kTcp;
  config.tcp.log_dir = log_dir;
  config.tcp.call_timeout = std::chrono::milliseconds(2000);
  config.stub.max_quorum_retries = 16;  // re-select around crashed replicas
  return config;
}

/// Move one unit src -> dst through the coordinator, retrying aborts.
void transfer(shard::CrossShardCoordinator& coordinator, const ObjectKey& src,
              const ObjectKey& dst) {
  for (int attempt = 0; attempt < 50; ++attempt) {
    try {
      shard::ShardTx tx = coordinator.begin(write_footprint({src, dst}));
      const Record s = tx.read(src);
      const Record d = tx.read(dst);
      tx.write(src, Record{s.fields[0] - 1});
      tx.write(dst, Record{d.fields[0] + 1});
      tx.commit();
      return;
    } catch (const dtm::TxAbort&) {
    }
  }
  FAIL() << "transfer never committed";
}

/// The same deterministic seed + transfer script against either transport.
void run_transfer_script(harness::Cluster& cluster, const shard::ShardMap& map) {
  for (std::uint64_t id = 0; id < 20; ++id) {
    seed_sharded(cluster, map, ObjectKey{1, id}, Record{100});
    seed_sharded(cluster, map, ObjectKey{1, 100 + id}, Record{100});
  }
  cluster.flush_seeds();
  shard::ShardRouter router(map);
  shard::CrossShardCoordinator coordinator(cluster, router, /*ordinal=*/0);
  for (std::uint64_t i = 0; i < 30; ++i) {
    // Mix of same-shard and cross-shard transfers, fixed pattern.
    const ObjectKey src{1, i % 20};
    const ObjectKey dst{1, i % 3 == 0 ? (i * 7) % 20 : 100 + (i * 7) % 20};
    if (src == dst) continue;
    transfer(coordinator, src, dst);
  }
  EXPECT_GT(coordinator.stats().cross_shard_commits.load(), 0u);
  EXPECT_EQ(coordinator.stats().atomicity_breaches.load(), 0u);
}

/// Every key's latest committed value across the cluster (max version wins).
std::map<ObjectKey, store::Field> committed_state(harness::Cluster& cluster) {
  std::map<ObjectKey, store::VersionedRecord> latest;
  for (std::size_t i = 0; i < cluster.size(); ++i)
    for (const auto& [key, record] : cluster.store_snapshot(i)) {
      auto [it, inserted] = latest.try_emplace(key, record);
      if (!inserted && record.version > it->second.version)
        it->second = record;
    }
  std::map<ObjectKey, store::Field> values;
  for (const auto& [key, record] : latest)
    values[key] = record.value.fields.empty() ? 0 : record.value.fields[0];
  return values;
}

TEST(ClusterTcp, TwoProcessTransfersMatchSim) {
  const shard::ShardMap map = range_map(2);
  // One replica per group keeps this a genuine two-OS-process cluster.
  harness::ClusterConfig tcp_config =
      fleet_config(/*per_group=*/1, /*groups=*/2, "transport-test-logs");
  harness::Cluster tcp_cluster(tcp_config);
  ASSERT_TRUE(tcp_cluster.remote());
  ASSERT_NE(tcp_cluster.tcp_transport(), nullptr);
  run_transfer_script(tcp_cluster, map);

  harness::ClusterConfig sim_config = tcp_config;
  sim_config.transport_mode = harness::TransportMode::kSim;
  harness::Cluster sim_cluster(sim_config);
  run_transfer_script(sim_cluster, map);

  // Same seeds, same transfer script, no faults: the multi-process fleet
  // must land on exactly the state the deterministic simulation computes.
  const auto tcp_state = committed_state(tcp_cluster);
  const auto sim_state = committed_state(sim_cluster);
  EXPECT_EQ(tcp_state, sim_state);
  ASSERT_FALSE(tcp_state.empty());
  store::Field total = 0;
  for (const auto& [key, value] : tcp_state) total += value;
  EXPECT_EQ(total, static_cast<store::Field>(tcp_state.size()) * 100);

  // Real socket traffic flowed and the fleet shuts down cleanly.
  EXPECT_GT(tcp_cluster.transport().counters().bytes_sent.load(), 0u);
  EXPECT_TRUE(tcp_cluster.shutdown_fleet());
}

TEST(ClusterTcp, ControlPlaneProbesAndMirrorsReplicas) {
  harness::Cluster cluster(
      fleet_config(/*per_group=*/1, /*groups=*/1, "transport-test-logs"));
  cluster.seed_object(ObjectKey{1, 1}, Record{11});
  cluster.seed_object(ObjectKey{1, 2}, Record{22});
  cluster.flush_seeds();

  // Control plane answers a ping and a dump for a process we never wrote
  // to through the data plane.
  ASSERT_NE(cluster.tcp_transport(), nullptr);
  const auto pong = cluster.tcp_transport()->control(0, ControlRequest{});
  ASSERT_TRUE(pong.has_value());
  EXPECT_TRUE(pong->ok);
  const auto snapshot = cluster.store_snapshot(0);
  EXPECT_EQ(snapshot.size(), 2u);

  // mirror() reconstructs the remote state as in-process servers — the
  // surface workload invariant checks run against.
  const harness::StateMirror mirror = cluster.mirror();
  ASSERT_EQ(mirror.servers.size(), 1u);
  EXPECT_EQ(mirror.servers[0]->store().read(ObjectKey{1, 1}).record.value,
            Record{11});
  EXPECT_TRUE(cluster.shutdown_fleet());
}

TEST(ClusterTcp, RemoteCrashRestartCatchesUpFromPeers) {
  // Four replica processes, one group (root + 3 children: the write quorum
  // — root plus 2 of 3 children — survives one leaf crash; a 3-node tree's
  // write quorum is all three nodes, so nothing could commit).  Crash a
  // leaf, keep committing on the surviving quorum, then rejoin it — the
  // restart path must ship the missed writes over the control plane and
  // lift the suspension.
  const shard::ShardMap map = range_map(1);
  harness::Cluster cluster(
      fleet_config(/*per_group=*/4, /*groups=*/1, "transport-test-logs"));
  for (std::uint64_t id = 0; id < 8; ++id)
    seed_sharded(cluster, map, ObjectKey{1, id}, Record{100});
  cluster.flush_seeds();

  shard::ShardRouter router(map);
  shard::CrossShardCoordinator coordinator(cluster, router, 0);
  transfer(coordinator, ObjectKey{1, 0}, ObjectKey{1, 1});

  cluster.crash_node(3);
  // Committed while node 3 is down: it must miss these versions.
  transfer(coordinator, ObjectKey{1, 2}, ObjectKey{1, 3});
  transfer(coordinator, ObjectKey{1, 4}, ObjectKey{1, 5});

  const std::size_t caught_up =
      cluster.restart_node(3, harness::CatchUpScope::kAllReplicas);
  EXPECT_GT(caught_up, 0u);

  // Node 3's store now matches the max-version state the survivors hold.
  // (A single replica's snapshot can legitimately trail on keys its
  // quorums skipped, so compare against the cluster-wide latest.)
  std::map<ObjectKey, store::VersionedRecord> latest;
  for (std::size_t i = 0; i < 3; ++i)
    for (const auto& [key, record] : cluster.store_snapshot(i)) {
      auto [it, inserted] = latest.try_emplace(key, record);
      if (!inserted && record.version > it->second.version)
        it->second = record;
    }
  std::map<ObjectKey, store::VersionedRecord> rejoined;
  for (const auto& [key, record] : cluster.store_snapshot(3))
    rejoined[key] = record;
  for (const auto& [key, record] : latest) {
    ASSERT_TRUE(rejoined.count(key)) << to_string(key);
    EXPECT_EQ(rejoined[key].value, record.value) << to_string(key);
    EXPECT_EQ(rejoined[key].version, record.version) << to_string(key);
  }
  // And it serves traffic again.
  transfer(coordinator, ObjectKey{1, 6}, ObjectKey{1, 7});
  EXPECT_TRUE(cluster.shutdown_fleet());
}

TEST(ClusterTcp, RejoinFinishesAPrepareItsGroupCommittedWhileItWasDown) {
  // The TCP twin of the sim Recovery test: four replica processes and no
  // prepare lease, so nothing expires on its own.
  harness::Cluster cluster(
      fleet_config(/*per_group=*/4, /*groups=*/1, "transport-test-logs"));
  const ObjectKey key{1, 7};
  cluster.seed_object(key, Record{0});
  cluster.flush_seeds();

  // Every replica prepares; node 3 crashes before phase two reaches it.
  const auto client = static_cast<net::NodeId>(cluster.size());
  const dtm::TxId tx = 77;
  dtm::Request request;
  request.payload = dtm::PrepareRequest{tx, {}, {key}};
  for (net::NodeId i = 0; i < 4; ++i)
    ASSERT_TRUE(cluster.transport().call(client, i, request).ok());
  cluster.crash_node(3);
  request.payload = dtm::CommitRequest{tx, {key}, {Record{5}}, {2}};
  for (net::NodeId i = 0; i < 3; ++i)
    ASSERT_TRUE(cluster.transport().call(client, i, request).ok());
  EXPECT_EQ(cluster.probe_replica(3).open_prepares, 1u);

  cluster.restart_node(3);
  const ReplicaProbe probe = cluster.probe_replica(3);
  EXPECT_EQ(probe.open_leases, 0u);
  EXPECT_EQ(probe.protected_keys, 0u);
  EXPECT_EQ(probe.open_prepares, 0u);
  const auto snapshot = cluster.store_snapshot(3);
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].second.value, Record{5});
  EXPECT_EQ(snapshot[0].second.version, 2u);
  // The coordinator's late replay is acknowledged as a duplicate.
  const auto replay = cluster.transport().call(client, 3, request);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(std::get<dtm::CommitResponse>(replay.response.payload).code,
            dtm::CommitCode::kDuplicate);
  EXPECT_TRUE(cluster.shutdown_fleet());
}

}  // namespace
}  // namespace acn::transport
