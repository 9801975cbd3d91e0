// Wire-codec tests: round-trip fidelity for every message type, edge
// cases, corruption handling, randomized fuzz, and end-to-end coverage by
// running a real cluster with StubConfig::verify_codec enabled; the
// control-plane bodies and the TCP frame header.
#include <gtest/gtest.h>

#include <cstring>
#include <span>

#include "src/dtm/codec.hpp"
#include "src/transport/frame.hpp"
#include "src/transport/wire.hpp"
#include "src/harness/cluster.hpp"
#include "src/workloads/bank.hpp"
#include "src/acn/executor.hpp"

namespace acn::dtm {
namespace {

const ObjectKey kA{3, 77};
const ObjectKey kB{4, 123456789012345ULL};

template <class Payload>
Request req(Payload payload) {
  Request r;
  r.payload = std::move(payload);
  return r;
}

template <class Payload>
Response res(Payload payload) {
  Response r;
  r.payload = std::move(payload);
  return r;
}

TEST(Codec, ReadRequestRoundTrip) {
  const auto original = req(ReadRequest{
      42, kA, {{kB, 7}, {kA, 1}}, {1, 2, 3}});
  EXPECT_EQ(roundtrip(original), original);
}

TEST(Codec, ReadRequestEmptyListsRoundTrip) {
  const auto original = req(ReadRequest{1, kA, {}, {}});
  EXPECT_EQ(roundtrip(original), original);
}

TEST(Codec, ValidateRequestRoundTrip) {
  const auto original = req(ValidateRequest{9, {{kA, 3}}});
  EXPECT_EQ(roundtrip(original), original);
}

TEST(Codec, PrepareRequestRoundTrip) {
  const auto original = req(PrepareRequest{5, {{kA, 2}}, {kA, kB}, 3});
  EXPECT_EQ(roundtrip(original), original);
}

TEST(Codec, PrepareRequestCrossShardMetadataRoundTrips) {
  PrepareRequest prepare{5, {{kA, 2}}, {kA, kB}, 3};
  prepare.participants = {1, 3, 6};
  prepare.coordinator = 42;
  prepare.values = {Record{7, -8}, Record{}};
  const auto original = req(std::move(prepare));
  EXPECT_EQ(roundtrip(original), original);
}

TEST(Codec, DecisionQueryAndReplyRoundTrip) {
  const auto query = req(DecisionQuery{99, 4});
  EXPECT_EQ(roundtrip(query), query);
  for (const auto code : {DecisionCode::kUnknown, DecisionCode::kInDoubt,
                          DecisionCode::kCommitted, DecisionCode::kAborted})
    EXPECT_EQ(roundtrip(res(DecisionReply{code})), res(DecisionReply{code}));
  const auto full = res(DecisionReply{
      DecisionCode::kCommitted, {kA, kB}, {Record{1}, Record{2, 3}}, {8, 9}});
  EXPECT_EQ(roundtrip(full), full);
}

TEST(Codec, CommitRequestRoundTrip) {
  const auto original = req(CommitRequest{
      7, {kA, kB}, {Record{1, -2, 3}, Record{}}, {10, 11}, 2});
  EXPECT_EQ(roundtrip(original), original);
}

TEST(Codec, AbortAndContentionRequestRoundTrip) {
  EXPECT_EQ(roundtrip(req(AbortRequest{3, {kA}})), req(AbortRequest{3, {kA}}));
  EXPECT_EQ(roundtrip(req(ContentionRequest{{5, 6}})),
            req(ContentionRequest{{5, 6}}));
}

TEST(Codec, NegativeFieldsSurvive) {
  const auto original = req(CommitRequest{
      1, {kA}, {Record{-9'000'000'000'000LL, 0, 42}}, {2}});
  EXPECT_EQ(roundtrip(original), original);
}

TEST(Codec, AllResponseKindsRoundTrip) {
  EXPECT_EQ(roundtrip(Response{}), Response{});
  const auto read = res(ReadResponse{
      ReadCode::kInvalid, {Record{1, 2}, 9}, {kA, kB}, {4, 5}});
  EXPECT_EQ(roundtrip(read), read);
  const auto validate = res(ValidateResponse{{kB}, true});
  EXPECT_EQ(roundtrip(validate), validate);
  const auto prepare = res(PrepareResponse{PrepareCode::kBusy, {kA}, {1, 2}});
  EXPECT_EQ(roundtrip(prepare), prepare);
  for (const auto code : {CommitCode::kApplied, CommitCode::kDuplicate,
                          CommitCode::kExpired})
    EXPECT_EQ(roundtrip(res(CommitResponse{code})), res(CommitResponse{code}));
  EXPECT_EQ(roundtrip(res(AbortResponse{})), res(AbortResponse{}));
  const auto contention = res(ContentionResponse{{0, 18'446'744'073ULL}});
  EXPECT_EQ(roundtrip(contention), contention);
}

TEST(Codec, TruncatedBufferThrows) {
  auto bytes = encode(req(ReadRequest{42, kA, {{kB, 7}}, {}}));
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::span<const std::uint8_t> slice(bytes.data(), cut);
    EXPECT_THROW(decode_request(slice), CodecError) << "cut at " << cut;
  }
}

TEST(Codec, TrailingGarbageThrows) {
  auto bytes = encode(req(AbortRequest{1, {}}));
  bytes.push_back(0xff);
  EXPECT_THROW(decode_request(bytes), CodecError);
}

TEST(Codec, UnknownTagThrows) {
  const std::vector<std::uint8_t> bogus{0x7f, 0, 0, 0};
  EXPECT_THROW(decode_request(bogus), CodecError);
  EXPECT_THROW(decode_response(bogus), CodecError);
}

TEST(Codec, CorruptListCountRejected) {
  auto bytes = encode(req(ValidateRequest{1, {{kA, 2}}}));
  // The list count sits right after tag(1) + tx(8): blow it up.
  bytes[9] = 0xff;
  bytes[10] = 0xff;
  EXPECT_THROW(decode_request(bytes), CodecError);
}

TEST(Codec, FuzzRandomRequestsRoundTrip) {
  Rng rng(2024);
  for (int trial = 0; trial < 300; ++trial) {
    Request original;
    const auto kind = rng.uniform(0, 5);
    auto random_key = [&] {
      return ObjectKey{static_cast<ClassId>(rng.uniform(0, 9)),
                       rng.uniform(0, ~0ULL >> 1)};
    };
    auto random_checks = [&] {
      std::vector<VersionCheck> checks(rng.uniform(0, 6));
      for (auto& c : checks) c = {random_key(), rng.uniform(0, 1000)};
      return checks;
    };
    auto random_keys = [&] {
      std::vector<ObjectKey> keys(rng.uniform(0, 6));
      for (auto& k : keys) k = random_key();
      return keys;
    };
    switch (kind) {
      case 0:
        original.payload = ReadRequest{rng.uniform(0, 99), random_key(),
                                       random_checks(), {}};
        break;
      case 1:
        original.payload = ValidateRequest{rng.uniform(0, 99), random_checks()};
        break;
      case 2:
        original.payload =
            PrepareRequest{rng.uniform(0, 99), random_checks(), random_keys(),
                           static_cast<std::uint32_t>(rng.uniform(0, 7))};
        break;
      case 3: {
        CommitRequest commit;
        commit.tx = rng.uniform(0, 99);
        commit.keys = random_keys();
        for (std::size_t i = 0; i < commit.keys.size(); ++i) {
          Record r(rng.uniform(0, 4));
          for (auto& f : r.fields)
            f = static_cast<store::Field>(rng.uniform(0, 1 << 20)) - (1 << 19);
          commit.values.push_back(std::move(r));
          commit.versions.push_back(rng.uniform(0, 1000));
        }
        commit.group = static_cast<std::uint32_t>(rng.uniform(0, 7));
        original.payload = std::move(commit);
        break;
      }
      case 4:
        original.payload = AbortRequest{rng.uniform(0, 99), random_keys()};
        break;
      default: {
        ContentionRequest contention;
        contention.classes.resize(rng.uniform(0, 8));
        for (auto& c : contention.classes)
          c = static_cast<ClassId>(rng.uniform(0, 30));
        original.payload = std::move(contention);
        break;
      }
    }
    EXPECT_EQ(roundtrip(original), original) << "trial " << trial;
  }
}

TEST(Codec, EncodedSizeTracksApproxSize) {
  // approx_size() feeds the latency model; it should be the same order of
  // magnitude as the real encoding.
  const auto request = req(CommitRequest{
      7, {kA, kB}, {Record{1, 2, 3}, Record{4}}, {10, 11}});
  const auto exact = encode(request).size();
  const auto approx = request.approx_size();
  EXPECT_GT(approx, exact / 4);
  EXPECT_LT(approx, exact * 4);
}

TEST(Codec, EndToEndTrafficVerifiesCleanly) {
  // Run a real contended workload with verify_codec on: every RPC's
  // request and response round-trips through the wire format.
  harness::ClusterConfig config;
  config.n_servers = 7;
  config.base_latency = std::chrono::nanoseconds{0};
  config.stub.verify_codec = true;
  harness::Cluster cluster(config);
  workloads::Bank bank({.n_branches = 4, .n_accounts = 16});
  bank.seed(cluster.servers());
  auto stub = cluster.make_stub(0);
  ExecutorConfig exec_config;
  exec_config.backoff_base = std::chrono::nanoseconds{100};
  Executor executor(stub, exec_config, 3);
  Rng rng(3);
  ExecStats stats;
  for (int i = 0; i < 40; ++i) {
    const std::size_t p = workloads::pick_profile(bank.profiles(), rng);
    const auto& profile = bank.profiles()[p];
    executor.run(Protocol::kManualCN,
                 with_blocks(*profile.program, profile.static_model, profile.manual_sequence),
                 profile.make_params(rng, 0), stats);
  }
  EXPECT_EQ(stats.commits, 40u);
  bank.check_invariants(cluster.servers());
}

// Every message type in the protocol — all eight request kinds and all
// nine response kinds (the empty response included) — fuzzed with one
// fixed-seed generator.  This is the corpus the WAL rides on too: a record
// that round-trips on the wire round-trips on disk.
TEST(Codec, FuzzEveryMessageTypeRoundTrips) {
  Rng rng(0xC0DECULL);
  auto random_key = [&] {
    return ObjectKey{static_cast<ClassId>(rng.uniform(0, 9)),
                     rng.uniform(0, ~0ULL >> 1)};
  };
  auto random_keys = [&] {
    std::vector<ObjectKey> keys(rng.uniform(0, 6));
    for (auto& k : keys) k = random_key();
    return keys;
  };
  auto random_checks = [&] {
    std::vector<VersionCheck> checks(rng.uniform(0, 6));
    for (auto& c : checks) c = {random_key(), rng.uniform(0, 1000)};
    return checks;
  };
  auto random_classes = [&] {
    std::vector<ClassId> classes(rng.uniform(0, 8));
    for (auto& c : classes) c = static_cast<ClassId>(rng.uniform(0, 30));
    return classes;
  };
  auto random_record = [&] {
    Record r(rng.uniform(0, 4));
    for (auto& f : r.fields)
      f = static_cast<store::Field>(rng.uniform(0, 1 << 20)) - (1 << 19);
    return r;
  };
  auto random_versioned = [&] {
    return VersionedRecord{random_record(), rng.uniform(0, 1000)};
  };
  auto random_levels = [&] {
    std::vector<std::uint64_t> levels(rng.uniform(0, 8));
    for (auto& l : levels) l = rng.uniform(0, ~0ULL >> 1);
    return levels;
  };
  auto random_read_code = [&] {
    return static_cast<ReadCode>(rng.uniform(0, 3));
  };

  constexpr int kRequestKinds = 8;
  constexpr int kResponseKinds = 9;
  for (int trial = 0; trial < 1000; ++trial) {
    Request request;
    switch (trial % kRequestKinds) {
      case 0:
        request.payload = ReadRequest{rng.uniform(0, 99), random_key(),
                                      random_checks(), random_classes()};
        break;
      case 1:
        request.payload = ValidateRequest{rng.uniform(0, 99), random_checks()};
        break;
      case 2: {
        PrepareRequest prepare{rng.uniform(0, 99), random_checks(),
                               random_keys(),
                               static_cast<std::uint32_t>(rng.uniform(0, 7))};
        // Half the prepares carry cross-shard metadata, half stay plain
        // single-group (defaults must survive too).
        if (rng.uniform(0, 1) == 1) {
          prepare.participants.resize(rng.uniform(2, 5));
          for (auto& p : prepare.participants)
            p = static_cast<std::uint32_t>(rng.uniform(0, 7));
          prepare.coordinator = static_cast<std::int64_t>(rng.uniform(0, 99));
          for (std::size_t i = 0; i < prepare.write_keys.size(); ++i)
            prepare.values.push_back(random_record());
        }
        request.payload = std::move(prepare);
        break;
      }
      case 3: {
        CommitRequest commit;
        commit.tx = rng.uniform(0, 99);
        commit.keys = random_keys();
        for (std::size_t i = 0; i < commit.keys.size(); ++i) {
          commit.values.push_back(random_record());
          commit.versions.push_back(rng.uniform(0, 1000));
        }
        commit.group = static_cast<std::uint32_t>(rng.uniform(0, 7));
        request.payload = std::move(commit);
        break;
      }
      case 4:
        request.payload = AbortRequest{rng.uniform(0, 99), random_keys()};
        break;
      case 5:
        request.payload = ContentionRequest{random_classes()};
        break;
      case 6:
        request.payload = BatchedReadRequest{rng.uniform(0, 99), random_keys(),
                                             random_checks(), random_classes()};
        break;
      default:
        request.payload = DecisionQuery{
            rng.uniform(0, 99), static_cast<std::uint32_t>(rng.uniform(0, 7))};
        break;
    }
    EXPECT_EQ(roundtrip(request), request) << "request trial " << trial;

    Response response;
    switch (trial % kResponseKinds) {
      case 0:
        break;  // std::monostate — the empty response
      case 1:
        response.payload = ReadResponse{random_read_code(), random_versioned(),
                                        random_keys(), random_levels()};
        break;
      case 2:
        response.payload =
            ValidateResponse{random_keys(), rng.uniform(0, 1) == 1};
        break;
      case 3: {
        PrepareResponse prepare;
        prepare.code = static_cast<PrepareCode>(rng.uniform(0, 3));
        prepare.invalid = random_keys();
        prepare.current_versions.resize(rng.uniform(0, 6));
        for (auto& v : prepare.current_versions) v = rng.uniform(0, 1000);
        response.payload = std::move(prepare);
        break;
      }
      case 4:
        response.payload =
            CommitResponse{static_cast<CommitCode>(rng.uniform(0, 2))};
        break;
      case 5:
        response.payload = AbortResponse{};
        break;
      case 6:
        response.payload = ContentionResponse{random_levels()};
        break;
      case 7: {
        BatchedReadResponse batched;
        const std::size_t n = rng.uniform(0, 6);
        batched.codes.resize(n);
        batched.records.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
          batched.codes[i] = random_read_code();
          batched.records[i] = random_versioned();
        }
        batched.invalid = random_keys();
        batched.contention = random_levels();
        response.payload = std::move(batched);
        break;
      }
      default: {
        DecisionReply decision;
        decision.code = static_cast<DecisionCode>(rng.uniform(0, 3));
        decision.keys = random_keys();
        for (std::size_t i = 0; i < decision.keys.size(); ++i) {
          decision.values.push_back(random_record());
          decision.versions.push_back(rng.uniform(0, 1000));
        }
        response.payload = std::move(decision);
        break;
      }
    }
    EXPECT_EQ(roundtrip(response), response) << "response trial " << trial;
  }
}

// ---- control plane (src/transport/wire.hpp) ------------------------------
//
// Sim clusters hand ControlRequests to their ReplicaHosts without encoding
// them, so only these tests and spawned TCP fleets exercise the control
// codec.

transport::ControlRequest full_control_request(transport::ControlOp op) {
  transport::ControlRequest r;
  r.op = op;
  r.entries = {{kA, Record{1, -2}, 3}, {kB, Record{}, 9}};
  r.classes = {3, 4, 70000};
  r.lose_disk = true;
  r.request = req(CommitRequest{77, {kA, kB}, {Record{5}, Record{6, 7}},
                                {2, 8}, 1});
  return r;
}

transport::ControlReply full_control_reply() {
  transport::ControlReply r;
  r.ok = false;
  r.error = "replica said no";
  r.entries = {{kB, Record{-4}, 12}};
  r.levels = {0, 5, UINT64_MAX};
  r.count = 31;
  r.indoubt = {{88, {kA}, {0, 2}, -7}, {89, {}, {}, 4}};
  r.probe = {1, 2, 3, 4, 5};
  r.prepares = {{90, {kA, kB}, {1, 3}, 12, {Record{1}, Record{2}}},
                {91, {kB}, {}, -1, {}}};
  r.response = res(DecisionReply{DecisionCode::kCommitted, {kA}, {Record{8}},
                                 {6}});
  return r;
}

std::vector<std::vector<std::uint8_t>> every_control_body() {
  std::vector<std::vector<std::uint8_t>> bodies;
  for (auto op = static_cast<std::uint8_t>(transport::ControlOp::kPing);
       op <= static_cast<std::uint8_t>(transport::ControlOp::kHandle); ++op)
    bodies.push_back(transport::encode_control(
        full_control_request(static_cast<transport::ControlOp>(op))));
  return bodies;
}

TEST(ControlCodec, EveryOpAndFieldRoundTrips) {
  for (auto op = static_cast<std::uint8_t>(transport::ControlOp::kPing);
       op <= static_cast<std::uint8_t>(transport::ControlOp::kHandle); ++op) {
    const transport::ControlRequest request =
        full_control_request(static_cast<transport::ControlOp>(op));
    EXPECT_EQ(transport::decode_control(transport::encode_control(request)),
              request)
        << "op " << int{op};
  }
  const transport::ControlReply reply = full_control_reply();
  EXPECT_EQ(
      transport::decode_control_reply(transport::encode_control_reply(reply)),
      reply);
  // The defaults round-trip too (a kPing request, an empty ok reply).
  EXPECT_EQ(transport::decode_control(
                transport::encode_control(transport::ControlRequest{})),
            transport::ControlRequest{});
  EXPECT_EQ(transport::decode_control_reply(
                transport::encode_control_reply(transport::ControlReply{})),
            transport::ControlReply{});
}

TEST(ControlCodec, EveryStrictPrefixThrows) {
  for (const auto& body : every_control_body())
    for (std::size_t n = 0; n < body.size(); ++n)
      EXPECT_THROW(transport::decode_control(std::span(body.data(), n)),
                   CodecError)
          << "op " << int{body[0]} << ", prefix " << n;
  const auto reply = transport::encode_control_reply(full_control_reply());
  for (std::size_t n = 0; n < reply.size(); ++n)
    EXPECT_THROW(transport::decode_control_reply(std::span(reply.data(), n)),
                 CodecError)
        << "reply prefix " << n;
}

TEST(ControlCodec, UnknownOpThrows) {
  auto body = transport::encode_control(transport::ControlRequest{});
  body[0] = static_cast<std::uint8_t>(transport::ControlOp::kHandle) + 1;
  EXPECT_THROW(transport::decode_control(body), CodecError);
}

// ---- TCP frame header (length prefix + CRC, src/transport/frame.hpp) -----
//
// The stream reader guards the wire the way parse_segment guards the log:
// every malformed prefix must be rejected without reading past the bytes it
// was handed, and a poisoned stream must never surface another frame.

std::vector<std::uint8_t> frame_bytes(std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> out;
  transport::append_frame(out, payload);
  return out;
}

TEST(Frame, RoundTripsThroughArbitraryChunking) {
  Rng rng(0xF4A3E);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::vector<std::uint8_t>> payloads;
    std::vector<std::uint8_t> stream;
    const int n = static_cast<int>(rng.uniform(1, 6));
    for (int i = 0; i < n; ++i) {
      std::vector<std::uint8_t> payload(rng.uniform(0, 300));
      for (auto& b : payload) b = static_cast<std::uint8_t>(rng.uniform(0, 255));
      transport::append_frame(stream, payload);
      payloads.push_back(std::move(payload));
    }
    transport::FrameReader reader;
    std::vector<std::vector<std::uint8_t>> got;
    std::size_t off = 0;
    while (off < stream.size()) {
      const std::size_t chunk =
          std::min<std::size_t>(rng.uniform(1, 40), stream.size() - off);
      ASSERT_TRUE(reader.feed(std::span(stream).subspan(off, chunk)));
      off += chunk;
      for (auto& p : reader.take()) got.push_back(std::move(p));
    }
    EXPECT_EQ(got, payloads) << "trial " << trial;
    EXPECT_FALSE(reader.poisoned());
  }
}

TEST(Frame, TruncatedFrameSurfacesNothingAndStaysHealthy) {
  const std::vector<std::uint8_t> payload{1, 2, 3, 4, 5};
  const auto framed = frame_bytes(payload);
  // Every proper prefix: incomplete — no frame, no poison, no overread.
  for (std::size_t cut = 0; cut < framed.size(); ++cut) {
    transport::FrameReader reader;
    EXPECT_TRUE(reader.feed(std::span(framed).first(cut)));
    EXPECT_TRUE(reader.take().empty()) << "cut at " << cut;
    EXPECT_FALSE(reader.poisoned());
  }
}

TEST(Frame, CorruptedCrcPoisonsTheStream) {
  const std::vector<std::uint8_t> payload{9, 8, 7, 6};
  auto framed = frame_bytes(payload);
  framed[4] ^= 0x01;  // flip one CRC bit
  // A healthy frame queued behind the corrupt one must never surface.
  transport::append_frame(framed, payload);
  transport::FrameReader reader;
  EXPECT_FALSE(reader.feed(framed));
  EXPECT_TRUE(reader.poisoned());
  EXPECT_EQ(reader.corrupt_frames(), 1u);
  EXPECT_TRUE(reader.take().empty());
  EXPECT_FALSE(reader.feed(frame_bytes(payload)));  // stays dead
  EXPECT_TRUE(reader.take().empty());
}

TEST(Frame, PayloadCorruptionPoisonsTheStream) {
  std::vector<std::uint8_t> payload(64, 0xAB);
  auto framed = frame_bytes(payload);
  framed[8 + 20] ^= 0x40;
  transport::FrameReader reader;
  EXPECT_FALSE(reader.feed(framed));
  EXPECT_TRUE(reader.poisoned());
}

TEST(Frame, OversizedLengthRejectedWithoutReadingPast) {
  // A length prefix beyond the cap must poison immediately — from the
  // header alone, no matter how few payload bytes followed it.
  std::vector<std::uint8_t> header(8, 0);
  const std::uint32_t huge = 0xFFFFFFFFu;
  std::memcpy(header.data(), &huge, sizeof huge);
  transport::FrameReader reader;
  EXPECT_FALSE(reader.feed(header));
  EXPECT_TRUE(reader.poisoned());

  // Just over a small explicit cap: same fate.
  transport::FrameReader capped(/*max_payload=*/16);
  const auto framed = frame_bytes(std::vector<std::uint8_t>(17, 1));
  EXPECT_FALSE(capped.feed(framed));
  EXPECT_TRUE(capped.poisoned());
  // At the cap: fine.
  transport::FrameReader at_cap(/*max_payload=*/16);
  EXPECT_TRUE(at_cap.feed(frame_bytes(std::vector<std::uint8_t>(16, 1))));
  EXPECT_EQ(at_cap.take().size(), 1u);
}

TEST(Frame, FuzzRandomGarbageNeverCrashesOrOverreads) {
  Rng rng(0xBADF00D);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint8_t> garbage(rng.uniform(0, 200));
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng.uniform(0, 255));
    transport::FrameReader reader;
    std::size_t off = 0;
    while (off < garbage.size()) {
      const std::size_t chunk =
          std::min<std::size_t>(rng.uniform(1, 32), garbage.size() - off);
      if (!reader.feed(std::span(garbage).subspan(off, chunk))) break;
      off += chunk;
    }
    // Whatever happened, surfaced frames must individually be well-formed
    // (their length matched and CRC verified) — here just that nothing
    // exploded and the poison flag is consistent with feed's verdict.
    if (reader.poisoned()) EXPECT_EQ(reader.corrupt_frames(), 1u);
  }
}

}  // namespace
}  // namespace acn::dtm
