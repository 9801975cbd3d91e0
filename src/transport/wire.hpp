// Frame payload envelope and the control-plane message set.
//
// Every TCP frame payload begins with the same envelope:
//
//   [u8 FrameKind][u64 id][body]
//
// Data plane (id = request id, correlates a response with its in-flight
// call):
//   kHello        body: [u8 Channel][i64 sender node id] — first frame on
//                 every connection; tells the server which plane this
//                 connection belongs to.
//   kRequest      body: [i64 from][codec-encoded dtm::Request]
//   kResponse     body: [codec-encoded dtm::Response]
//
// Control plane (id = request id, from the same counter as data calls):
//   kControl      body: encoded ControlRequest
//   kControlReply body: encoded ControlReply
//
// The control plane is the harness's management surface over a replica:
// seeding, store dumps, window rolls, crash / restart / resume, lease
// expiry, in-doubt listing, probes, shutdown, and kHandle, which hands one
// dtm::Request to the replica's Server::handle (a rejoin asks its peers
// for 2PC decisions and finishes a committed prepare this way).
// transport::ReplicaHost answers every op for both transports: sim mode
// passes it these structs in-process, TCP mode encodes them for the host
// inside cluster_main.  Over TCP the control plane rides its own
// connection per peer, served by the same TcpTransport IO thread as the
// data connection — chaos suspends a replica's data plane (connection
// kills + refusing new data hellos) while control keeps answering,
// modelling the out-of-band operator access a real deployment retains into
// a partitioned node.  Control messages use the dtm codec primitives, so
// they inherit its wire discipline (and CodecError on malformed bytes).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/dtm/codec.hpp"
#include "src/dtm/durability.hpp"
#include "src/dtm/server.hpp"

namespace acn::transport {

enum class FrameKind : std::uint8_t {
  kHello = 1,
  kRequest = 2,
  kResponse = 3,
  kControl = 4,
  kControlReply = 5,
};

enum class Channel : std::uint8_t { kData = 0, kControl = 1 };

struct Envelope {
  FrameKind kind;
  std::uint64_t id = 0;
  /// Offset of the kind-specific body within the payload bytes.
  std::size_t body_offset = 0;
};

/// Prepend the envelope to `enc` (call before encoding the body).
void put_envelope(dtm::Encoder& enc, FrameKind kind, std::uint64_t id);

/// Decode the envelope; throws dtm::CodecError on truncation or an unknown
/// kind byte.
Envelope read_envelope(std::span<const std::uint8_t> payload);

// ---- control plane ------------------------------------------------------

enum class ControlOp : std::uint8_t {
  kPing = 1,
  kSeed = 2,          // install entries (version-guarded apply)
  kDump = 3,          // full committed-state snapshot
  kRollWindows = 4,   // roll the contention window
  kClassLevels = 5,   // contention levels for the named classes
  kCrash = 6,         // drop unflushed WAL, optionally wipe disk, suspend
  kRestart = 7,       // reset volatile state, recover from disk; list
                      // the prepares still open
  kResume = 8,        // lift suspension (rejoin the data plane)
  kCheckpoint = 9,    // flush WAL + cut a snapshot
  kExpireLeases = 10, // expire stale prepare leases now
  kIndoubtList = 11,  // cross-shard prepares parked in-doubt
  kProbe = 12,        // cheap replica gauges (leases, protected, ...)
  kShutdown = 13,     // clean process exit
  kHandle = 14,       // one dtm::Request through Server::handle
};

/// One object installed by kSeed / returned by kDump.
struct SeedEntry {
  store::ObjectKey key;
  store::Record value;
  store::Version version = 1;

  friend bool operator==(const SeedEntry&, const SeedEntry&) = default;
};

struct ControlRequest {
  ControlOp op = ControlOp::kPing;
  std::vector<SeedEntry> entries;       // kSeed
  std::vector<store::ClassId> classes;  // kClassLevels
  bool lose_disk = false;               // kCrash
  dtm::Request request;                 // kHandle

  friend bool operator==(const ControlRequest&,
                         const ControlRequest&) = default;
};

/// A replica's cheap gauges, read by kProbe (ReplicaHost fills them for
/// both transports).
struct ReplicaProbe {
  std::uint64_t open_leases = 0;
  std::uint64_t protected_keys = 0;
  std::uint64_t wrong_group = 0;
  std::uint64_t indoubt = 0;
  std::uint64_t open_prepares = 0;

  friend bool operator==(const ReplicaProbe&, const ReplicaProbe&) = default;
};

struct ControlReply {
  bool ok = true;
  std::string error;                    // when !ok
  std::vector<SeedEntry> entries;       // kDump
  std::vector<std::uint64_t> levels;    // kClassLevels
  /// kSeed: keys whose version advanced; kExpireLeases: leases expired.
  std::uint64_t count = 0;
  std::vector<dtm::InDoubtTx> indoubt;  // kIndoubtList
  ReplicaProbe probe;                   // kProbe
  std::vector<dtm::OpenPrepare> prepares;  // kRestart: still open after it
  dtm::Response response;               // kHandle

  friend bool operator==(const ControlReply&, const ControlReply&) = default;
};

/// Body-only encoders (no envelope — combine with make_payload).
std::vector<std::uint8_t> encode_control(const ControlRequest& req);
std::vector<std::uint8_t> encode_control_reply(const ControlReply& reply);
/// Decode the body of a kControl / kControlReply frame (envelope already
/// stripped).  Throw dtm::CodecError on malformed bytes.
ControlRequest decode_control(std::span<const std::uint8_t> body);
ControlReply decode_control_reply(std::span<const std::uint8_t> body);

// ---- payload assembly ---------------------------------------------------

/// envelope(kind, id) + body, ready for frame framing.
std::vector<std::uint8_t> make_payload(FrameKind kind, std::uint64_t id,
                                       std::span<const std::uint8_t> body);

std::vector<std::uint8_t> encode_hello(Channel channel, std::int64_t node);
std::vector<std::uint8_t> encode_request_payload(std::uint64_t id,
                                                 net::NodeId from,
                                                 const dtm::Request& req);

}  // namespace acn::transport
