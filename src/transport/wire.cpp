#include "src/transport/wire.hpp"

namespace acn::transport {
namespace {

using dtm::CodecError;
using dtm::Decoder;
using dtm::Encoder;

void put_entry(Encoder& enc, const SeedEntry& e) {
  enc.key(e.key);
  enc.record(e.value);
  enc.u64(e.version);
}

SeedEntry read_entry(Decoder& dec) {
  SeedEntry e;
  e.key = dec.key();
  e.value = dec.record();
  e.version = dec.u64();
  return e;
}

// InDoubtTx and OpenPrepare share their leading fields.
template <class Tx>
void put_tx(Encoder& enc, const Tx& t) {
  enc.u64(t.tx);
  enc.list(t.keys, [&](const store::ObjectKey& k) { enc.key(k); });
  enc.list(t.participants, [&](std::uint32_t g) { enc.u32(g); });
  enc.i64(t.coordinator);
}

template <class Tx>
Tx read_tx(Decoder& dec) {
  Tx t;
  t.tx = dec.u64();
  t.keys = dec.list<store::ObjectKey>([&] { return dec.key(); });
  t.participants = dec.list<std::uint32_t>([&] { return dec.u32(); });
  t.coordinator = dec.i64();
  return t;
}

void put_prepare(Encoder& enc, const dtm::OpenPrepare& p) {
  put_tx(enc, p);
  enc.list(p.values, [&](const store::Record& r) { enc.record(r); });
}

dtm::OpenPrepare read_prepare(Decoder& dec) {
  auto p = read_tx<dtm::OpenPrepare>(dec);
  p.values = dec.list<store::Record>([&] { return dec.record(); });
  return p;
}

// Length-prefixed bytes: a nested dtm message's encoding, or a string.
void put_bytes(Encoder& enc, const std::vector<std::uint8_t>& bytes) {
  enc.list(bytes, [&](std::uint8_t b) { enc.u8(b); });
}

std::vector<std::uint8_t> read_bytes(Decoder& dec) {
  return dec.list<std::uint8_t>([&] { return dec.u8(); });
}

ControlOp read_op(Decoder& dec) {
  const std::uint8_t raw = dec.u8();
  if (raw < static_cast<std::uint8_t>(ControlOp::kPing) ||
      raw > static_cast<std::uint8_t>(ControlOp::kHandle))
    throw CodecError("unknown control op");
  return static_cast<ControlOp>(raw);
}

}  // namespace

void put_envelope(Encoder& enc, FrameKind kind, std::uint64_t id) {
  enc.u8(static_cast<std::uint8_t>(kind));
  enc.u64(id);
}

Envelope read_envelope(std::span<const std::uint8_t> payload) {
  Decoder dec(payload);
  Envelope env;
  const std::uint8_t raw = dec.u8();
  if (raw < static_cast<std::uint8_t>(FrameKind::kHello) ||
      raw > static_cast<std::uint8_t>(FrameKind::kControlReply))
    throw CodecError("unknown frame kind");
  env.kind = static_cast<FrameKind>(raw);
  env.id = dec.u64();
  env.body_offset = payload.size() - dec.remaining();
  return env;
}

std::vector<std::uint8_t> encode_control(const ControlRequest& req) {
  Encoder enc;
  enc.u8(static_cast<std::uint8_t>(req.op));
  enc.list(req.entries, [&](const SeedEntry& e) { put_entry(enc, e); });
  enc.list(req.classes, [&](store::ClassId c) { enc.u32(c); });
  enc.boolean(req.lose_disk);
  put_bytes(enc, dtm::encode(req.request));
  return enc.take();
}

ControlRequest decode_control(std::span<const std::uint8_t> body) {
  Decoder dec(body);
  ControlRequest req;
  req.op = read_op(dec);
  req.entries = dec.list<SeedEntry>([&] { return read_entry(dec); });
  req.classes = dec.list<store::ClassId>([&] { return dec.u32(); });
  req.lose_disk = dec.boolean();
  req.request = dtm::decode_request(read_bytes(dec));
  if (!dec.exhausted()) throw CodecError("trailing bytes in control request");
  return req;
}

std::vector<std::uint8_t> encode_control_reply(const ControlReply& reply) {
  Encoder enc;
  enc.boolean(reply.ok);
  put_bytes(enc, {reply.error.begin(), reply.error.end()});
  enc.list(reply.entries, [&](const SeedEntry& e) { put_entry(enc, e); });
  enc.list(reply.levels, [&](std::uint64_t v) { enc.u64(v); });
  enc.u64(reply.count);
  enc.list(reply.indoubt, [&](const dtm::InDoubtTx& t) { put_tx(enc, t); });
  enc.u64(reply.probe.open_leases);
  enc.u64(reply.probe.protected_keys);
  enc.u64(reply.probe.wrong_group);
  enc.u64(reply.probe.indoubt);
  enc.u64(reply.probe.open_prepares);
  enc.list(reply.prepares,
           [&](const dtm::OpenPrepare& p) { put_prepare(enc, p); });
  put_bytes(enc, dtm::encode(reply.response));
  return enc.take();
}

ControlReply decode_control_reply(std::span<const std::uint8_t> body) {
  Decoder dec(body);
  ControlReply reply;
  reply.ok = dec.boolean();
  const auto error = read_bytes(dec);
  reply.error.assign(error.begin(), error.end());
  reply.entries = dec.list<SeedEntry>([&] { return read_entry(dec); });
  reply.levels = dec.list<std::uint64_t>([&] { return dec.u64(); });
  reply.count = dec.u64();
  reply.indoubt =
      dec.list<dtm::InDoubtTx>([&] { return read_tx<dtm::InDoubtTx>(dec); });
  reply.probe.open_leases = dec.u64();
  reply.probe.protected_keys = dec.u64();
  reply.probe.wrong_group = dec.u64();
  reply.probe.indoubt = dec.u64();
  reply.probe.open_prepares = dec.u64();
  reply.prepares =
      dec.list<dtm::OpenPrepare>([&] { return read_prepare(dec); });
  reply.response = dtm::decode_response(read_bytes(dec));
  if (!dec.exhausted()) throw CodecError("trailing bytes in control reply");
  return reply;
}

std::vector<std::uint8_t> make_payload(FrameKind kind, std::uint64_t id,
                                       std::span<const std::uint8_t> body) {
  Encoder enc;
  put_envelope(enc, kind, id);
  std::vector<std::uint8_t> out = enc.take();
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

std::vector<std::uint8_t> encode_hello(Channel channel, std::int64_t node) {
  Encoder enc;
  put_envelope(enc, FrameKind::kHello, 0);
  enc.u8(static_cast<std::uint8_t>(channel));
  enc.i64(node);
  return enc.take();
}

std::vector<std::uint8_t> encode_request_payload(std::uint64_t id,
                                                 net::NodeId from,
                                                 const dtm::Request& req) {
  Encoder enc;
  put_envelope(enc, FrameKind::kRequest, id);
  enc.i64(from);
  std::vector<std::uint8_t> out = enc.take();
  const std::vector<std::uint8_t> body = dtm::encode(req);
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

}  // namespace acn::transport
