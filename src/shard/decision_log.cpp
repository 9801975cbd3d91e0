#include "src/shard/decision_log.hpp"

#include <filesystem>
#include <span>

#include "src/dtm/codec.hpp"
#include "src/wal/format.hpp"

namespace acn::shard {
namespace {

// A record's payload on disk: [u64 tx][u8 decision] followed by the entry's
// pushes bytes, each push [u32 length][wire-encoded CommitRequest].
constexpr std::size_t kRecordHeaderBytes = 8 + 1;

std::vector<std::uint8_t> encode_pushes(
    std::vector<dtm::CommitRequest> pushes) {
  std::vector<std::uint8_t> out;
  for (auto& push : pushes) {
    dtm::Request request;
    request.payload = std::move(push);
    const auto bytes = dtm::encode(request);
    dtm::Encoder len;
    len.u32(static_cast<std::uint32_t>(bytes.size()));
    const auto len_bytes = len.take();
    out.insert(out.end(), len_bytes.begin(), len_bytes.end());
    out.insert(out.end(), bytes.begin(), bytes.end());
  }
  out.shrink_to_fit();  // one exact allocation stays with the record
  return out;
}

/// Calls `each(CommitRequest&&)` for every push in `bytes` until it returns
/// true.  Throws dtm::CodecError on a malformed list.
template <class Fn>
void for_each_push(std::span<const std::uint8_t> bytes, Fn&& each) {
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    const std::uint32_t len = dtm::Decoder(bytes.subspan(pos)).u32();
    pos += 4;
    if (len > bytes.size() - pos) throw dtm::CodecError("truncated push");
    auto request = dtm::decode_request(bytes.subspan(pos, len));
    pos += len;
    auto* push = std::get_if<dtm::CommitRequest>(&request.payload);
    if (push == nullptr) throw dtm::CodecError("push is not a commit");
    if (each(std::move(*push))) return;
  }
}

}  // namespace

DecisionLog::DecisionLog(std::string path) : path_(std::move(path)) {
  if (path_.empty()) return;
  std::lock_guard<std::mutex> guard(mutex_);
  replay_locked();
  file_ = std::fopen(path_.c_str(), "ab");
}

DecisionLog::~DecisionLog() {
  if (file_ != nullptr) std::fclose(file_);
}

void DecisionLog::replay_locked() {
  std::FILE* file = std::fopen(path_.c_str(), "rb");
  if (file == nullptr) return;
  std::vector<std::uint8_t> bytes;
  std::uint8_t chunk[4096];
  for (;;) {
    const std::size_t n = std::fread(chunk, 1, sizeof(chunk), file);
    bytes.insert(bytes.end(), chunk, chunk + n);
    if (n < sizeof(chunk)) break;
  }
  std::fclose(file);

  // Same framing rules as WAL segments: a torn or corrupt tail ends the
  // replay (the decision it held was never acknowledged as recorded, so no
  // phase-two message depended on it).
  const wal::SegmentScan scan = wal::parse_segment(bytes);
  // Cut the torn tail off, or records appended after it would be lost to
  // the next replay, which stops at the first bad frame.
  if (scan.torn) std::filesystem::resize_file(path_, scan.valid_bytes);
  for (const auto& record : scan.records) {
    if (record.size() < kRecordHeaderBytes) continue;
    const std::span<const std::uint8_t> pushes =
        std::span<const std::uint8_t>(record).subspan(kRecordHeaderBytes);
    try {
      for_each_push(pushes, [](dtm::CommitRequest&&) { return false; });
    } catch (const dtm::CodecError&) {
      // Skip an undecodable record; the framing CRC already passed, so this
      // only happens across format changes — losing one record degrades to
      // the unreachable-coordinator path, never to a wrong answer.
      continue;
    }
    dtm::Decoder header(record);
    const dtm::TxId tx = header.u64();
    Entry entry;
    entry.decision = static_cast<Decision>(header.u8());
    entry.pushes.assign(pushes.begin(), pushes.end());
    entries_[tx] = std::move(entry);
  }
}

void DecisionLog::append_locked(dtm::TxId tx, const Entry& entry) {
  if (file_ == nullptr) return;
  dtm::Encoder header;
  header.u64(tx);
  header.u8(static_cast<std::uint8_t>(entry.decision));
  std::vector<std::uint8_t> payload = header.take();
  payload.insert(payload.end(), entry.pushes.begin(), entry.pushes.end());
  std::vector<std::uint8_t> framed;
  wal::frame_record(framed, payload);
  std::fwrite(framed.data(), 1, framed.size(), file_);
  std::fflush(file_);
}

std::optional<dtm::CommitRequest> DecisionLog::find_push(const Entry& entry,
                                                         std::uint32_t group) {
  std::optional<dtm::CommitRequest> found;
  for_each_push(entry.pushes, [&](dtm::CommitRequest&& push) {
    if (push.group != group) return false;
    found = std::move(push);
    return true;
  });
  return found;
}

bool DecisionLog::record_commit(dtm::TxId tx,
                                std::vector<dtm::CommitRequest> pushes) {
  std::vector<std::uint8_t> encoded = encode_pushes(std::move(pushes));
  std::lock_guard<std::mutex> guard(mutex_);
  const auto it = entries_.find(tx);
  if (it != entries_.end() && it->second.decision == Decision::kAbort)
    return false;  // sealed: presumed abort was already served or recorded
  Entry& entry = entries_[tx];
  entry.decision = Decision::kCommit;
  entry.pushes = std::move(encoded);
  append_locked(tx, entry);
  return true;
}

void DecisionLog::record_abort(dtm::TxId tx) {
  std::lock_guard<std::mutex> guard(mutex_);
  Entry& entry = entries_[tx];
  // Commit decisions are irrevocable: a late abort record (e.g. cleanup
  // racing a resolver) must not flip an already-announced commit.
  if (entry.decision == Decision::kCommit && !entry.pushes.empty()) return;
  entry.decision = Decision::kAbort;
  entry.pushes = {};
  append_locked(tx, entry);
}

std::optional<Decision> DecisionLog::decision(dtm::TxId tx) const {
  std::lock_guard<std::mutex> guard(mutex_);
  const auto it = entries_.find(tx);
  if (it == entries_.end()) return std::nullopt;
  return it->second.decision;
}

std::optional<dtm::CommitRequest> DecisionLog::push_for(
    dtm::TxId tx, std::uint32_t group) const {
  std::lock_guard<std::mutex> guard(mutex_);
  const auto it = entries_.find(tx);
  if (it == entries_.end() || it->second.decision != Decision::kCommit)
    return std::nullopt;
  return find_push(it->second, group);
}

dtm::DecisionReply DecisionLog::answer(const dtm::DecisionQuery& query) {
  dtm::DecisionReply reply;
  std::lock_guard<std::mutex> guard(mutex_);
  auto it = entries_.find(query.tx);
  if (it == entries_.end()) {
    // Presumed abort, sealed: once "no record" has been served, this
    // transaction can never be decided commit (record_commit refuses).
    Entry sealed;
    sealed.decision = Decision::kAbort;
    append_locked(query.tx, sealed);
    it = entries_.emplace(query.tx, std::move(sealed)).first;
  }
  if (it->second.decision == Decision::kAbort) {
    reply.code = dtm::DecisionCode::kAborted;
    return reply;
  }
  reply.code = dtm::DecisionCode::kCommitted;
  if (auto push = find_push(it->second, query.group)) {
    reply.keys = std::move(push->keys);
    reply.values = std::move(push->values);
    reply.versions = std::move(push->versions);
  }
  return reply;
}

std::size_t DecisionLog::size() const {
  std::lock_guard<std::mutex> guard(mutex_);
  return entries_.size();
}

}  // namespace acn::shard
