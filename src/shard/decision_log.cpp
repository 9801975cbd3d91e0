#include "src/shard/decision_log.hpp"

#include <span>

#include "src/dtm/codec.hpp"

namespace acn::shard {
namespace {

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
  // An unknown transaction gets presumed abort, sealed (a default Entry is
  // an abort): once "no record" has been served, it can never be decided
  // commit (record_commit refuses).
  const Entry& entry = entries_.try_emplace(query.tx).first->second;
  if (entry.decision == Decision::kAbort) {
    reply.code = dtm::DecisionCode::kAborted;
    return reply;
  }
  reply.code = dtm::DecisionCode::kCommitted;
  if (auto push = find_push(entry, query.group)) {
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
