#include "src/queue/executor.hpp"

#include <algorithm>
#include <utility>

namespace acn::queue {

SpecBackend::SpecBackend(Workspace& workspace, const KeyFootprint& planned)
    : workspace_(workspace), planned_(planned) {}

bool SpecBackend::planned(const ir::ObjectKey& key) const {
  const auto it = std::lower_bound(
      planned_.begin(), planned_.end(), key,
      [](const FootprintEntry& entry, const ir::ObjectKey& k) {
        return entry.key < k;
      });
  return it != planned_.end() && it->key == key;
}

ir::Record SpecBackend::read(const ir::ObjectKey& key) {
  if (!planned(key)) throw MispredictedAccess{key};
  if (const auto it = writes_.find(key); it != writes_.end())
    return it->second;
  std::lock_guard<std::mutex> lock(workspace_.mutex);
  if (const auto it = workspace_.written.find(key);
      it != workspace_.written.end()) {
    ++spec_reads_;
    return it->second;
  }
  if (workspace_.absent.count(key) != 0) throw MispredictedAccess{key};
  const auto it = workspace_.cache.find(key);
  // Planned keys are prefetched exhaustively, so a cache miss means the
  // planner never saw this batch — treat it as a misprediction rather than
  // guessing at cluster state.
  if (it == workspace_.cache.end()) throw MispredictedAccess{key};
  cluster_reads_.emplace(key, it->second);
  return it->second.value;
}

void SpecBackend::write(const ir::ObjectKey& key, ir::Record value) {
  // An unplanned write would race a concurrent entry outside the queues'
  // ordering guarantee; demote instead of installing nondeterminism.
  if (!planned(key)) throw MispredictedAccess{key};
  writes_[key] = std::move(value);
}

void SpecBackend::insert(const ir::ObjectKey& key, ir::Record value) {
  // The epoch commit validates read checks only, never write versions, so
  // a buffered write with no prior read IS a blind insert.
  write(key, std::move(value));
}

void SpecBackend::publish() {
  std::lock_guard<std::mutex> lock(workspace_.mutex);
  for (auto& [key, value] : writes_)
    workspace_.written[key] = std::move(value);
  // emplace: the first reader's version stands (later readers of the same
  // key saw the identical prefetched version — the cache is immutable for
  // the epoch).
  for (const auto& [key, record] : cluster_reads_)
    workspace_.reads_used.emplace(key, record);
}

EntryOutcome run_entry(const ir::TxProgram& program,
                       const std::vector<ir::Record>& params,
                       const KeyFootprint& planned, Workspace& workspace) {
  EntryOutcome out;
  SpecBackend backend(workspace, planned);
  ir::TxEnv env(backend, program, params);
  try {
    for (const ir::Op& op : program.ops) {
      ++out.ops;
      env.execute(op);
    }
  } catch (const MispredictedAccess& miss) {
    out.mispredicted = miss.key;
    return out;
  }
  backend.publish();
  out.spec_reads = backend.spec_reads();
  out.committed = true;
  return out;
}

}  // namespace acn::queue
