#include "src/sched/scheduler.hpp"

#include <algorithm>

#include "src/common/clock.hpp"

namespace acn::sched {

const char* policy_name(SchedulerPolicy policy) noexcept {
  switch (policy) {
    case SchedulerPolicy::kNone:
      return "none";
    case SchedulerPolicy::kBoth:
      return "both";
  }
  return "?";
}

std::optional<SchedulerPolicy> parse_policy(std::string_view text) noexcept {
  if (text == "none") return SchedulerPolicy::kNone;
  if (text == "both") return SchedulerPolicy::kBoth;
  return std::nullopt;
}

TxScheduler::TxScheduler(SchedulerConfig config, std::size_t n_clients,
                         std::uint64_t seed, obs::Observability* obs)
    : config_(config), obs_(obs) {
  sessions_.reserve(n_clients);
  for (std::size_t i = 0; i < n_clients; ++i) {
    auto session = std::make_unique<Session>();
    session->owner_ = this;
    session->rng_.reseed(seed * 0x9e3779b97f4a7c15ULL + i + 1);
    session->window_ = std::clamp(config_.initial_window, config_.min_window,
                                  config_.max_window);
    sessions_.push_back(std::move(session));
  }
}

// ---------------------------------------------------------------------------
// Admission (AIMD window)

void TxScheduler::admission_wait(Session& session) {
  const Stopwatch watch;
  const auto aging_ns =
      static_cast<std::uint64_t>(config_.aging_budget.count());
  std::unique_lock lock(admit_mutex_);
  if (static_cast<double>(active_) < session.window_) {
    ++active_;
    if (obs_) obs_->sched_admit_immediate.add();
    return;
  }
  if (obs_) obs_->sched_admit_waits.add();
  bool aged = false;
  for (int attempt = 0;; ++attempt) {
    // Paced re-checks: woken by finish()'s notify, or by the RetryPolicy
    // delay — whichever first — so a missed notify can only cost one
    // pacing step, never a hang.
    admit_cv_.wait_for(lock, config_.wait.delay(attempt, session.rng_));
    if (static_cast<double>(active_) < session.window_) break;
    if (watch.elapsed_ns() >= aging_ns) {
      aged = true;  // anti-starvation: the window loses after aging_budget
      break;
    }
  }
  ++active_;
  if (obs_) {
    if (aged) obs_->sched_admit_aged.add();
    obs_->sched_admit_wait_ns.observe(watch.elapsed_ns());
  }
}

void TxScheduler::admission_update(Session& session, TxOutcome outcome) {
  std::lock_guard lock(admit_mutex_);
  switch (outcome) {
    case TxOutcome::kCommitted:
      session.window_ = std::min(config_.max_window,
                                 session.window_ + config_.additive_increase);
      break;
    case TxOutcome::kLeaseExpired:
      // A whole 2PC died to lease reclamation: back off twice as hard.
      session.window_ *= config_.multiplicative_decrease;
      [[fallthrough]];
    case TxOutcome::kValidation:
    case TxOutcome::kBusy:
    case TxOutcome::kUnavailable:
      session.window_ = std::max(
          config_.min_window, session.window_ * config_.multiplicative_decrease);
      break;
  }
  if (obs_)
    obs_->sched_admit_window.set(
        static_cast<std::int64_t>(session.window_ * 1000.0));
}

// ---------------------------------------------------------------------------
// Hot-key table

void TxScheduler::blame_keys(const std::vector<ir::ObjectKey>& conflict) {
  if (conflict.empty()) return;
  std::lock_guard lock(hot_mutex_);
  for (const auto& key : conflict) {
    auto it = scores_.find(key);
    if (it == scores_.end()) {
      if (scores_.size() >= config_.max_tracked_keys) continue;  // table full
      it = scores_.try_emplace(key, 0.0).first;
    }
    it->second += 1.0;
  }
}

void TxScheduler::note_class_levels(const std::vector<ir::ClassId>& classes,
                                    const std::vector<std::uint64_t>& levels) {
  std::lock_guard lock(hot_mutex_);
  hot_classes_.clear();
  // A stale or misaligned snapshot (fewer levels than classes, or classes
  // from an older plan) degrades the refinement, never the correctness:
  // iterate the common prefix only.
  const std::size_t n = std::min(classes.size(), levels.size());
  for (std::size_t i = 0; i < n; ++i)
    if (config_.class_hot_level > 0 && levels[i] >= config_.class_hot_level)
      hot_classes_.insert(classes[i]);
}

bool TxScheduler::hot_locked(const ir::ObjectKey& key) const {
  if (config_.class_hot_level > 0 && hot_classes_.contains(key.cls)) return true;
  const auto it = scores_.find(key);
  return it != scores_.end() && it->second >= config_.hot_score;
}

void TxScheduler::tick() {
  std::lock_guard lock(hot_mutex_);
  std::size_t hot_now = 0;
  for (auto it = scores_.begin(); it != scores_.end();) {
    it->second *= config_.decay;
    const bool hot = hot_locked(it->first);
    if (hot) ++hot_now;
    // Evict keys that cooled off completely, freeing their slots for new
    // blame.
    if (!hot && it->second < 0.25)
      it = scores_.erase(it);
    else
      ++it;
  }
  if (obs_) obs_->sched_hot_keys.set(static_cast<std::int64_t>(hot_now));
}

bool TxScheduler::is_hot(const ir::ObjectKey& key) const {
  std::lock_guard lock(hot_mutex_);
  return hot_locked(key);
}

std::vector<ir::ObjectKey> TxScheduler::hot_keys() const {
  std::lock_guard lock(hot_mutex_);
  std::vector<ir::ObjectKey> keys;
  for (const auto& entry : scores_)
    if (hot_locked(entry.first)) keys.push_back(entry.first);
  std::sort(keys.begin(), keys.end());
  return keys;
}

bool TxScheduler::any_hot(const KeyFootprint& footprint) const {
  std::lock_guard lock(hot_mutex_);
  return std::any_of(
      footprint.begin(), footprint.end(),
      [&](const FootprintEntry& entry) { return hot_locked(entry.key); });
}

std::size_t TxScheduler::active() const noexcept {
  std::lock_guard lock(admit_mutex_);
  return active_;
}

// ---------------------------------------------------------------------------
// Session (the executor-facing gate)

void TxScheduler::Session::admit(const KeyFootprint& footprint) {
  if (owner_ == nullptr || active_) return;
  if (owner_->config_.policy == SchedulerPolicy::kNone) return;
  // Only contended transactions take an admission slot; cold traffic flows
  // freely (it neither causes nor suffers the hot-key races the window
  // exists to dampen).
  gated_ = owner_->any_hot(footprint);
  if (gated_) owner_->admission_wait(*this);
  active_ = true;
}

void TxScheduler::Session::on_full_abort(
    TxOutcome kind, const std::vector<ir::ObjectKey>& conflict) {
  if (owner_ == nullptr || !active_) return;
  owner_->admission_update(*this, kind);
  owner_->blame_keys(conflict);
}

void TxScheduler::Session::finish(TxOutcome outcome) {
  if (owner_ == nullptr || !active_) return;
  // Aborted runs already shrank the window in on_full_abort; only clean
  // commits grow it here (the additive half of AIMD).
  if (outcome == TxOutcome::kCommitted) owner_->admission_update(*this, outcome);
  if (gated_) {
    {
      std::lock_guard lock(owner_->admit_mutex_);
      --owner_->active_;
    }
    owner_->admit_cv_.notify_all();
  }
  active_ = false;
  gated_ = false;
}

}  // namespace acn::sched
