#include "src/store/contention_tracker.hpp"

#include <algorithm>
#include <stdexcept>

namespace acn::store {

ContentionTracker::ContentionTracker(std::int64_t window_ns)
    : window_ns_(window_ns) {
  if (window_ns < 0)
    throw std::invalid_argument(
        "ContentionTracker: negative window width (use 0 for manual rolling)");
}

std::uint32_t ContentionTracker::window(std::uint64_t now_ns) {
  std::lock_guard lock(mutex_);
  maybe_roll_locked(now_ns);
  return window_;
}

void ContentionTracker::note(std::uint32_t window, ClassId cls,
                             std::uint32_t writes) {
  if (writes == 0) return;
  std::lock_guard lock(mutex_);
  std::uint64_t* class_max = nullptr;
  if (window == window_)
    class_max = &current_by_class_[cls];
  else if (window + 1 == window_)
    class_max = &last_by_class_[cls];
  else
    return;
  *class_max = std::max<std::uint64_t>(*class_max, writes);
}

void ContentionTracker::maybe_roll(std::uint64_t now_ns) {
  std::lock_guard lock(mutex_);
  maybe_roll_locked(now_ns);
}

void ContentionTracker::maybe_roll_locked(std::uint64_t now_ns) {
  if (window_ns_ <= 0) return;
  if (window_start_ns_ == 0) window_start_ns_ = now_ns;
  if (now_ns - window_start_ns_ >= static_cast<std::uint64_t>(window_ns_)) {
    roll_locked();
    window_start_ns_ = now_ns;
  }
}

void ContentionTracker::roll() {
  std::lock_guard lock(mutex_);
  roll_locked();
}

void ContentionTracker::roll_locked() {
  ++window_;
  last_by_class_ = std::move(current_by_class_);
  current_by_class_.clear();
}

void ContentionTracker::reset() {
  std::lock_guard lock(mutex_);
  current_by_class_.clear();
  last_by_class_.clear();
}

std::uint64_t ContentionTracker::class_level(ClassId cls) const {
  std::lock_guard lock(mutex_);
  const auto it = last_by_class_.find(cls);
  return it == last_by_class_.end() ? 0 : it->second;
}

std::vector<std::uint64_t> ContentionTracker::class_levels(
    const std::vector<ClassId>& classes) const {
  std::lock_guard lock(mutex_);
  std::vector<std::uint64_t> out;
  out.reserve(classes.size());
  for (ClassId cls : classes) {
    const auto it = last_by_class_.find(cls);
    out.push_back(it == last_by_class_.end() ? 0 : it->second);
  }
  return out;
}

}  // namespace acn::store
