// Windowed write-contention tracking (the paper's Dynamic Module input,
// Section V-C2).
//
// Quorum servers count committed write operations per object.  Time is
// divided into windows; the contention level of an object is the number of
// writes it received in the *last completed* window, so levels are stable
// within a window and refresh when the window rolls.  Levels are reported
// per object class, which is the granularity at which ACN's Algorithm
// Module reasons (a UnitBlock is associated with the class of the remote
// object it opens — individual keys vary per transaction execution).  The
// class level is the write count of the *hottest object* of the class, not
// the class total: a class with many mildly-written objects (TPC-C stock)
// must not outrank a genuine hot spot (TPC-C district).
//
// The per-object counts live in the objects' VersionedStore entries, each
// tagged with the window it counts in (VersionedStore::apply_counted).
// The tracker is the window clock plus the per-class maxima: a commit asks
// it for the current window, counts its keys in the store, and hands it
// each class's highest count (note()).
#pragma once

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/store/key.hpp"

namespace acn::store {

class ContentionTracker {
 public:
  /// `window_ns` == 0 disables time-based rolling; call roll() manually
  /// (tests and deterministic harness ticks do this).  A negative width is
  /// a config error (std::invalid_argument): it would silently behave like
  /// manual mode while the caller believes windows are rolling.
  explicit ContentionTracker(std::int64_t window_ns = 0);

  /// The window a write at `now_ns` counts in, after rolling if `now_ns`
  /// passed the boundary.  Windows are numbered from 1, so a store entry
  /// that never counted a write (window 0) is in none of them.
  std::uint32_t window(std::uint64_t now_ns);

  /// An object of class `cls` reached `writes` writes in `window` (its
  /// count in the store entry): raise that window's class maximum.  A
  /// count for the window that just completed still lands in it (its
  /// writer read the window before the roll); an older one is dropped.
  void note(std::uint32_t window, ClassId cls, std::uint32_t writes);

  /// Roll the window if `now_ns` passed the boundary (no-op otherwise).
  void maybe_roll(std::uint64_t now_ns);

  /// Force a window roll: the current maxima become the reported levels
  /// and counting restarts at zero in the next window.
  void roll();

  /// Forget every class maximum, for a replica whose store (and so every
  /// per-object count) was just cleared.  The window clock keeps running.
  void reset();

  /// Last-window writes on the hottest object of class `cls`.
  std::uint64_t class_level(ClassId cls) const;

  /// Batch lookup used to answer piggybacked contention queries.
  std::vector<std::uint64_t> class_levels(const std::vector<ClassId>& classes) const;

 private:
  void maybe_roll_locked(std::uint64_t now_ns);
  void roll_locked();

  mutable std::mutex mutex_;
  std::int64_t window_ns_;
  std::uint64_t window_start_ns_ = 0;
  std::uint32_t window_ = 1;
  std::unordered_map<ClassId, std::uint64_t> current_by_class_;
  std::unordered_map<ClassId, std::uint64_t> last_by_class_;
};

}  // namespace acn::store
