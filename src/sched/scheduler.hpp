// Contention-aware transaction scheduler: hot-key conflict queues and
// AIMD admission control (the queue-oriented transaction-processing idea —
// Qadah's queue-oriented paradigm — applied in front of QR-DTM's optimistic
// runtime).
//
// The optimistic stack underneath is correct but wasteful under sustained
// hot-key load: transactions whose footprints collide burn quorum
// round-trips discovering at validation/commit time that they lost a race
// they were always going to lose.  The scheduler uses two client-local
// levers to spend those round-trips on transactions that can win:
//
//   * Conflict queues (policy kQueue): every transaction declares its
//     predicted key footprint (acn::predicted_footprint — static analysis
//     over the TxProgram's UnitGraph read-write sets).  Footprint keys that
//     are currently *hot* — their class level in the dynamic monitor's
//     contention snapshot crossed class_hot_level, or the key itself
//     accumulated abort blame (every TxAbort names its invalidated keys) —
//     are serialized through per-key FIFO ticket queues.  Tickets are
//     acquired in canonical (ascending key) order, so two transactions can
//     never hold-and-wait in opposite orders: no deadlock by construction.
//     A per-key wait budget bounds the damage of a stalled ticket holder
//     (e.g. one stuck behind a partition): on expiry the waiter abandons
//     its tickets and falls back to plain optimistic execution.  FIFO
//     service means no starvation among queuers.
//
//   * Admission control (policy kAdmit): each client keeps an AIMD window
//     W in [min_window, max_window] — its private estimate of how many
//     transactions the contended keyspace can run concurrently.  A client
//     starts a transaction only while the global count of in-flight
//     scheduled transactions is below its own W; clean commits grow W
//     additively, full aborts (and, harder, lease-expired commits) shrink
//     it multiplicatively.  This replaces randomized exponential backoff as
//     the *first* line of defense: backoff reacts per-incident after the
//     round-trips are spent, the window remembers overload across
//     transactions and stops the race before it reaches the network.
//     min_window >= 1 guarantees progress (an idle system admits anyone);
//     an aging budget force-admits any waiter the window gated for too
//     long, so no client starves behind luckier peers.
//
// kBoth composes the two: admission caps how many transactions run,
// queues order the survivors that still collide.
//
// One TxScheduler is shared by every client thread of a run; each thread
// talks to it through its own Session, which implements acn::SchedulerGate
// (the executor-facing interface; src/acn/footprint.hpp explains the
// layering inversion).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/acn/footprint.hpp"
#include "src/common/retry_policy.hpp"
#include "src/obs/obs.hpp"

namespace acn::sched {

enum class SchedulerPolicy {
  kNone,   // scheduler disabled (the pre-scheduler behavior)
  kQueue,  // hot-key conflict queues only
  kAdmit,  // AIMD admission window only
  kBoth,   // admission first, then queues
};

const char* policy_name(SchedulerPolicy policy) noexcept;
/// Parse "none" | "queue" | "admit" | "both"; nullopt on anything else.
std::optional<SchedulerPolicy> parse_policy(std::string_view text) noexcept;

struct SchedulerConfig {
  SchedulerPolicy policy = SchedulerPolicy::kNone;

  // -- hot-key detection ---------------------------------------------------
  /// A key whose abort-blame EWMA reaches this is serialized.  Blame is +1
  /// per appearance in a TxAbort's invalid list, decayed by `decay` per
  /// scheduler tick (one harness interval).
  double hot_score = 3.0;
  double decay = 0.5;
  /// A class at/above this level in the contention snapshot marks every
  /// footprint key of that class hot (the monitor refinement; 0 disables).
  std::uint64_t class_hot_level = 48;
  /// Tracked-key cap; coldest idle entries are evicted beyond it.
  std::size_t max_tracked_keys = 4096;

  // -- conflict queues -----------------------------------------------------
  /// Per-key ticket wait budget before abandoning the queue position and
  /// running optimistically.
  std::chrono::nanoseconds queue_wait_budget{std::chrono::milliseconds{10}};
  /// Concurrent holders a hot-key queue admits (its service window).  1 is
  /// strict serialization; 2-3 keeps commit rounds pipelined while still
  /// capping the per-key racer count far below the client count.
  int queue_width = 3;
  /// Serialize only transactions that *write* the hot key.  Readers race
  /// optimistically — writer-writer races are what burn the abort budget.
  bool queue_writes_only = true;

  // -- AIMD admission window -----------------------------------------------
  /// Per-client window W: the client starts a transaction only while the
  /// global in-flight count is below its own W.  min_window must stay a few
  /// transactions wide — a client at W=k unblocks when in-flight drops
  /// below k, so k ~ 1 would demand a near-idle system and stall the
  /// client until aging rescues it.  min_window >= 1 still guarantees
  /// progress on an idle system.
  double initial_window = 16.0;
  double min_window = 4.0;
  double max_window = 64.0;
  /// Window growth per clean commit (additive increase).
  double additive_increase = 1.0;
  /// Window factor on a full abort (multiplicative decrease, applied per
  /// aborted attempt); a lease-expired commit applies it twice.
  double multiplicative_decrease = 0.9;
  /// A waiter gated longer than this is admitted regardless (anti-
  /// starvation aging).
  std::chrono::nanoseconds aging_budget{std::chrono::milliseconds{5}};
  /// Paces the admission re-check sleeps while gated (RetryPolicy reuse:
  /// same doubling-plus-jitter shape as the stub's busy ladder, bounded by
  /// the aging budget).
  RetryPolicy wait{.max_retries = 1 << 20,
                   .base = std::chrono::microseconds{50},
                   .max_doublings = 5,
                   .jitter = 1.0};
};

class TxScheduler {
  struct KeyQueue;

 public:
  /// `n_clients` sessions are created up front; `seed` decorrelates the
  /// sessions' pacing jitter.  `obs` may be null (metrics off).
  TxScheduler(SchedulerConfig config, std::size_t n_clients,
              std::uint64_t seed = 1, obs::Observability* obs = nullptr);
  ~TxScheduler();

  TxScheduler(const TxScheduler&) = delete;
  TxScheduler& operator=(const TxScheduler&) = delete;

  /// One client thread's gate.  Sessions are owned by the scheduler and
  /// live as long as it does; session i must only be used by one thread at
  /// a time.
  class Session final : public acn::SchedulerGate {
   public:
    void admit(const KeyFootprint& footprint) override;
    void on_full_abort(TxOutcome kind,
                       const std::vector<ir::ObjectKey>& conflict) override;
    void finish(TxOutcome outcome) override;
    /// The shared scheduler's hotness view — what routes a transaction to
    /// the deterministic lane in hybrid execution mode.
    bool any_hot(const KeyFootprint& footprint) const override {
      return owner_->any_hot(footprint);
    }

    /// Current AIMD window (tests / diagnostics).
    double window() const noexcept { return window_; }

   private:
    friend class TxScheduler;
    TxScheduler* owner_ = nullptr;
    std::size_t index_ = 0;
    Rng rng_{1};
    double window_ = 1.0;          // AIMD state, touched under owner mutex
    bool active_ = false;          // between admit() and finish()
    bool gated_ = false;           // holds an admission slot (hot footprint)
    std::vector<KeyQueue*> held_;  // tickets, in acquisition order
    std::vector<std::uint64_t> tickets_;
  };

  Session& session(std::size_t client) { return *sessions_.at(client); }
  std::size_t sessions() const noexcept { return sessions_.size(); }

  /// Contention-snapshot refinement: classes at/above class_hot_level make
  /// their footprint keys queue-eligible until the next call.  Aligned
  /// vectors, same contract as the dynamic monitor's observe().
  void note_class_levels(const std::vector<ir::ClassId>& classes,
                         const std::vector<std::uint64_t>& levels);

  /// Interval boundary: decay abort-blame scores and evict cold idle keys.
  void tick();

  /// Whether `key` would currently be serialized (tests / diagnostics).
  bool is_hot(const ir::ObjectKey& key) const;
  /// Every *tracked* key that is currently hot (score at/above hot_score,
  /// or its class marked hot by the contention snapshot).  Keys of a hot
  /// class the scheduler never saw blamed are not tracked and so not
  /// listed.  Feeds per-group hotness reporting in the sharded harness:
  /// bucket the result by shard::ShardMap::shard_of to see which quorum
  /// group the contention lives on.
  std::vector<ir::ObjectKey> hot_keys() const;
  /// Whether any footprint entry is currently hot (admission applies only
  /// to such transactions; cold traffic is never gated).
  bool any_hot(const KeyFootprint& footprint) const;
  /// In-flight scheduled transactions (admitted, not finished).
  std::size_t active() const noexcept;

  const SchedulerConfig& config() const noexcept { return config_; }

 private:
  /// Per-hot-key FIFO ticket queue with a bounded service window: tickets
  /// *start* in FIFO order, up to queue_width of them run concurrently.
  /// Stable address (unique_ptr in the map); never destroyed while a waiter
  /// or holder references it, which tick() guarantees by only evicting idle
  /// queues.
  struct KeyQueue {
    std::mutex mutex;
    std::condition_variable cv;
    std::uint64_t next = 0;      // next ticket to hand out
    std::uint64_t dispatch = 0;  // next ticket allowed to start
    int holders = 0;             // tickets currently in the service window
    /// Tickets whose waiters gave up (wait budget); dispatch skips them.
    std::unordered_set<std::uint64_t> abandoned;
    std::size_t waiters = 0;
    /// Handed-out references (incremented under the scheduler's hot_mutex_,
    /// decremented when the holder is done); tick() only evicts at zero.
    /// A user decrements only after it has unlocked `mutex`, with release
    /// order, and tick() loads with acquire: a zero it reads is then
    /// ordered after every write of every former user, so destroying the
    /// queue races with none of them.
    std::atomic<int> users{0};
  };

  struct HotEntry {
    double score = 0.0;
    std::unique_ptr<KeyQueue> queue;
  };

  void admission_wait(Session& session);
  void admission_update(Session& session, TxOutcome outcome);
  void acquire_queues(Session& session, const KeyFootprint& footprint);
  void release_queues(Session& session);
  void blame_keys(const std::vector<ir::ObjectKey>& conflict);
  /// Advance `dispatch` past abandoned tickets; call with queue.mutex held.
  static void advance_locked(KeyQueue& queue);

  const SchedulerConfig config_;
  obs::Observability* const obs_;

  // Admission state: the global in-flight count plus per-session windows
  // (windows live in the sessions, guarded by admit_mutex_).
  mutable std::mutex admit_mutex_;
  std::condition_variable admit_cv_;
  std::size_t active_ = 0;

  // Hot-key table: abort-blame scores, class-hot flags, ticket queues.
  mutable std::mutex hot_mutex_;
  std::unordered_map<ir::ObjectKey, HotEntry, store::ObjectKeyHash> hot_;
  std::unordered_set<ir::ClassId> hot_classes_;

  std::vector<std::unique_ptr<Session>> sessions_;
};

}  // namespace acn::sched
