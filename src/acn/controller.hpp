// Adaptive controller: owns the published Plan for one transaction program
// and refreshes it from the Dynamic Module on a period (the paper runs this
// every 10 seconds; the harness ticks it once per measurement interval).
//
// Readers (client threads about to execute a transaction) grab the current
// plan as an immutable shared_ptr; adapt() swaps atomically, so in-flight
// transactions finish under the plan they started with, full restarts
// included, and the next transaction picks up the new composition.
#pragma once

#include <memory>
#include <mutex>

#include "src/acn/algorithm_module.hpp"
#include "src/acn/monitor.hpp"

namespace acn {

class AdaptiveController {
 public:
  AdaptiveController(const ir::TxProgram& program, AlgorithmConfig config,
                     std::shared_ptr<const ContentionModel> model);

  /// Current published plan (never null).
  std::shared_ptr<const Plan> plan() const;

  /// Recompute from the given windowed write counts and publish.
  void adapt(const RawLevels& raw);

  /// Convenience: refresh `monitor` through `stub`, then adapt.
  void adapt_from(ContentionMonitor& monitor, dtm::QuorumStub& stub);

  /// Object classes this program touches (what the monitor should track).
  std::vector<ir::ClassId> touched_classes() const;

  const AlgorithmModule& algorithm() const noexcept { return algorithm_; }

  /// Algorithm Module invocations (every periodic tick).
  std::uint64_t adaptations() const noexcept { return adaptations_; }
  /// Ticks whose recomputed composition actually differed and was
  /// published (the workload genuinely shifted).
  std::uint64_t recompositions() const noexcept { return recompositions_; }

  /// When set, every adapt() tick bumps acn.adaptations and each published
  /// re-plan emits an "acn.replan" trace event with the old -> new block
  /// counts plus the acn.recompositions counter.
  void set_obs(obs::Observability* obs) noexcept { obs_ = obs; }

 private:
  AlgorithmModule algorithm_;
  mutable std::mutex mutex_;
  std::shared_ptr<const Plan> plan_;
  std::uint64_t adaptations_ = 0;
  std::uint64_t recompositions_ = 0;
  obs::Observability* obs_ = nullptr;
};

/// Structural equality of two plans' executable layout: same blocks, in the
/// same order, running the same program ops.  (Unit numbering may differ
/// between recomputations; op indices are the stable identity.)
bool same_composition(const Plan& a, const Plan& b);

}  // namespace acn
