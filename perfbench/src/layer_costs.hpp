// Per-call cost of single layers' public entry points, measured in
// isolation (no network delay, one thread).  Splits the client CPU the
// zero-latency workload reports into its parts.
#pragma once

#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Runs each micro-measurement for about `budget_ms` and returns the table
/// (median of several rounds per entry).
std::vector<Metric> layer_costs(int budget_ms);

}  // namespace perfbench
