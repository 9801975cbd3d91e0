// Observability subsystem tests: histogram bucket math, per-thread shard
// merging, snapshot deltas, JSON well-formedness, the tracer under a
// multi-threaded hammer, and the end-to-end abort-reason counters the
// paper's Figure 4 discussion leans on (partial aborts under closed
// nesting, none under flat).
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <string>
#include <thread>
#include <vector>

#include "src/harness/driver.hpp"
#include "src/obs/obs.hpp"
#include "src/shard/client.hpp"
#include "src/workloads/bank.hpp"

namespace acn::obs {
namespace {

// ---------------------------------------------------------------------------
// A minimal JSON syntax checker (no external deps): validates that `text`
// is one complete JSON value.  Good enough to catch unbalanced braces,
// unescaped quotes, and trailing commas in our exporters.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  bool value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '\\') {
        pos_ += 2;
        continue;
      }
      if (c == '"') {
        ++pos_;
        return true;
      }
      ++pos_;
    }
    return false;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    return pos_ > start;
  }
  bool literal(const char* word) {
    const std::size_t n = std::string(word).size();
    if (text_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }
  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

bool json_valid(const std::string& text) { return JsonChecker(text).valid(); }

std::size_t count_occurrences(const std::string& haystack,
                              const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + needle.size()))
    ++n;
  return n;
}

// ---------------------------------------------------------------------------
// Metrics registry

TEST(Metrics, CounterAccumulates) {
  MetricsRegistry registry;
  auto c = registry.counter("tx.commit");
  c.add();
  c.add(41);
  const auto snap = registry.snapshot();
  EXPECT_EQ(snap.counter("tx.commit"), 42u);
  EXPECT_EQ(snap.counter("missing"), 0u);
}

TEST(Metrics, SameNameSameCell) {
  MetricsRegistry registry;
  auto a = registry.counter("dup");
  auto b = registry.counter("dup");
  a.add(1);
  b.add(2);
  EXPECT_EQ(registry.snapshot().counter("dup"), 3u);
}

TEST(Metrics, KindMismatchThrows) {
  MetricsRegistry registry;
  registry.counter("x");
  EXPECT_THROW(registry.gauge("x"), std::logic_error);
  EXPECT_THROW(registry.histogram("x", {1, 2}), std::logic_error);
}

TEST(Metrics, GaugeSetAndAdd) {
  MetricsRegistry registry;
  auto g = registry.gauge("plan.blocks");
  g.set(7);
  EXPECT_EQ(registry.snapshot().gauge("plan.blocks"), 7);
  g.add(-3);
  EXPECT_EQ(registry.snapshot().gauge("plan.blocks"), 4);
}

TEST(Metrics, HistogramBucketMath) {
  MetricsRegistry registry;
  auto h = registry.histogram("lat", {10, 100, 1000});
  // One per bucket: <=10, <=100, <=1000, overflow.
  h.observe(10);
  h.observe(11);
  h.observe(1000);
  h.observe(5000);
  const auto snap = registry.snapshot();
  const HistogramData* data = snap.histogram("lat");
  ASSERT_NE(data, nullptr);
  ASSERT_EQ(data->counts.size(), 4u);
  EXPECT_EQ(data->counts[0], 1u);
  EXPECT_EQ(data->counts[1], 1u);
  EXPECT_EQ(data->counts[2], 1u);
  EXPECT_EQ(data->counts[3], 1u);
  EXPECT_EQ(data->count(), 4u);
  EXPECT_EQ(data->sum, 10u + 11u + 1000u + 5000u);
  EXPECT_DOUBLE_EQ(data->mean(), (10.0 + 11 + 1000 + 5000) / 4.0);
}

TEST(Metrics, HistogramPercentiles) {
  MetricsRegistry registry;
  auto h = registry.histogram("p", {10, 100, 1000});
  for (int i = 0; i < 90; ++i) h.observe(5);     // bucket <=10
  for (int i = 0; i < 9; ++i) h.observe(50);     // bucket <=100
  h.observe(999);                                // bucket <=1000
  const auto snap = registry.snapshot();
  const HistogramData* data = snap.histogram("p");
  ASSERT_NE(data, nullptr);
  EXPECT_EQ(data->percentile(0.5), 10u);
  EXPECT_EQ(data->percentile(0.95), 100u);
  EXPECT_EQ(data->percentile(1.0), 1000u);
}

TEST(Metrics, HistogramOverflowReportsLastBound) {
  MetricsRegistry registry;
  auto h = registry.histogram("o", {10, 100});
  h.observe(100000);
  const auto snap = registry.snapshot();
  const HistogramData* data = snap.histogram("o");
  ASSERT_NE(data, nullptr);
  EXPECT_EQ(data->percentile(0.5), 100u);  // clamped to last finite bound
}

TEST(Metrics, EmptyHistogramPercentileIsZero) {
  HistogramData data;
  data.bounds = {10, 100};
  data.counts = {0, 0, 0};
  EXPECT_EQ(data.percentile(0.5), 0u);
  EXPECT_DOUBLE_EQ(data.mean(), 0.0);
}

TEST(Metrics, ExponentialBounds) {
  const auto bounds = MetricsRegistry::exponential_bounds(100, 2.0, 4);
  ASSERT_EQ(bounds.size(), 4u);
  EXPECT_EQ(bounds[0], 100u);
  EXPECT_EQ(bounds[1], 200u);
  EXPECT_EQ(bounds[2], 400u);
  EXPECT_EQ(bounds[3], 800u);
}

TEST(Metrics, ShardsMergeAcrossThreads) {
  MetricsRegistry registry;
  auto c = registry.counter("hits");
  auto h = registry.histogram("vals", {10, 100});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        c.add();
        h.observe(static_cast<std::uint64_t>(i % 2 ? 5 : 50));
      }
    });
  for (auto& thread : threads) thread.join();
  const auto snap = registry.snapshot();
  EXPECT_EQ(snap.counter("hits"),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  const HistogramData* data = snap.histogram("vals");
  ASSERT_NE(data, nullptr);
  EXPECT_EQ(data->count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(data->counts[0], data->counts[1]);
}

TEST(Metrics, DisabledRegistryRecordsNothing) {
  MetricsRegistry registry;
  auto c = registry.counter("c");
  registry.set_enabled(false);
  c.add(100);
  EXPECT_EQ(registry.snapshot().counter("c"), 0u);
  registry.set_enabled(true);
  c.add(1);
  EXPECT_EQ(registry.snapshot().counter("c"), 1u);
}

TEST(Metrics, DefaultConstructedHandlesAreNoops) {
  MetricsRegistry::Counter c;
  MetricsRegistry::Gauge g;
  MetricsRegistry::Histogram h;
  c.add();      // must not crash
  g.set(1);
  h.observe(1);
}

TEST(Metrics, TlsCacheSurvivesRegistryRecreation) {
  // Same thread, registry destroyed and a new one created (possibly at the
  // same address): the thread-local shard cache must not serve stale state.
  {
    MetricsRegistry first;
    first.counter("n").add(5);
    EXPECT_EQ(first.snapshot().counter("n"), 5u);
  }
  MetricsRegistry second;
  auto c = second.counter("n");
  c.add(1);
  EXPECT_EQ(second.snapshot().counter("n"), 1u);
}

TEST(Metrics, SnapshotSinceSubtracts) {
  MetricsRegistry registry;
  auto c = registry.counter("c");
  auto h = registry.histogram("h", {10});
  c.add(10);
  h.observe(5);
  const auto before = registry.snapshot();
  c.add(7);
  h.observe(5);
  h.observe(50);
  const auto delta = registry.snapshot().since(before);
  EXPECT_EQ(delta.counter("c"), 7u);
  const HistogramData* data = delta.histogram("h");
  ASSERT_NE(data, nullptr);
  EXPECT_EQ(data->count(), 2u);
  EXPECT_EQ(data->counts[0], 1u);
  EXPECT_EQ(data->counts[1], 1u);
}

TEST(Metrics, SnapshotJsonAndCsvWellFormed) {
  MetricsRegistry registry;
  registry.counter("tx.commit").add(3);
  registry.gauge("plan.blocks").set(2);
  auto h = registry.histogram("lat", {10, 100});
  h.observe(5);
  h.observe(500);
  const auto snap = registry.snapshot();
  const std::string json = snap.to_json();
  EXPECT_TRUE(json_valid(json)) << json;
  EXPECT_NE(json.find("\"tx.commit\""), std::string::npos);
  const std::string csv = snap.to_csv();
  EXPECT_NE(csv.find("name,kind,stat,value"), std::string::npos);
  EXPECT_NE(csv.find("tx.commit,counter,value,3"), std::string::npos);
}

TEST(Metrics, CellBudgetExhaustionThrows) {
  MetricsRegistry registry(/*max_cells=*/4);
  registry.counter("a");
  registry.counter("b");
  registry.counter("c");
  registry.counter("d");
  EXPECT_THROW(registry.counter("e"), std::length_error);
}

// ---------------------------------------------------------------------------
// Tracer

TEST(Trace, SpanBalancesBeginEnd) {
  Tracer tracer;
  {
    Tracer::Span span(&tracer, "tx", "tx", 1, "attempt", 0);
    tracer.instant("abort.partial", "abort", 1);
  }
  const auto threads = tracer.events();
  ASSERT_EQ(threads.size(), 1u);
  const auto& events = threads[0].events;
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].phase, TraceEvent::Phase::kBegin);
  EXPECT_EQ(events[1].phase, TraceEvent::Phase::kInstant);
  EXPECT_EQ(events[2].phase, TraceEvent::Phase::kEnd);
}

TEST(Trace, DisabledTracerRecordsNothing) {
  Tracer tracer;
  tracer.set_enabled(false);
  tracer.instant("x", "y");
  { Tracer::Span span(&tracer, "tx", "tx"); }
  EXPECT_TRUE(tracer.events().empty());
  EXPECT_TRUE(json_valid(tracer.chrome_json()));
}

TEST(Trace, RestartEndsCurrentSpanBeforeNewBegin) {
  // The loop re-arm pattern: end must precede the next begin so B/E stay
  // strictly nested per thread.
  Tracer tracer;
  {
    Tracer::Span span;
    span.restart(&tracer, "a", "c");
    span.restart(&tracer, "b", "c");
  }
  const auto threads = tracer.events();
  ASSERT_EQ(threads.size(), 1u);
  const auto& events = threads[0].events;
  ASSERT_EQ(events.size(), 4u);
  EXPECT_STREQ(events[0].name, "a");
  EXPECT_EQ(events[0].phase, TraceEvent::Phase::kBegin);
  EXPECT_STREQ(events[1].name, "a");
  EXPECT_EQ(events[1].phase, TraceEvent::Phase::kEnd);
  EXPECT_STREQ(events[2].name, "b");
  EXPECT_EQ(events[2].phase, TraceEvent::Phase::kBegin);
  EXPECT_STREQ(events[3].name, "b");
  EXPECT_EQ(events[3].phase, TraceEvent::Phase::kEnd);
}

TEST(Trace, FinishIsIdempotent) {
  Tracer tracer;
  Tracer::Span span(&tracer, "a", "c");
  span.finish();
  span.finish();  // second call must be a no-op
  const auto threads = tracer.events();
  ASSERT_EQ(threads.size(), 1u);
  EXPECT_EQ(threads[0].events.size(), 2u);
}

TEST(Trace, MultiThreadHammerMonotonePerThread) {
  Tracer tracer;
  constexpr int kThreads = 6;
  constexpr int kSpans = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      tracer.set_thread_name("hammer-" + std::to_string(t));
      for (int i = 0; i < kSpans; ++i) {
        Tracer::Span span(&tracer, "tx", "tx", static_cast<std::uint64_t>(i));
        tracer.instant("block", "block", static_cast<std::uint64_t>(i),
                       "position", i % 4);
      }
    });
  for (auto& thread : threads) thread.join();

  const auto per_thread = tracer.events();
  ASSERT_EQ(per_thread.size(), static_cast<std::size_t>(kThreads));
  for (const auto& te : per_thread) {
    ASSERT_FALSE(te.events.empty());
    std::uint64_t last_ts = 0;
    int depth = 0;
    for (const auto& event : te.events) {
      EXPECT_GE(event.ts_ns, last_ts) << "timestamps regress in tid "
                                      << te.tid;
      last_ts = event.ts_ns;
      if (event.phase == TraceEvent::Phase::kBegin) ++depth;
      if (event.phase == TraceEvent::Phase::kEnd) --depth;
      EXPECT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0) << "unbalanced spans in tid " << te.tid;
  }

  const std::string json = tracer.chrome_json();
  ASSERT_TRUE(json_valid(json));
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // Exported B/E counts must balance exactly.
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"B\""),
            count_occurrences(json, "\"ph\":\"E\""));
}

TEST(Trace, RingOverflowDropsOldestButExportStaysValid) {
  Tracer tracer(/*ring_capacity=*/64);
  for (int i = 0; i < 1000; ++i)
    tracer.instant("tick", "test", static_cast<std::uint64_t>(i));
  EXPECT_GT(tracer.dropped(), 0u);
  const auto threads = tracer.events();
  ASSERT_EQ(threads.size(), 1u);
  EXPECT_EQ(threads[0].events.size(), 64u);
  // Oldest retained event is the first after the drop horizon.
  EXPECT_EQ(threads[0].events.front().tx, 1000u - 64u);
  EXPECT_TRUE(json_valid(tracer.chrome_json()));
}

TEST(Trace, ProcessAndThreadMetadataExported) {
  Tracer tracer;
  tracer.set_process(3, "QR-ACN");
  tracer.set_thread_name("client-0");
  tracer.instant("tx", "tx");
  const std::string json = tracer.chrome_json();
  ASSERT_TRUE(json_valid(json));
  EXPECT_NE(json.find("process_name"), std::string::npos);
  EXPECT_NE(json.find("QR-ACN"), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("client-0"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":3"), std::string::npos);
}

// ---------------------------------------------------------------------------
// End-to-end: abort-reason counters through the driver

harness::ClusterConfig obs_cluster() {
  harness::ClusterConfig config;
  config.n_servers = 7;
  config.base_latency = std::chrono::microseconds{3};
  config.stub.retry.base = std::chrono::microseconds{5};
  return config;
}

harness::DriverConfig obs_driver(Observability* obs) {
  harness::DriverConfig config;
  config.n_clients = 4;
  config.intervals = 2;
  config.interval = std::chrono::milliseconds{150};
  config.executor.backoff_base = std::chrono::microseconds{5};
  config.obs = obs;
  return config;
}

TEST(ObsIntegration, FlatVsAcnAbortReasonCounters) {
  ObsConfig obs_config;
  obs_config.trace_enabled = true;
  Observability obs(obs_config);

  // High contention: few branches, few accounts, closed-loop clients.
  const workloads::BankConfig bank_config{.n_branches = 2, .n_accounts = 32};

  harness::Cluster flat_cluster(obs_cluster());
  workloads::Bank flat_bank(bank_config);
  flat_bank.seed(flat_cluster.servers());
  const auto flat = harness::run(flat_cluster, flat_bank,
                                 harness::Protocol::kFlat, obs_driver(&obs));

  harness::Cluster acn_cluster(obs_cluster());
  workloads::Bank acn_bank(bank_config);
  acn_bank.seed(acn_cluster.servers());
  const auto acn = harness::run(acn_cluster, acn_bank,
                                harness::Protocol::kAcn, obs_driver(&obs));

  // Per-run deltas must agree with the executor's own stats.
  EXPECT_EQ(flat.metrics.counter("tx.commit"), flat.stats.commits);
  EXPECT_EQ(flat.metrics.counter("tx.abort.full"), flat.stats.full_aborts);
  EXPECT_EQ(flat.metrics.counter("tx.abort.partial"), 0u);
  EXPECT_EQ(flat.metrics.counter("block.executed"), 0u);

  EXPECT_EQ(acn.metrics.counter("tx.commit"), acn.stats.commits);
  EXPECT_EQ(acn.metrics.counter("tx.abort.partial"), acn.stats.partial_aborts);
  EXPECT_GT(acn.metrics.counter("block.executed"), 0u);
  EXPECT_GT(acn.metrics.counter("tx.abort.partial"), 0u)
      << "high-contention bank under QR-ACN should partially abort";

  // Reason split sums back to the totals.
  for (const auto* scope : {"full", "partial"}) {
    const std::string base = std::string("tx.abort.") + scope;
    std::uint64_t sum = 0;
    for (int r = 0; r < kReasonCount; ++r)
      sum += acn.metrics.counter(base + "." + abort_reason_name(r));
    EXPECT_EQ(sum, acn.metrics.counter(base)) << base;
  }

  // RPC instrumentation fired, and latency histograms saw every read.
  EXPECT_GT(acn.metrics.counter("rpc.read"), 0u);
  EXPECT_GT(acn.metrics.counter("rpc.commit"), 0u);
  const HistogramData* read_ns = acn.metrics.histogram("rpc.read_ns");
  ASSERT_NE(read_ns, nullptr);
  EXPECT_EQ(read_ns->count(), acn.metrics.counter("rpc.read"));

  // ACN machinery reported through obs as well.
  EXPECT_GT(acn.metrics.counter("acn.adaptations"), 0u);
  EXPECT_EQ(acn.metrics.counter("acn.adaptations"), acn.adaptations);

  // The shared trace carries tx, block, and RPC spans and valid JSON.
  const std::string json = obs.tracer.chrome_json();
  ASSERT_TRUE(json_valid(json));
  EXPECT_GT(count_occurrences(json, "\"name\":\"tx\""), 0u);
  EXPECT_GT(count_occurrences(json, "\"name\":\"block\""), 0u);
  EXPECT_GT(count_occurrences(json, "\"name\":\"rpc.read\""), 0u);
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"B\""),
            count_occurrences(json, "\"ph\":\"E\""));
}

TEST(ObsIntegration, ShardedRunCountersMatchExecStats) {
  // Two groups with branch-per-group placement: a transfer stays on one
  // group only when both accounts and both branches do, so most run on the
  // cross-shard path.  Its Executor must count them exactly like the fast
  // path's.
  Observability obs;
  harness::ClusterConfig cluster_config = obs_cluster();
  cluster_config.n_groups = 2;
  harness::Cluster cluster(cluster_config);
  workloads::Bank bank({.n_branches = 2, .n_accounts = 32});
  shard::ClientFleet fleet(bank, 2);
  fleet.seed(cluster, bank);
  harness::DriverConfig driver = obs_driver(&obs);
  driver.make_submitter = fleet.factory();
  const auto result =
      harness::run(cluster, bank, harness::Protocol::kAcn, driver);

  EXPECT_GT(fleet.stats().cross_shard.load(), fleet.stats().fast_path.load());
  EXPECT_GT(result.stats.commits, 0u);
  EXPECT_EQ(result.metrics.counter("tx.commit"), result.stats.commits);
  EXPECT_EQ(result.metrics.counter("tx.abort.full"), result.stats.full_aborts);
  EXPECT_EQ(result.metrics.counter("tx.abort.partial"),
            result.stats.partial_aborts);
}

}  // namespace
}  // namespace acn::obs
