// End-to-end benchmark of the ACN/QR-DTM stack: one workload per run.
//
//   acnbench --workload NAME --seed N --seconds S --trace 0|1
//            [--data-dir DIR] [--trace-out FILE]
//
// Four closed-loop client threads with no think time submit through
// harness::run with shard::ClientFleet as the endpoint, exactly as the
// figure benches do, on the in-process simulated transport with 10
// replicas per quorum group.  Workloads (see perfbench/README.md):
//
//   bank-cpu          Bank, 0 us one-way latency, hot class flips
//                     branches -> accounts -> branches mid-window
//   tpcc-lan          TPC-C, 8 warehouses, standard mix, 25 us,
//                     batched reads + prefetch
//   bank-xshard-wal   Bank on 2 groups (2PC), a WAL on every replica,
//                     25 us
//   bank-skew-hybrid  Bank with 95% of picks on 2 hot branches,
//                     --exec=hybrid --sched=both, 25 us
//   bank-skew-sched   the same Bank, --exec=acn --sched=both, 25 us
//
// --trace 0 measures QR-ACN for 2/3 of S seconds and the QR-DTM baseline
// on the same inputs for the other 1/3, with only two clock reads per
// transaction, and reports the end-to-end metrics.  --trace 1 measures
// QR-ACN for S seconds with every layer wrapper on (wrappers.hpp) and
// reports the per-layer metrics plus a table of per-call layer costs.
// Either way the run fails (exit 1) on any correctness breach: workload
// invariants, cross-shard atomicity, prepares left open on a replica, or
// a commit count that disagrees with the executors' own.
//
// The last line of stdout is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/layer_costs.hpp"
#include "perfbench/src/ledger.hpp"
#include "perfbench/src/wrappers.hpp"
#include "src/common/clock.hpp"
#include "src/harness/driver.hpp"
#include "src/obs/trace.hpp"
#include "src/queue/service.hpp"
#include "src/shard/client.hpp"
#include "src/transport/wire.hpp"
#include "src/workloads/bank.hpp"
#include "src/workloads/tpcc.hpp"

namespace {

using namespace acn;
using namespace perfbench;
using std::chrono::microseconds;

constexpr std::size_t kClients = 4;
constexpr std::chrono::milliseconds kInterval{500};
constexpr std::size_t kWarmupIntervals = 2;
constexpr int kMinSetups = 4;
constexpr double kSetupBudgetS = 1.5;
constexpr int kProbes = 400;
constexpr int kLayerCostBudgetMs = 40;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string data_dir = "wal-data";
  std::string trace_out;
};

std::optional<Args> parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload")
      args.workload = value;
    else if (flag == "--seed")
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds")
      args.seconds = std::strtod(value.c_str(), nullptr);
    else if (flag == "--trace")
      args.trace = value == "1";
    else if (flag == "--data-dir")
      args.data_dir = value;
    else if (flag == "--trace-out")
      args.trace_out = value;
    else
      return std::nullopt;
  }
  if (args.workload.empty() || args.seconds <= 0) return std::nullopt;
  return args;
}

struct Spec {
  std::function<std::unique_ptr<workloads::Workload>()> make;
  harness::ClusterConfig cluster;
  harness::DriverConfig driver;
  shard::ExecMode exec = shard::ExecMode::kAcn;
  queue::QueueConfig queue;
  bool flip_hot_class = false;
};

std::optional<Spec> make_spec(const Args& args) {
  Spec spec;
  spec.cluster.n_servers = 10;
  spec.cluster.base_latency = microseconds{25};
  spec.cluster.stub.retry.base = microseconds{20};
  spec.driver.n_clients = kClients;
  spec.driver.seed = args.seed;
  spec.driver.executor.backoff_base = microseconds{20};
  spec.make = [] { return std::make_unique<workloads::Bank>(); };
  const std::string& name = args.workload;
  if (name == "bank-cpu") {
    spec.cluster.base_latency = std::chrono::nanoseconds{0};
    spec.flip_hot_class = true;
  } else if (name == "tpcc-lan") {
    workloads::TpccConfig tpcc;
    tpcc.n_warehouses = 8;
    tpcc.w_neworder = 0.45;
    tpcc.w_payment = 0.43;
    tpcc.w_delivery = 0.04;
    tpcc.w_orderstatus = 0.04;
    tpcc.w_stocklevel = 0.04;
    spec.make = [tpcc] { return std::make_unique<workloads::Tpcc>(tpcc); };
    spec.driver.batch_reads = true;
    spec.driver.prefetch = true;
  } else if (name == "bank-xshard-wal") {
    // 2 ms group commit and a snapshot every 1 MiB of log (the defaults).
    // The log lives in the run's own directory on disk, where fsync makes
    // the run-to-run spread about three times wider, so flushes write to
    // the page cache only.
    spec.cluster.n_groups = 2;
    spec.cluster.durability.mode = harness::DurabilityMode::kWal;
    spec.cluster.durability.fsync = false;
  } else if (name == "bank-skew-hybrid" || name == "bank-skew-sched") {
    workloads::BankConfig bank;
    bank.hot_branches = 2;
    bank.hot_probability = 0.95;
    spec.make = [bank] { return std::make_unique<workloads::Bank>(bank); };
    spec.driver.scheduler.policy = sched::SchedulerPolicy::kBoth;
    // Hotness per key (abort blame) only: class-level hotness would mark
    // every branch hot, so transactions that touch no hot branch would
    // still be routed to the lane (hybrid) or gated (sched).
    spec.driver.scheduler.class_hot_level = 0;
    if (name == "bank-skew-hybrid") {
      spec.exec = shard::ExecMode::kHybrid;
      spec.queue.n_executors = 1;  // steadier than 2 or 4 on 4 cores
    }
  } else {
    return std::nullopt;
  }
  return spec;
}

/// A seeded cluster with its client fleet.  Members are destroyed in
/// reverse order: the fleet (and its lane) before the WAL wrappers, the
/// wrappers before the cluster whose servers point at them.
struct Deployment {
  std::unique_ptr<harness::Cluster> cluster;
  std::vector<std::unique_ptr<TimedSink>> sinks;
  std::unique_ptr<workloads::Workload> workload;
  std::atomic<queue::EpochService*> service{nullptr};
  std::unique_ptr<shard::ClientFleet> fleet;
  double setup_s = 0;
};

/// Cluster construction, seeding and (with a WAL) checkpoint_all: what
/// setup_s measures.
std::unique_ptr<Deployment> deploy(const Spec& spec, const std::string& data_dir) {
  auto d = std::make_unique<Deployment>();
  harness::ClusterConfig config = spec.cluster;
  const bool wal = config.durability.mode == harness::DurabilityMode::kWal;
  if (wal) {
    std::filesystem::remove_all(data_dir);
    config.durability.data_dir = data_dir;
  }
  const Stopwatch watch;
  d->cluster = std::make_unique<harness::Cluster>(config);
  d->workload = spec.make();
  d->fleet = std::make_unique<shard::ClientFleet>(
      *d->workload, static_cast<std::uint32_t>(config.n_groups));
  d->fleet->seed(*d->cluster, *d->workload);
  if (wal) d->cluster->checkpoint_all();
  d->setup_s = watch.elapsed_s();
  return d;
}

/// What the sampler reads at each edge of the measured window.
struct Edge {
  std::uint64_t wall_ns = 0;
  std::uint64_t cpu_ns = 0;  // whole process
  Totals totals{};
  std::uint64_t cross_shard = 0, escalations = 0;
  std::uint64_t lane_submits = 0, lane_commits = 0, lane_demotions = 0;
  std::uint64_t epochs = 0, epoch_submitted = 0, epoch_retries = 0;
  std::uint64_t mispredicted = 0;
  std::uint64_t messages = 0, bytes = 0;
  std::uint64_t fsyncs = 0, wal_bytes = 0;
};

std::uint64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

Edge take_edge(Deployment& d, const Ledger& ledger) {
  Edge e;
  e.wall_ns = now_ns();
  e.cpu_ns = process_cpu_ns();
  e.totals = ledger.totals();
  const shard::ClientStats& cs = d.fleet->stats();
  e.cross_shard = cs.cross_shard.load();
  e.escalations = cs.escalations.load();
  e.lane_submits = cs.lane_submits.load();
  e.lane_commits = cs.lane_commits.load();
  e.lane_demotions = cs.lane_demotions.load();
  if (const queue::EpochService* service = d.service.load()) {
    const queue::ServiceStats& qs = service->stats();
    e.epochs = qs.epochs.load();
    e.epoch_submitted = qs.submitted.load();
    e.epoch_retries = qs.epoch_retries.load();
    e.mispredicted = qs.mispredicted.load();
  }
  const net::NetStats& net = d.cluster->network().stats();
  e.messages = net.messages();
  e.bytes = net.bytes();
  for (std::size_t i = 0; i < d.cluster->size(); ++i)
    if (const wal::ReplicaPersistence* wal = d.cluster->persistence(i)) {
      e.fsyncs += wal->fsync_count();
      e.wal_bytes += wal->appended_bytes();
    }
  return e;
}

/// Reads two edges at fixed times from its own thread while harness::run
/// blocks the caller.
class Sampler {
 public:
  Sampler(std::uint64_t t0, std::uint64_t t1, std::function<Edge()> take)
      : take_(std::move(take)), thread_([this, t0, t1] {
          if (!sleep_until(t0)) return;
          begin_ = take_();
          if (!sleep_until(t1)) return;
          end_ = take_();
          done_ = true;
        }) {}
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;
  ~Sampler() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  /// Wait for both edges; false if the window was not covered.
  bool finish() {
    thread_.join();
    return done_;
  }
  const Edge& begin() const { return begin_; }
  const Edge& end() const { return end_; }

 private:
  bool sleep_until(std::uint64_t t) {
    std::unique_lock<std::mutex> lock(mutex_);
    const std::chrono::steady_clock::time_point deadline{
        std::chrono::nanoseconds{t}};
    return !cv_.wait_until(lock, deadline, [this] { return stop_; });
  }

  std::function<Edge()> take_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  Edge begin_, end_;
  bool done_ = false;
  std::thread thread_;
};

struct RunOutput {
  harness::RunResult result;
  Edge begin, end;
  std::vector<std::uint64_t> latencies;   // window, ns
  std::vector<std::uint64_t> admit_waits; // window, ns
  std::vector<std::uint64_t> wal_commits; // window, ns
  double probe_rtt_us = 0, probe_requested_us = 0;

  double window_s() const { return (end.wall_ns - begin.wall_ns) * 1e-9; }
  std::uint64_t d(Counter c) const { return end.totals[c] - begin.totals[c]; }
};

/// The program produced a wrong result (as opposed to a failed measurement).
struct CorrectnessError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

void require_correct(bool ok, const std::string& what) {
  if (!ok) throw CorrectnessError(what);
}

/// After traffic stops: the workload's invariants hold, no cross-shard
/// transaction tore, and no replica holds an open, leased, protected or
/// in-doubt prepare.
void check_outcome(Deployment& d) {
  try {
    d.workload->check_invariants(d.cluster->servers());
  } catch (const std::runtime_error& e) {
    throw CorrectnessError(e.what());
  }
  require_correct(d.fleet->stats().atomicity_breaches.load() == 0,
                  "cross-shard atomicity breaches");
  for (std::size_t i = 0; i < d.cluster->size(); ++i) {
    const transport::ReplicaProbe p = d.cluster->probe_replica(i);
    require_correct(p.open_prepares == 0 && p.indoubt == 0 &&
                        p.open_leases == 0 && p.protected_keys == 0,
                    "replica " + std::to_string(i) +
                        " holds unresolved prepares");
  }
}

/// Median round trip of probe calls to every replica, with the handler's
/// own time removed, beside the delay the latency model asked for.
void probe_network(Deployment& d, RunOutput& out) {
  harness::Cluster& cluster = *d.cluster;
  const auto probe = static_cast<net::NodeId>(cluster.size() + 4096);
  const dtm::Request request{dtm::ContentionRequest{}};
  const LatencyModel& model = cluster.network().latency_model();
  std::vector<std::uint64_t> rtts;
  double requested = 0;
  for (int i = 0; i < kProbes; ++i) {
    const auto to = static_cast<net::NodeId>(i % cluster.size());
    const std::uint64_t start = now_ns();
    const auto reply = cluster.transport().call(probe, to, request);
    const std::uint64_t elapsed = now_ns() - start;
    if (!reply.ok()) throw std::runtime_error("probe call failed");
    rtts.push_back(elapsed - std::min(elapsed, last_handler_ns()));
    requested += static_cast<double>(
        (model.delay(probe, to, request.approx_size()) +
         model.delay(to, probe, reply.response.approx_size()))
            .count());
  }
  out.probe_rtt_us = static_cast<double>(percentile(rtts, 0.5)) / 1000.0;
  out.probe_requested_us = requested / kProbes / 1000.0;
}

RunOutput run_protocol(const Spec& spec, Protocol protocol, double window_s,
                       Instruments& in, const std::string& data_dir) {
  RunOutput out;
  auto d = deploy(spec, data_dir);
  std::size_t objects = 0;
  for (std::size_t i = 0; i < d->cluster->size(); ++i)
    objects += d->cluster->server(i).store().object_count();
  std::printf("# %s: %zu replicas, %zu objects on replica 0, %zu in total, "
              "set up in %.3f s\n",
              protocol_name(protocol), d->cluster->size(),
              d->cluster->server(0).store().object_count(), objects,
              d->setup_s);
  if (spec.exec != shard::ExecMode::kAcn) {
    const queue::QueueConfig queue_config = spec.queue;
    const std::uint64_t seed = spec.driver.seed;
    Deployment* dep = d.get();
    d->fleet->set_lane(
        spec.exec, [queue_config, seed, dep, &in](
                       harness::Cluster& cluster,
                       const shard::ShardRouter& router)
                       -> std::shared_ptr<shard::Lane> {
          auto service = std::make_shared<queue::EpochService>(
              cluster, router, queue_config, seed);
          dep->service.store(service.get());
          if (in.traced()) return std::make_shared<TimedLane>(service, in);
          return service;
        });
  }
  if (in.traced()) d->sinks = instrument_servers(*d->cluster, in);

  const auto measured = static_cast<std::size_t>(std::max(
      1.0, std::round(window_s / std::chrono::duration<double>(kInterval).count())));
  harness::DriverConfig driver = spec.driver;
  driver.check_invariants = false;  // check_outcome runs them
  driver.interval = kInterval;
  driver.intervals = kWarmupIntervals + measured + 1;
  if (spec.flip_hot_class)
    driver.phase_changes = {{kWarmupIntervals + measured / 3, 1},
                            {kWarmupIntervals + 2 * measured / 3, 0}};
  driver.make_submitter = measured_factory(d->fleet->factory(), in);
  driver.shard_of = d->fleet->shard_of();

  in.ledger.clear_samples();
  const Totals before = in.ledger.totals();
  const std::uint64_t start = now_ns();
  const auto interval_ns = static_cast<std::uint64_t>(
      std::chrono::nanoseconds{kInterval}.count());
  {
    Sampler sampler(start + kWarmupIntervals * interval_ns,
                    start + (kWarmupIntervals + measured) * interval_ns,
                    [&] { return take_edge(*d, in.ledger); });
    out.result = harness::run(*d->cluster, *d->workload, protocol, driver);
    if (!sampler.finish())
      throw std::runtime_error("run ended before the measured window");
    out.begin = sampler.begin();
    out.end = sampler.end();
  }
  const Totals after = in.ledger.totals();
  const std::uint64_t committed = after[kTxCommitted] - before[kTxCommitted];
  require_correct(committed == out.result.stats.commits,
                  "benchmark counted " + std::to_string(committed) +
                      " commits, executors counted " +
                      std::to_string(out.result.stats.commits));
  check_outcome(*d);

  out.latencies = in.ledger.window(kLatency, out.begin.wall_ns, out.end.wall_ns);
  if (in.traced()) {
    out.admit_waits =
        in.ledger.window(kAdmitWait, out.begin.wall_ns, out.end.wall_ns);
    out.wal_commits =
        in.ledger.window(kWalCommit, out.begin.wall_ns, out.end.wall_ns);
    probe_network(*d, out);
  }
  d.reset();
  if (spec.cluster.durability.mode == harness::DurabilityMode::kWal)
    std::filesystem::remove_all(data_dir);
  return out;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Process CPU (every thread: clients, replicas, WAL, lane) per commit.
double process_cpu_us_per_commit(const RunOutput& r) {
  return ratio(static_cast<double>(r.end.cpu_ns - r.begin.cpu_ns) / 1000.0,
               static_cast<double>(r.d(kTxCommitted)));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Exact percentile with at least ten samples beyond it, or an error.
double percentile_us(std::vector<std::uint64_t>& samples, double q,
                     const char* name) {
  const std::size_t n = samples.size();
  if (n == 0 || n - 1 - percentile_rank(n, q) < 10)
    throw std::runtime_error(std::string(name) + ": only " +
                             std::to_string(n) +
                             " samples, fewer than 10 beyond the percentile");
  return static_cast<double>(percentile(samples, q)) / 1000.0;
}

/// The fastest of the set-ups, serving no run, that fit in kSetupBudgetS
/// (at least kMinSetups).
double fastest_setup_s(const Spec& spec, const std::string& dir) {
  const Stopwatch watch;
  double best = 0;
  for (int i = 0; i < kMinSetups || watch.elapsed_s() < kSetupBudgetS; ++i) {
    const double s = deploy(spec, dir)->setup_s;
    if (i == 0 || s < best) best = s;
    std::filesystem::remove_all(dir);
  }
  return best;
}

std::vector<Metric> end_to_end(const Spec& spec, const Args& args,
                               Instruments& in, std::uint64_t& attempted,
                               std::uint64_t& failed) {
  const double acn_s = args.seconds * 2.0 / 3.0;
  RunOutput acn = run_protocol(spec, Protocol::kAcn, acn_s, in,
                               args.data_dir + "/acn");
  // Read before the set-ups below: after them the peak was bimodal (21 or
  // 26 MB on bank-skew-hybrid).
  const double peak_rss = peak_rss_mb();
  // The host's CPU speed swings up to 2x from one second to the next, so
  // setup_s is the fastest set-up of two bursts, one on either side of the
  // QR-DTM run.
  const std::string setup_dir = args.data_dir + "/setup";
  double setup_s = fastest_setup_s(spec, setup_dir);
  RunOutput flat = run_protocol(spec, Protocol::kFlat, args.seconds - acn_s,
                                in, args.data_dir + "/flat");
  setup_s = std::min(setup_s, fastest_setup_s(spec, setup_dir));
  attempted = acn.d(kTxAttempted) + flat.d(kTxAttempted);
  failed = acn.d(kTxFailed) + flat.d(kTxFailed);
  const double commits = static_cast<double>(acn.d(kTxCommitted));
  const std::size_t n = acn.latencies.size();
  std::vector<Metric> out = {
      {"commits_per_s", commits / acn.window_s(), "1/s"},
      {"latency_p50_us", percentile_us(acn.latencies, 0.50, "latency_p50_us"),
       "us"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", peak_rss, "MB"},
      {"flat_commits_per_s",
       static_cast<double>(flat.d(kTxCommitted)) / flat.window_s(), "1/s"},
  };
  std::printf("# window %.2f s QR-ACN + %.2f s QR-DTM; %zu latency samples, "
              "%zu beyond p99; failed_ratio %.6f (%llu of %llu); "
              "cpu_us_per_commit %.2f; latency_p99_us %.3f\n",
              acn.window_s(), flat.window_s(), n,
              n - 1 - percentile_rank(n, 0.99), ratio(failed, attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted),
              process_cpu_us_per_commit(acn),
              percentile_us(acn.latencies, 0.99, "latency_p99_us"));
  return out;
}

std::vector<Metric> per_layer(const Spec& spec, const Args& args,
                              Instruments& in, std::uint64_t& attempted,
                              std::uint64_t& failed) {
  RunOutput r = run_protocol(spec, Protocol::kAcn, args.seconds, in,
                             args.data_dir + "/traced");
  attempted = r.d(kTxAttempted);
  failed = r.d(kTxFailed);
  const double tx = static_cast<double>(attempted);
  const double commits = static_cast<double>(r.d(kTxCommitted));
  const Edge& b = r.begin;
  const Edge& e = r.end;
  const auto delta = [](std::uint64_t to, std::uint64_t from) {
    return static_cast<double>(to - from);
  };
  const double wall_ns = static_cast<double>(r.d(kTxWallNs));
  const double cpu_ns = static_cast<double>(r.d(kTxCpuNs));
  const double inline_ns = static_cast<double>(r.d(kInlineHandlerNs));
  const double inline_wal_ns = static_cast<double>(r.d(kInlineWalNs));
  const double admit_ns = static_cast<double>(r.d(kAdmitWaitNs));
  const double lane_ns = static_cast<double>(r.d(kLaneWaitNs));
  const double offcpu_ns =
      std::max(0.0, wall_ns - cpu_ns - admit_ns - lane_ns);
  const double full = static_cast<double>(r.d(kFullAborts));
  const double partial = static_cast<double>(r.d(kPartialAborts));

  std::vector<Metric> out = {
      {"trace.commits_per_s", commits / r.window_s(), "1/s"},
      {"trace.latency_p50_us", percentile_us(r.latencies, 0.50, "latency_p50_us"),
       "us"},
      {"trace.latency_p99_us", percentile_us(r.latencies, 0.99, "latency_p99_us"),
       "us"},
      {"process.cpu_us_per_commit", process_cpu_us_per_commit(r), "us"},
      // shard: dispatch shares, base = transactions attempted / commits.
      {"shard.cross_shard_share", ratio(delta(e.cross_shard, b.cross_shard), tx),
       "ratio"},
      {"shard.escalations_per_commit",
       ratio(delta(e.escalations, b.escalations), commits), "count"},
      {"shard.lane_share", ratio(delta(e.lane_commits, b.lane_commits), commits),
       "ratio"},
      {"shard.lane_demotion_share",
       ratio(delta(e.lane_demotions, b.lane_demotions),
             delta(e.lane_submits, b.lane_submits)),
       "ratio"},
      // acn executor.
      {"acn.client_cpu_us_per_commit",
       ratio(std::max(0.0, cpu_ns - (inline_ns - inline_wal_ns)) / 1000.0,
             commits),
       "us"},
      {"acn.full_aborts_per_commit", ratio(full, commits), "count"},
      {"acn.partial_aborts_per_commit", ratio(partial, commits), "count"},
      {"acn.partial_share", ratio(partial, full + partial), "ratio"},
      {"acn.ops_per_commit", ratio(static_cast<double>(r.d(kOps)), commits),
       "count"},
      {"acn.blocks_per_commit",
       ratio(static_cast<double>(r.d(kBlocks)), commits), "count"},
      {"acn.recompositions", static_cast<double>(r.result.recompositions),
       "count"},
      // sched: admission through the forwarding gate, base = transactions.
      {"sched.admit_wait_us_per_tx", ratio(admit_ns / 1000.0, tx), "us"},
      {"sched.admit_wait_p99_us",
       r.admit_waits.size() >= 1000
           ? static_cast<double>(percentile(r.admit_waits, 0.99)) / 1000.0
           : 0.0,
       "us"},
      {"sched.hot_share",
       ratio(static_cast<double>(r.d(kAdmitsHot)),
             static_cast<double>(r.d(kAdmits))),
       "ratio"},
      // queue: lane wait per transaction; epoch shape from ServiceStats.
      {"queue.submit_wait_us_per_tx", ratio(lane_ns / 1000.0, tx), "us"},
      {"queue.epoch_size",
       ratio(delta(e.epoch_submitted, b.epoch_submitted), delta(e.epochs, b.epochs)),
       "count"},
      {"queue.epoch_retry_share",
       ratio(delta(e.epoch_retries, b.epoch_retries), delta(e.epochs, b.epochs)),
       "ratio"},
      {"queue.mispredicted_share",
       ratio(delta(e.mispredicted, b.mispredicted),
             delta(e.epoch_submitted, b.epoch_submitted)),
       "ratio"},
  };
  // dtm: per request kind, calls per commit, mean busy time per call, and
  // the share of calls the replica turned down.
  double busy_total = 0;
  for (std::size_t k = 0; k < kDtmKinds; ++k) {
    const double calls = static_cast<double>(r.d(static_cast<Counter>(kDtmCalls + k)));
    const double busy = static_cast<double>(r.d(static_cast<Counter>(kDtmBusyNs + k)));
    const double refused =
        static_cast<double>(r.d(static_cast<Counter>(kDtmRefused + k)));
    busy_total += busy;
    const std::string prefix = std::string("dtm.") + kDtmKindNames[k];
    out.push_back({prefix + ".calls_per_commit", ratio(calls, commits), "count"});
    out.push_back({prefix + ".busy_us", ratio(busy / 1000.0, calls), "us"});
    out.push_back({prefix + ".refused_share", ratio(refused, calls), "ratio"});
  }
  out.push_back({"dtm.busy_us_per_commit", ratio(busy_total / 1000.0, commits), "us"});
  out.push_back({"dtm.lane_busy_us_per_commit",
                 ratio(static_cast<double>(r.d(kLaneHandlerNs)) / 1000.0, commits),
                 "us"});
  // net.
  const double requested = r.probe_requested_us;
  out.push_back({"net.msgs_per_commit", ratio(delta(e.messages, b.messages), commits),
                 "count"});
  out.push_back({"net.bytes_per_commit", ratio(delta(e.bytes, b.bytes), commits), "B"});
  out.push_back({"net.offcpu_us_per_tx", ratio(offcpu_ns / 1000.0, tx), "us"});
  out.push_back({"net.offcpu_share", ratio(offcpu_ns, wall_ns), "ratio"});
  out.push_back({"net.probe_rtt_us", r.probe_rtt_us, "us"});
  out.push_back({"net.probe_rtt_requested_us", requested, "us"});
  out.push_back({"net.delay_fidelity", ratio(r.probe_rtt_us, requested), "ratio"});
  // wal: per call, through the forwarding DurabilitySink.
  const double wal_commits = static_cast<double>(r.d(kWalCommits));
  const double snapshots = static_cast<double>(r.d(kSnapshots));
  out.push_back({"wal.log_prepare_us",
                 ratio(static_cast<double>(r.d(kWalPrepareNs)) / 1000.0,
                       static_cast<double>(r.d(kWalPrepares))),
                 "us"});
  out.push_back({"wal.log_commit_us",
                 ratio(static_cast<double>(r.d(kWalCommitNs)) / 1000.0, wal_commits),
                 "us"});
  out.push_back({"wal.log_commit_p99_us",
                 r.wal_commits.size() >= 1000
                     ? static_cast<double>(percentile(r.wal_commits, 0.99)) / 1000.0
                     : 0.0,
                 "us"});
  out.push_back({"wal.snapshot_ms",
                 ratio(static_cast<double>(r.d(kSnapshotNs)) / 1e6, snapshots), "ms"});
  out.push_back({"wal.snapshots", snapshots, "count"});
  out.push_back({"wal.fsyncs_per_commit", ratio(delta(e.fsyncs, b.fsyncs), commits),
                 "count"});
  out.push_back({"wal.bytes_per_commit",
                 ratio(delta(e.wal_bytes, b.wal_bytes), commits), "B"});
  // Self time of the client's tx span: wall minus its child spans.
  out.push_back({"span.tx_self_us_per_tx",
                 ratio(std::max(0.0, wall_ns - admit_ns - lane_ns - inline_ns) / 1000.0,
                       tx),
                 "us"});
  out.push_back({"span.dtm_self_us_per_commit",
                 ratio((busy_total - static_cast<double>(r.d(kDtmWalNs))) / 1000.0,
                       commits),
                 "us"});
  for (Metric& m : layer_costs(kLayerCostBudgetMs)) out.push_back(std::move(m));
  return out;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buf[256];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    const double value = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%-40s %16.4f %s\n", m.name.c_str(), value, m.unit.c_str());
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(), value, m.unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: acnbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--data-dir DIR] [--trace-out FILE]\n");
    return 2;
  }
  const std::optional<Spec> spec = make_spec(*args);
  if (!spec) {
    std::fprintf(stderr, "unknown workload: %s\n", args->workload.c_str());
    return 2;
  }
  Ledger ledger;
  obs::Tracer tracer(std::size_t{1} << 14);
  tracer.set_enabled(args->trace);
  Instruments in{ledger, args->trace ? &tracer : nullptr};
  std::printf("# %s seed %llu, %zu closed-loop clients, %s run\n",
              args->workload.c_str(), static_cast<unsigned long long>(args->seed),
              kClients, args->trace ? "traced" : "untraced");
  try {
    std::uint64_t attempted = 0, failed = 0;
    const std::vector<Metric> metrics =
        args->trace ? per_layer(*spec, *args, in, attempted, failed)
                    : end_to_end(*spec, *args, in, attempted, failed);
    if (args->trace && !args->trace_out.empty())
      tracer.write_chrome_json(args->trace_out);
    print_result(true, attempted, failed, metrics);
    return 0;
  } catch (const CorrectnessError& e) {
    std::fprintf(stderr, "acnbench %s: incorrect result: %s\n",
                 args->workload.c_str(), e.what());
    print_result(false, 1, 1, {});
  } catch (const std::exception& e) {
    std::fprintf(stderr, "acnbench %s failed: %s\n", args->workload.c_str(),
                 e.what());
  }
  std::error_code ec;
  std::filesystem::remove_all(args->data_dir, ec);
  return 1;
}
