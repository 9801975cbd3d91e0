#include "src/harness/report.hpp"

#include <cstdio>

namespace acn::harness {

bool write_csv(const std::string& path, const std::vector<RunResult>& results,
               const DriverConfig& config) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (!file) {
    std::fprintf(stderr, "write_csv: cannot open %s\n", path.c_str());
    return false;
  }
  std::fprintf(file, "protocol,interval,t_seconds,throughput_tps,abort_rate_per_s\n");
  const double seconds = std::chrono::duration<double>(config.interval).count();
  for (const auto& result : results) {
    for (std::size_t k = 0; k < result.throughput.size(); ++k) {
      const double abort_rate =
          k < result.abort_rate.size() ? result.abort_rate[k] : 0.0;
      std::fprintf(file, "%s,%zu,%.3f,%.1f,%.1f\n",
                   protocol_name(result.protocol), k,
                   static_cast<double>(k + 1) * seconds, result.throughput[k],
                   abort_rate);
    }
  }
  std::fclose(file);
  return true;
}

void print_metrics(const char* label, const obs::Snapshot& snapshot) {
  if (snapshot.empty()) return;
  const auto c = [&](const char* name) { return snapshot.counter(name); };
  std::printf("%-8s obs: commits=%llu aborts{full=%llu partial=%llu}", label,
              static_cast<unsigned long long>(c("tx.commit")),
              static_cast<unsigned long long>(c("tx.abort.full")),
              static_cast<unsigned long long>(c("tx.abort.partial")));
  std::printf(
      " full{val=%llu busy=%llu unavail=%llu}"
      " partial{val=%llu busy=%llu unavail=%llu}\n",
      static_cast<unsigned long long>(c("tx.abort.full.validation")),
      static_cast<unsigned long long>(c("tx.abort.full.busy")),
      static_cast<unsigned long long>(c("tx.abort.full.unavailable")),
      static_cast<unsigned long long>(c("tx.abort.partial.validation")),
      static_cast<unsigned long long>(c("tx.abort.partial.busy")),
      static_cast<unsigned long long>(c("tx.abort.partial.unavailable")));
  std::printf("%-8s obs: rpc{read=%llu validate=%llu prepare=%llu "
              "commit=%llu abort=%llu contention=%llu}",
              "",
              static_cast<unsigned long long>(c("rpc.read")),
              static_cast<unsigned long long>(c("rpc.validate")),
              static_cast<unsigned long long>(c("rpc.prepare")),
              static_cast<unsigned long long>(c("rpc.commit")),
              static_cast<unsigned long long>(c("rpc.abort")),
              static_cast<unsigned long long>(c("rpc.contention")));
  if (const obs::HistogramData* read = snapshot.histogram("rpc.read_ns"))
    if (read->count() > 0)
      std::printf(" read p50~%.1fus p99~%.1fus",
                  static_cast<double>(read->percentile(0.5)) / 1000.0,
                  static_cast<double>(read->percentile(0.99)) / 1000.0);
  if (const obs::HistogramData* prep = snapshot.histogram("rpc.prepare_ns"))
    if (prep->count() > 0)
      std::printf(" prepare p50~%.1fus",
                  static_cast<double>(prep->percentile(0.5)) / 1000.0);
  std::printf("\n");
  if (c("transport.bytes.sent") + c("transport.bytes.recv") > 0)
    std::printf("%-8s obs: transport{sent=%llu recv=%llu reconnects=%llu "
                "corrupt=%llu}\n",
                "",
                static_cast<unsigned long long>(c("transport.bytes.sent")),
                static_cast<unsigned long long>(c("transport.bytes.recv")),
                static_cast<unsigned long long>(c("transport.reconnects")),
                static_cast<unsigned long long>(c("transport.frames.corrupt")));
  if (const auto rounds = static_cast<double>(c("net.delay.rounds"));
      rounds > 0) {
    // Mean requested and actual wait per round; fidelity = actual/requested.
    const auto requested = static_cast<double>(c("net.delay.requested_ns"));
    const auto actual = static_cast<double>(c("net.delay.actual_ns"));
    std::printf("%-8s obs: net{delay_rounds=%.0f requested=%.1fus "
                "actual=%.1fus fidelity=%.2f}\n",
                "", rounds, requested / rounds / 1000.0,
                actual / rounds / 1000.0, actual / requested);
  }
  if (c("acn.adaptations") > 0)
    std::printf("%-8s obs: acn{adaptations=%llu recompositions=%llu "
                "monitor_refreshes=%llu monitor_observes=%llu}\n",
                "",
                static_cast<unsigned long long>(c("acn.adaptations")),
                static_cast<unsigned long long>(c("acn.recompositions")),
                static_cast<unsigned long long>(c("acn.monitor.refresh")),
                static_cast<unsigned long long>(c("acn.monitor.observe")));
  if (c("queue.epoch.planned") > 0) {
    std::printf("%-8s obs: queue{epochs=%llu commits=%llu retries=%llu "
                "spec_reads=%llu mispredicts=%llu demoted=%llu}",
                "",
                static_cast<unsigned long long>(c("queue.epoch.planned")),
                static_cast<unsigned long long>(c("queue.epoch.commits")),
                static_cast<unsigned long long>(c("queue.epoch.retries")),
                static_cast<unsigned long long>(c("queue.spec.reads")),
                static_cast<unsigned long long>(c("queue.spec.mispredict")),
                static_cast<unsigned long long>(c("queue.spec.demoted")));
    if (const obs::HistogramData* size = snapshot.histogram("queue.epoch.size"))
      if (size->count() > 0)
        std::printf(" epoch_size p50~%llu",
                    static_cast<unsigned long long>(size->percentile(0.5)));
    std::printf("\n");
  }
}

bool write_metrics_json(const std::string& path,
                        const std::vector<RunResult>& results) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (!file) {
    std::fprintf(stderr, "write_metrics_json: cannot open %s\n", path.c_str());
    return false;
  }
  std::fputc('{', file);
  bool first = true;
  for (const auto& result : results) {
    if (result.metrics.empty()) continue;
    if (!first) std::fputc(',', file);
    first = false;
    std::fprintf(file, "\"%s\":%s", protocol_name(result.protocol),
                 result.metrics.to_json().c_str());
  }
  std::fputs("}\n", file);
  std::fclose(file);
  return true;
}

bool write_metrics_csv(const std::string& path,
                       const std::vector<RunResult>& results) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (!file) {
    std::fprintf(stderr, "write_metrics_csv: cannot open %s\n", path.c_str());
    return false;
  }
  std::fputs("protocol,name,kind,stat,value\n", file);
  for (const auto& result : results) {
    const std::string csv = result.metrics.to_csv();
    // Prefix every data row (to_csv emits its own header line first).
    std::size_t line_start = csv.find('\n') + 1;
    while (line_start < csv.size()) {
      std::size_t line_end = csv.find('\n', line_start);
      if (line_end == std::string::npos) line_end = csv.size();
      std::fprintf(file, "%s,%.*s\n", protocol_name(result.protocol),
                   static_cast<int>(line_end - line_start),
                   csv.c_str() + line_start);
      line_start = line_end + 1;
    }
  }
  std::fclose(file);
  return true;
}

}  // namespace acn::harness

namespace acn::harness {

double improvement_pct(const RunResult& a, const RunResult& b,
                       std::size_t from_interval) {
  const double tb = b.mean_throughput(from_interval);
  if (tb <= 0.0) return 0.0;
  return (a.mean_throughput(from_interval) - tb) / tb * 100.0;
}

void print_figure(const std::string& title,
                  const std::vector<RunResult>& results,
                  const DriverConfig& config) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("clients=%zu intervals=%zu interval=%lldms\n", config.n_clients,
              config.intervals,
              static_cast<long long>(config.interval.count()));

  std::printf("%8s", "t(s)");
  for (const auto& result : results)
    std::printf("%12s", protocol_name(result.protocol));
  std::printf("  %s\n", "committed tx/s");

  const double seconds = std::chrono::duration<double>(config.interval).count();
  for (std::size_t k = 0; k < config.intervals; ++k) {
    std::printf("%8.2f", static_cast<double>(k + 1) * seconds);
    for (const auto& result : results)
      std::printf("%12.1f", k < result.throughput.size() ? result.throughput[k]
                                                         : 0.0);
    for (const auto& [at, new_phase] : config.phase_changes)
      if (at == k) std::printf("   <- phase %d", new_phase);
    std::printf("\n");
  }

  for (const auto& result : results) {
    const auto& s = result.stats;
    std::printf(
        "%-8s commits=%llu full_aborts=%llu partial_aborts=%llu "
        "blocks=%llu ops=%llu",
        protocol_name(result.protocol),
        static_cast<unsigned long long>(s.commits),
        static_cast<unsigned long long>(s.full_aborts),
        static_cast<unsigned long long>(s.partial_aborts),
        static_cast<unsigned long long>(s.blocks_executed),
        static_cast<unsigned long long>(s.ops_executed));
    std::printf(" | at_commit=%llu in_exec=%llu busy=%llu",
                static_cast<unsigned long long>(s.aborts_at_commit),
                static_cast<unsigned long long>(s.aborts_in_execution),
                static_cast<unsigned long long>(s.aborts_busy));
    if (result.protocol == Protocol::kAcn)
      std::printf(" adaptations=%llu recompositions=%llu",
                  static_cast<unsigned long long>(result.adaptations),
                  static_cast<unsigned long long>(result.recompositions));
    std::printf(" lat_p50~%.1fus lat_p99~%.1fus",
                static_cast<double>(result.latency_p50_ns) / 1000.0,
                static_cast<double>(result.latency_p99_ns) / 1000.0);
    std::printf("\n");
    if (s.partial_aborts > 0) {
      std::size_t last = 0;
      for (std::size_t i = 0; i < ExecStats::kPositionSlots; ++i)
        if (s.partials_at_position[i] > 0) last = i;
      std::printf("%-8s partials by block position:", "");
      for (std::size_t i = 0; i <= last; ++i)
        std::printf(" %llu",
                    static_cast<unsigned long long>(s.partials_at_position[i]));
      std::printf("\n");
    }
    print_metrics(protocol_name(result.protocol), result.metrics);
  }

  // The paper reports improvement after QR-ACN "kicks in" (first window).
  if (results.size() == 3 && config.intervals >= 2) {
    const std::size_t from = 1;
    std::printf("post-adaptation (t>=%g s): QR-ACN vs QR-DTM %+.1f%%, "
                "QR-ACN vs QR-CN %+.1f%%\n",
                static_cast<double>(from + 1) * seconds,
                improvement_pct(results[2], results[0], from),
                improvement_pct(results[2], results[1], from));
  }
}

}  // namespace acn::harness
