// pipebench — the repository's end-to-end benchmark.
//
//   pipebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   pipebench --self-test
//
// --trace 0 measures the end-to-end metrics with observability off;
// setup_s is the median of set-ups timed in fresh processes of this binary
// (--setup-sample <launch ns>, each from its launch to its first frame).
// --trace 1 runs the same workload and seed twice, each for half of
// --seconds — untraced, then with obs::enable() and the benchmark's span
// ledger — and reports the per-layer metrics. Either way the last stdout
// line is one JSON object {correct, attempted, failed, metrics}. Any
// conservation-law violation, planted-truth scoring failure, parity
// failure, health alert (traced) or unattributed residual above 5%
// (traced) exits 1 without that line.
// README.md in this directory lists every metric and workload.
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "pipeline.h"

namespace {

using namespace pipebench;

constexpr int kSetupSamples = 21;          // setup_s is their median
constexpr double kMinYouden = 0.5;         // DR - FPR gate
constexpr double kMaxUnattributed = 0.05;  // traced-ledger residual gate

std::vector<Workload> workloads() {
  Workload dense;
  dense.name = "dense_sybil";
  dense.why =
      "closed loop, 8 observers x 100 identities: O(n^2) comparison is most "
      "of busy time and planted Sybil pairs force full DTW solves";
  dense.shape = FleetShape{.observers = 8,
                           .identities_per_observer = 100,
                           .pool_identities = 150};

  Workload wide;
  wide.name = "wide_fleet";
  wide.why =
      "closed loop, 112 observers x 10 identities: at most 45 pairs per "
      "round, the largest wire/service/stream/fusion share of busy time";
  // 112, not 128: a boundary's rounds then split 64 + 48 at the service's
  // auto-pump threshold, so the latency median sits inside the first
  // pump's cluster instead of exactly on the edge between two clusters.
  wide.shape = FleetShape{.observers = 112,
                          .identities_per_observer = 10,
                          .pool_identities = 320};

  Workload paced;
  paced.name = "paced_failover";
  paced.why =
      "open loop at a fixed speed-up, 64 observers x 20 identities, 10 s "
      "rounds: conditioning, wire damage and checkpoint failovers";
  paced.shape = FleetShape{.observers = 64,
                           .identities_per_observer = 20,
                           .pool_identities = 320};
  paced.closed_loop = false;
  // 8 x 12.8k beacons/s offered: under half of the ~223k beacons/s this
  // shape sustained when flooded on a 4-vCPU VM, so a host that lends
  // fewer cores for a while slows each pump but does not build a backlog.
  paced.speedup = 8.0;
  paced.round_period_s = 10.0;
  paced.condition = true;
  paced.damage = Damage{.corrupt_share = 0.005, .spike_share = 0.002};
  paced.failover_every_epochs = 4;
  return {dense, wide, paced};
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// One set-up time sample: launches this binary again with --setup-sample
// and reads back the seconds from just before the launch to its first
// frame sent, so every sample pays process start-up and the program's
// one-time costs (the shared thread pool, first allocations).
std::optional<double> setup_sample(const Workload& w, std::uint64_t seed) {
  char self[4096];
  const ssize_t len = readlink("/proc/self/exe", self, sizeof self - 1);
  int fds[2];
  if (len <= 0 || pipe(fds) != 0) return std::nullopt;
  self[len] = '\0';
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  std::string name = w.name;
  std::string seed_arg = std::to_string(seed);
  std::string flag = "--setup-sample";
  std::string workload_flag = "--workload";
  std::string seed_flag = "--seed";
  std::string launched = std::to_string(now_ns());
  char* args[] = {self,           workload_flag.data(), name.data(),
                  seed_flag.data(), seed_arg.data(),    flag.data(),
                  launched.data(), nullptr};
  pid_t pid = 0;
  const int spawned =
      posix_spawn(&pid, self, &actions, nullptr, args, environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string out;
  char buffer[256];
  for (;;) {
    const ssize_t n = read(fds[0], buffer, sizeof buffer);
    if (n > 0) {
      out.append(buffer, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  close(fds[0]);
  if (spawned != 0) return std::nullopt;
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) return std::nullopt;
  char* end = nullptr;
  const double seconds = std::strtod(out.c_str(), &end);
  if (end == out.c_str() || seconds <= 0.0) return std::nullopt;
  return seconds;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

std::string describe(const std::optional<Percentile>& p, std::size_t n) {
  char text[128];
  if (!p) {
    std::snprintf(text, sizeof text,
                  "refused (n=%zu: fewer than 10 samples beyond it)", n);
  } else {
    std::snprintf(text, sizeof text, "%.3f ms (n=%zu, %zu beyond)", p->value,
                  p->samples, p->beyond);
  }
  return text;
}

// The driver thread's ledger grouped by layer, as shares of its wall time.
struct LayerShares {
  double wire, service_stream, core_timeseries, fusion, checkpoint, trace,
      idle, unattributed;
};

LayerShares layer_shares(const RunResult& r) {
  const Ledger& l = r.ledger;
  auto self = [&](const char* name) {
    return static_cast<double>(l.get(name).self_ns);
  };
  const double wall = static_cast<double>(r.loop_ns);
  LayerShares s{};
  s.wire = ratio(self("wire.poll"), wall);
  s.service_stream = ratio(self("wire.drain"), wall);
  s.core_timeseries = ratio(self("service.pump"), wall);
  s.fusion = ratio(self("fusion.observe") + self("fusion.advance"), wall);
  s.checkpoint =
      ratio(self("failover") + self("checkpoint.capture") +
                self("checkpoint.encode") + self("checkpoint.decode") +
                self("checkpoint.restore"),
            wall);
  s.trace = ratio(self("trace.telemetry"), wall);
  s.idle = ratio(self("loop.idle"), wall);
  double attributed = 0.0;
  for (const auto& [name, entry] : l.entries()) {
    attributed += static_cast<double>(entry.self_ns);
  }
  s.unattributed = ratio(wall - attributed, wall);
  return s;
}

std::vector<Metric> per_layer_metrics(const Workload& w, const RunResult& t,
                                      const RunResult& untraced) {
  auto counter = [&](const std::string& name) -> double {
    const auto it = t.counters.find(name);
    return it == t.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  auto hist = [&](const std::string& name) {
    const auto it = t.histograms.find(name);
    return it == t.histograms.end() ? vp::obs::HistogramSnapshot{}
                                    : it->second;
  };
  const vp::obs::HistogramSnapshot pump = hist("service.pump_ns");
  auto self = [&](const char* name) {
    return static_cast<double>(t.ledger.get(name).self_ns);
  };
  auto per_failover = [&](const char* name) {
    return ratio(static_cast<double>(t.ledger.get(name).total_ns),
                 static_cast<double>(t.failovers));
  };

  const vp::service::ServiceConfig config = service_config(w);
  std::vector<double> shard_counts;
  for (std::size_t k = 0; k < config.shards; ++k) {
    shard_counts.push_back(static_cast<double>(
        hist("service.shard" + std::to_string(k) + ".round_ns").count));
  }
  double shard_sum = 0.0;
  for (double c : shard_counts) shard_sum += c;
  const double shard_skew =
      ratio(*std::max_element(shard_counts.begin(), shard_counts.end()),
            shard_sum / static_cast<double>(shard_counts.size()));
  double pool_busy = 0.0;
  for (std::size_t i = 0; i < t.pool.worker_busy_ns.size() && i < config.threads;
       ++i) {
    pool_busy += static_cast<double>(t.pool.worker_busy_ns[i]);
  }
  const double comparable = counter("comparison.pairs_comparable");
  const double pruned = counter("dtw.lb_kim_pruned") +
                        counter("dtw.lb_keogh_pruned") +
                        counter("dtw.fixed_pruned") +
                        counter("dtw.early_abandoned");
  const double frames = static_cast<double>(t.wire.frames_received);
  const LayerShares shares = layer_shares(t);
  const std::optional<Percentile> lag = nearest_rank(t.lag_ms, 0.99);

  return {
      {"wire.poll_ns", self("wire.poll"), "ns"},
      {"wire.ns_per_frame", ratio(self("wire.poll"), frames), "ns/frame"},
      {"wire.bytes_per_poll",
       ratio(static_cast<double>(t.wire.bytes_received),
             static_cast<double>(t.wire.polls)),
       "B/poll"},
      {"wire.frames_received", frames, "count"},
      {"wire.frames_shed_invalid",
       static_cast<double>(t.wire.frames_shed_invalid), "count"},
      {"wire.frames_shed_backpressure",
       static_cast<double>(t.wire.frames_shed_backpressure), "count"},
      {"wire.reject_share",
       ratio(static_cast<double>(t.wire.frames_shed_invalid), frames),
       "ratio"},
      {"service.drain_ns", self("wire.drain"), "ns"},
      {"service.ns_per_beacon",
       ratio(self("wire.drain"), static_cast<double>(t.service.beacons_offered)),
       "ns/beacon"},
      {"service.pump_ns", pump.sum, "ns"},
      {"service.rounds_per_pump",
       ratio(static_cast<double>(t.service.rounds_executed),
             static_cast<double>(t.service.pumps)),
       "rounds/pump"},
      {"service.rounds_shed",
       static_cast<double>(t.service.rounds_shed_queue_full +
                           t.service.rounds_shed_closed),
       "count"},
      {"service.shard_skew", shard_skew, "ratio"},
      {"pool.busy_share",
       ratio(pool_busy, static_cast<double>(config.threads) * pump.sum),
       "ratio"},
      {"pool.submit_wait_ns", static_cast<double>(t.pool.submit_wait_ns), "ns"},
      {"stream.round_ns_mean", hist("stream.round_ns").mean, "ns"},
      {"stream.identities_per_round", hist("stream.round_neighbors").mean,
       "count"},
      {"stream.ring_evictions", counter("stream.ring_evictions"), "count"},
      {"stream.beacons_shed.rate_limited",
       counter("stream.beacons_shed_rate_limited"), "count"},
      {"stream.beacons_shed.identity_cap",
       counter("stream.beacons_shed_identity_cap"), "count"},
      {"stream.beacons_shed.out_of_order",
       counter("stream.beacons_shed_out_of_order"), "count"},
      {"stream.beacons_shed.invalid",
       counter("stream.shed_invalid.rssi_non_finite") +
           counter("stream.shed_invalid.rssi_out_of_range") +
           counter("stream.shed_invalid.time_non_finite") +
           counter("stream.shed_invalid.time_negative"),
       "count"},
      {"stream.beacons_shed.conditioned",
       counter("stream.beacons_shed_conditioned"), "count"},
      {"cond.offered", counter("cond.offered"), "count"},
      {"cond.clamped", counter("cond.clamped"), "count"},
      {"cond.rejected", counter("cond.rejected"), "count"},
      {"core.detect_ns", hist("detect.total_ns").sum, "ns"},
      {"core.sweep_ns", hist("comparison.sweep_ns").sum, "ns"},
      {"core.confirmation_ns", hist("detect.confirmation_ns").sum, "ns"},
      {"core.minmax_ns", hist("comparison.minmax_ns").sum, "ns"},
      {"core.pairs_comparable", comparable, "count"},
      {"core.ns_per_pair", ratio(hist("detect.total_ns").sum, comparable),
       "ns/pair"},
      {"core.pairs_flagged", counter("detect.pairs_flagged"), "count"},
      {"dtw.dp_solves", counter("dtw.dp_solves"), "count"},
      {"dtw.cells_expanded", counter("dtw.cells_expanded"), "count"},
      {"dtw.pair_dtw_ns", hist("comparison.pair_dtw_ns").sum, "ns"},
      {"dtw.full_sweeps", counter("dtw.full_sweeps"), "count"},
      {"dtw.lb_kim_pruned", counter("dtw.lb_kim_pruned"), "count"},
      {"dtw.lb_keogh_pruned", counter("dtw.lb_keogh_pruned"), "count"},
      {"dtw.fixed_pruned", counter("dtw.fixed_pruned"), "count"},
      {"dtw.early_abandoned", counter("dtw.early_abandoned"), "count"},
      {"dtw.prune_share", ratio(pruned, comparable), "ratio"},
      {"fusion.observe_ns", self("fusion.observe"), "ns"},
      {"fusion.advance_ns", self("fusion.advance"), "ns"},
      {"fusion.votes_cast", static_cast<double>(t.fusion.votes_cast), "count"},
      {"fusion.epochs_closed", static_cast<double>(t.fusion.epochs_closed),
       "count"},
      {"fusion.rounds_expired", static_cast<double>(t.fusion.rounds_expired),
       "count"},
      {"checkpoint.capture_ns", per_failover("checkpoint.capture"), "ns"},
      {"checkpoint.encode_ns", per_failover("checkpoint.encode"), "ns"},
      {"checkpoint.decode_ns", per_failover("checkpoint.decode"), "ns"},
      {"checkpoint.restore_ns", per_failover("checkpoint.restore"), "ns"},
      {"checkpoint.bytes",
       ratio(static_cast<double>(t.checkpoint_bytes),
             static_cast<double>(t.failovers)),
       "B"},
      {"failover.stall_ns", per_failover("failover"), "ns"},
      {"generator.lag_ms_p99", lag ? lag->value : 0.0, "ms"},
      {"generator.busy_share", t.generator_busy_share, "ratio"},
      {"loop.idle_share", shares.idle, "ratio"},
      {"loop.unattributed_share", shares.unattributed, "ratio"},
      {"trace.overhead_share",
       1.0 - ratio(t.beacons_per_cpu_s(), untraced.beacons_per_cpu_s()),
       "ratio"},
  };
}

void print_ledger(const RunResult& r) {
  std::printf("ledger: driver-loop wall %.3f s, self time by span:\n",
              static_cast<double>(r.loop_ns) / 1e9);
  for (const auto& [name, entry] : r.ledger.entries()) {
    std::printf("ledger:   %-20s %9llu calls %10.3f ms  %6.2f%%\n",
                name.c_str(), static_cast<unsigned long long>(entry.count),
                static_cast<double>(entry.self_ns) / 1e6,
                100.0 * ratio(static_cast<double>(entry.self_ns),
                              static_cast<double>(r.loop_ns)));
  }
  const LayerShares s = layer_shares(r);
  const double busy = 1.0 - s.idle;
  std::printf(
      "ledger: share of busy time: wire %.1f%%, service+stream %.1f%%, "
      "core+timeseries %.1f%%, fusion %.1f%%, checkpoint %.1f%%, "
      "trace %.1f%%; idle %.1f%% of wall, unattributed %.2f%%\n",
      100.0 * ratio(s.wire, busy), 100.0 * ratio(s.service_stream, busy),
      100.0 * ratio(s.core_timeseries, busy), 100.0 * ratio(s.fusion, busy),
      100.0 * ratio(s.checkpoint, busy), 100.0 * ratio(s.trace, busy),
      100.0 * s.idle, 100.0 * s.unattributed);
}

int usage() {
  std::fprintf(stderr,
               "usage: pipebench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1>\n       pipebench --self-test\nworkloads:");
  for (const Workload& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::int64_t launched_ns = 0;  // set in a set-up sample process
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") return self_test() ? 0 : 1;
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      name = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value, &end, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(value, &end);
    } else if (arg == "--trace") {
      trace = static_cast<int>(std::strtol(value, &end, 10));
    } else if (arg == "--setup-sample") {
      launched_ns = std::strtoll(value, &end, 10);
    } else {
      return usage();
    }
    if (end != nullptr && *end != '\0') return usage();
  }
  const std::vector<Workload> all = workloads();
  const auto found = std::find_if(all.begin(), all.end(), [&](const Workload& w) {
    return name == w.name;
  });
  if (found == all.end() || seconds <= 0.0 || (trace != 0 && trace != 1)) {
    return usage();
  }
  const Workload& w = *found;
  if (launched_ns > 0) {
    RunResult sample = run_workload(w, seed, seconds, false, launched_ns);
    check_laws(sample);
    for (const std::string& v : sample.violations) {
      std::fprintf(stderr, "pipebench: FAILED: %s\n", v.c_str());
    }
    if (!sample.violations.empty()) return 1;
    std::printf("%.17g\n", sample.setup_s);
    return 0;
  }
  std::printf("workload: %s (seed %llu, %.1f s, trace %d)\n", w.name,
              static_cast<unsigned long long>(seed), seconds, trace);
  std::printf("why: %s\n", w.why);

  std::vector<std::string> failures;
  std::vector<double> setups;
  std::optional<RunResult> untraced;
  std::optional<RunResult> traced;
  // Half the set-up samples before the measured run and half after it, so
  // a burst of load on a shared host skews at most one half.
  auto take_setup_samples = [&](int count) {
    for (int i = 0; i < count && trace == 0; ++i) {
      const std::optional<double> sample = setup_sample(w, seed);
      if (!sample) {
        failures.push_back("set-up sample process failed");
        break;
      }
      setups.push_back(*sample);
    }
  };
  take_setup_samples(kSetupSamples / 2 + 1);
  // A traced invocation splits its time between an untraced and a traced
  // pass of the same workload and seed (the overhead baseline), so both
  // kinds of invocation take about --seconds.
  const double pass_s = trace == 1 ? seconds / 2.0 : seconds;
  untraced = run_workload(w, seed, pass_s, false);
  // Before the traced pass and the self-test, so it covers the measured
  // pipeline and nothing else.
  const double rss = peak_rss_mb();
  take_setup_samples(kSetupSamples / 2);
  if (trace == 1) traced = run_workload(w, seed, pass_s, true);
  for (RunResult* r : {&*untraced, traced ? &*traced : nullptr}) {
    if (r == nullptr) continue;
    check_laws(*r);
    for (const std::string& v : r->violations) failures.push_back(v);
  }
  if (!self_test()) failures.push_back("reference parity / generator pin");

  // End-to-end metrics always come from the untraced run.
  const RunResult& r = *untraced;
  const double dr = r.score.detection_rate();
  const double fpr = r.score.false_positive_rate();
  const double error_rate = ratio(static_cast<double>(r.failed()),
                                  static_cast<double>(r.beacons_offered));
  const std::optional<Percentile> p50 = nearest_rank(r.latency_ms, 0.50);
  const std::optional<Percentile> p99 = nearest_rank(r.latency_ms, 0.99);
  const double setup_s = setups.empty() ? 0.0 : median(setups);

  std::printf("fleet: %zu observers x %zu identities, %llu positives scored "
              "of %llu verdicts, stream ran to %.1f s\n",
              w.shape.observers, w.shape.identities_per_observer,
              static_cast<unsigned long long>(r.score.positives),
              static_cast<unsigned long long>(r.score.positives +
                                              r.score.negatives),
              r.stream_end_s);
  std::printf("counts: %llu beacons offered, %llu ingested, %llu rounds, "
              "%llu epochs, %llu failovers, %llu corrupted frames, "
              "%llu spikes\n",
              static_cast<unsigned long long>(r.beacons_offered),
              static_cast<unsigned long long>(r.wire.beacons_ingested),
              static_cast<unsigned long long>(r.service.rounds_executed),
              static_cast<unsigned long long>(r.fusion.epochs_closed),
              static_cast<unsigned long long>(r.failovers),
              static_cast<unsigned long long>(r.corrupted),
              static_cast<unsigned long long>(r.spiked));
  std::printf("metric beacons_per_cpu_s = %.1f beacons/cpu-s (%.3f CPU s)\n",
              r.beacons_per_cpu_s(), r.cpu_s);
  std::printf("metric beacons_per_s = %.1f beacons/s (wall)\n",
              r.beacons_per_s());
  std::printf("metric verdict_latency_p50_ms = %s\n",
              describe(p50, r.latency_ms.size()).c_str());
  std::printf("metric verdict_latency_p99_ms = %s\n",
              describe(p99, r.latency_ms.size()).c_str());
  std::printf("metric detection_rate = %.4f\n", dr);
  std::printf("metric false_positive_rate = %.4f\n", fpr);
  std::printf("metric error_rate = %.6f\n", error_rate);
  if (trace == 0) {
    std::printf("metric setup_s = %.6f s (median of %zu processes)\n",
                setup_s, setups.size());
  }
  std::printf("metric peak_rss_mb = %.1f MB\n", rss);

  const LayerShares loop = layer_shares(r);
  const std::optional<Percentile> lag = nearest_rank(r.lag_ms, 0.99);
  std::printf("validity: loop.idle_share = %.3f (%s)\n", loop.idle,
              w.closed_loop ? (loop.idle > 0.2 ? "generator-bound"
                                               : "pipeline-bound")
                            : "open loop");
  std::printf("validity: generator.busy_share = %.3f\n",
              r.generator_busy_share);
  if (!w.closed_loop) {
    std::printf("validity: generator.lag_ms_p99 = %s\n",
                describe(lag, r.lag_ms.size()).c_str());
  }

  const RunResult* scored[] = {&r, traced ? &*traced : nullptr};
  for (const RunResult* run : scored) {
    if (run != nullptr && run->score.detection_rate() -
                                  run->score.false_positive_rate() <
                              kMinYouden) {
      failures.push_back("planted-truth scoring: detection_rate - "
                         "false_positive_rate < 0.5");
    }
  }
  if (!p50) failures.push_back("too few rounds for a latency median");
  std::vector<Metric> metrics;
  if (traced) {
    metrics = per_layer_metrics(w, *traced, r);
    print_ledger(*traced);
    const double unattributed = layer_shares(*traced).unattributed;
    std::printf("validity: loop.unattributed_share = %.4f\n", unattributed);
    std::printf("validity: health alerts = %llu\n",
                static_cast<unsigned long long>(traced->health_alerts));
    if (traced->health_alerts > 0) failures.push_back("health alerts raised");
    if (unattributed > kMaxUnattributed) {
      failures.push_back("unattributed driver time above 5%");
    }
  } else {
    metrics = {
        {"beacons_per_cpu_s", r.beacons_per_cpu_s(), "beacons/cpu-s"},
        {"detection_rate", dr, "ratio"},
        {"setup_s", setup_s, "s"},
        {"peak_rss_mb", rss, "MB"},
    };
  }

  if (!failures.empty()) {
    for (const std::string& f : failures) {
      std::fprintf(stderr, "pipebench: FAILED: %s\n", f.c_str());
    }
    return 1;
  }
  const RunResult& counted = traced ? *traced : r;
  print_json(true, counted.beacons_offered, counted.failed(), metrics);
  return 0;
}
