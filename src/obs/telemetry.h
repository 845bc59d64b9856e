// Continuous telemetry for the detection pipeline (DESIGN.md §12): the
// MetricsRegistry, which PR 2 only reported at end-of-run, becomes a
// stream of delta-encoded JSONL frames emitted on *deterministic*
// boundaries — every N confirmation rounds and/or every T seconds of
// stream clock, never wall clock — so a frame sequence is bit-reproducible
// from (seed, cadence) regardless of thread count or machine load.
//
// Frame schema "voiceprint.telemetry/v1" (one compact JSON object per
// line):
//   {
//     "schema": "voiceprint.telemetry/v1",
//     "seq": <frame sequence number, continuous across kill/restore>,
//     "stream_time_s": <stream clock, monotonically non-decreasing>,
//     "rounds_observed": <confirmation rounds seen so far>,
//     "counters": { "<name>": <delta since previous frame>, ... },
//     "gauges":   { "<name>": <instantaneous value>, ... },
//     "histograms": { "<name>": {count,sum,min,max,mean,p50,p95,p99,
//                                rejected}, ... },
//     "timing":     { ...same shape... },
//     "alerts": [ { "invariant": "<name>", "detail": "<text>" }, ... ]
//   }
// Counters appear only when their delta is non-zero (a negative delta is
// emitted too — it is a bug, and the validator flags it). The
// "histograms" section holds the count-valued distributions (suspect
// counts, neighbour counts, queue depths), which are deterministic;
// wall-clock latency histograms — every name ending in "_ns" — go into
// "timing", which is excluded from the bit-identity contract.
// deterministic_form() strips that section plus the two
// "dtw.workspace_*" counters (per-worker scratch sums, so they track
// how many workers ran, not what was computed).
//
// HealthMonitor evaluates registered invariants against every frame:
// counter monotonicity plus the pipeline's conservation laws (stream and
// service admission, round and session accounting, the fault injector's
// in/out law, and the DTW tier partition). Violations become structured
// alert events inside the frame and are aggregated into an end-of-run
// summary that RunSession folds into the run report.
#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"

namespace vp {
struct RunFlags;
}

namespace vp::obs {

struct TelemetryConfig {
  std::string path;  // JSONL sink; empty → frames feed only the monitor
  // Emit a frame every N confirmation rounds (0 disables the round
  // cadence) and/or every T seconds of stream clock (0 disables the
  // stream-clock cadence). Both are deterministic boundaries.
  std::uint64_t every_rounds = 1;
  double every_stream_s = 0.0;
  // Resume support: with first_seq > 0 the file is opened in append mode
  // and frame numbering continues from first_seq (kill/restore).
  std::uint64_t first_seq = 0;
  std::string openmetrics_path;  // final snapshot, Prometheus text format
};

struct HealthAlert {
  std::string invariant;
  std::string detail;
};

// What an invariant check sees for one frame. `counters` are cumulative
// registry values at the frame boundary; `deltas` are changes since the
// previous frame (negative on counter regression); `gauges` are
// instantaneous. Missing names read as zero.
struct FrameView {
  std::uint64_t seq = 0;
  double stream_time_s = 0.0;
  const std::map<std::string, std::uint64_t>* counters = nullptr;
  const std::map<std::string, std::int64_t>* deltas = nullptr;
  const std::map<std::string, double>* gauges = nullptr;

  std::uint64_t counter(const std::string& name) const;
  double gauge(const std::string& name) const;
};

// One conservation law: sum(lhs counters) must equal sum(rhs counters) +
// sum(rhs gauges, rounded) at every frame boundary. `skip_if_rhs_zero`
// marks laws whose right side is only populated on some code paths. Only
// the detector's sweep (compare_series_pruned, including its
// reference-sweep fallback, which tallies every comparable pair as a full
// sweep) writes the DTW tier counters; a process that only calls the
// reference sweep compare_series itself (Fig. 10 training, printed
// distances) counts comparable pairs with no tiers, so that law only
// binds once any tier counter is non-zero.
struct ConservationLaw {
  const char* name;
  std::vector<const char*> lhs;
  std::vector<const char*> rhs;
  std::vector<const char*> rhs_gauges;
  bool skip_if_rhs_zero = false;
};

// The pipeline's conservation laws — the single table shared by the
// HealthMonitor (live, in-process) and the TelemetryValidator (offline,
// in check_run_report --telemetry), so the two can never drift apart.
const std::vector<ConservationLaw>& conservation_laws();

// Evaluates registered invariants once per frame and accumulates an
// alert summary. Not thread-safe; drive it from the thread that emits
// frames (the TelemetryExporter does exactly that).
class HealthMonitor {
 public:
  using Check = std::function<std::optional<std::string>(const FrameView&)>;

  void add_invariant(std::string name, Check check);

  // Monitor pre-loaded with counter monotonicity plus every law in
  // conservation_laws().
  static HealthMonitor with_default_invariants();

  // Runs every invariant against `frame`; returns (and accumulates) the
  // alerts it raised.
  std::vector<HealthAlert> evaluate(const FrameView& frame);

  std::uint64_t frames_evaluated() const { return frames_evaluated_; }
  std::uint64_t alerts_total() const { return alerts_total_; }
  const std::map<std::string, std::uint64_t>& alerts_by_invariant() const {
    return alerts_by_invariant_;
  }

  // End-of-run summary for the run report's extra block:
  //   { "frames": n, "alerts": n, "by_invariant": {name: n, ...},
  //     "recent": [ {invariant, detail}, ... ] }   (recent capped at 32)
  json::Value summary() const;

 private:
  struct Invariant {
    std::string name;
    Check check;
  };
  std::vector<Invariant> invariants_;
  std::uint64_t frames_evaluated_ = 0;
  std::uint64_t alerts_total_ = 0;
  std::map<std::string, std::uint64_t> alerts_by_invariant_;
  std::vector<HealthAlert> recent_;
};

// Snapshots the global registry into telemetry frames.
//
// Clocking: the exporter never looks at wall clock. Round boundaries are
// reported via on_round() (from a stream/service round callback);
// stream-clock progress via sample(), which the driver calls from its
// ingest loop with the current stream time. Frames are *emitted* from
// sample() — a quiescent point where no beacon is mid-admission — so
// every conservation law holds exactly on every frame. on_round() only
// marks the boundary; the frame appears at the next sample()/finish().
class TelemetryExporter {
 public:
  // Opens the sink (throws InvalidArgument when the file cannot be
  // opened) and enables obs collection when the config is active. The
  // registry is NOT reset — a restored process continues its counters.
  explicit TelemetryExporter(TelemetryConfig config);
  ~TelemetryExporter();

  TelemetryExporter(const TelemetryExporter&) = delete;
  TelemetryExporter& operator=(const TelemetryExporter&) = delete;

  bool active() const {
    return file_open_ || monitor_ != nullptr ||
           !config_.openmetrics_path.empty();
  }

  // Attaches a HealthMonitor evaluated on every emitted frame; the
  // monitor must outlive the exporter. Enables obs collection.
  void set_monitor(HealthMonitor* monitor);

  // Marks a confirmation-round boundary at stream time `stream_time_s`.
  void on_round(double stream_time_s);

  // Advances the stream clock and emits any pending frame. Cheap (two
  // branches) when nothing is due.
  void sample(double stream_time_s);

  // Emits a frame unconditionally (stress probes, tests).
  void emit_now(double stream_time_s);

  // Emits the final frame, writes the OpenMetrics snapshot when
  // configured, and closes the sink. Idempotent; the destructor calls it
  // with the last seen stream time.
  void finish(double stream_time_s);

  std::uint64_t frames_emitted() const { return frames_; }
  std::uint64_t next_seq() const { return seq_; }

 private:
  void emit(double stream_time_s);

  TelemetryConfig config_;
  std::ofstream out_;
  bool file_open_ = false;
  HealthMonitor* monitor_ = nullptr;
  std::uint64_t seq_ = 0;
  std::uint64_t frames_ = 0;
  std::uint64_t rounds_seen_ = 0;
  double next_tick_s_ = 0.0;  // next stream-clock boundary (+inf when off)
  double last_time_s_ = 0.0;
  bool pending_ = false;
  double pending_time_s_ = 0.0;
  bool finished_ = false;
  std::map<std::string, std::uint64_t> prev_counters_;
};

// Frame minus its "timing" section and the "dtw.workspace_*" counters —
// the part covered by the bit-identity contract (equal across thread
// counts and across kill/restore).
json::Value deterministic_form(const json::Value& frame);

// Writes the registry's final snapshot in Prometheus/OpenMetrics text
// exposition: counters as `<name>_total`, gauges as gauges, histograms as
// summaries with p50/p95/p99 quantile labels. Metric names are sanitised
// ('.' and any other non-[a-zA-Z0-9_:] byte → '_').
void write_openmetrics(const MetricsRegistry& registry,
                       const std::string& path);

// Offline frame-stream checker (check_run_report --telemetry): schema,
// sequence continuity, stream-clock monotonicity, counter monotonicity
// (non-negative whole deltas), histogram shape, and every conservation
// law re-evaluated against the accumulated counter totals per frame.
// Feed frames in file order; finish() requires at least one frame.
class TelemetryValidator {
 public:
  // `first_seq`: expected sequence number of the first frame (0 for a
  // fresh stream).
  explicit TelemetryValidator(std::uint64_t first_seq = 0);

  bool check_frame(const json::Value& frame, std::string* error);
  bool finish(std::string* error) const;

  std::uint64_t frames() const { return frames_; }
  std::uint64_t alerts_seen() const { return alerts_; }

 private:
  std::uint64_t next_seq_;
  double last_time_s_ = 0.0;
  double last_rounds_ = 0.0;
  std::uint64_t frames_ = 0;
  std::uint64_t alerts_ = 0;
  std::map<std::string, std::uint64_t> totals_;
};

// Maps the shared run flags (--telemetry-out / --telemetry-every /
// --telemetry-every-s / --openmetrics-out) onto a TelemetryConfig.
TelemetryConfig telemetry_config_from_flags(const RunFlags& flags);

}  // namespace vp::obs
