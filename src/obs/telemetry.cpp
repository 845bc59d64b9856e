#include "obs/telemetry.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "common/cli.h"
#include "common/error.h"
#include "obs/report.h"
#include "obs/runtime.h"

namespace vp::obs {

namespace {

constexpr char kSchema[] = "voiceprint.telemetry/v1";
constexpr double kInf = std::numeric_limits<double>::infinity();

// Whole number (possibly negative): counter deltas and sequence fields.
bool is_whole(const json::Value& v) {
  return v.is_number() && std::isfinite(v.as_number()) &&
         v.as_number() == std::floor(v.as_number());
}

std::string sanitize_metric_name(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  return out;
}

std::string format_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::uint64_t FrameView::counter(const std::string& name) const {
  if (counters == nullptr) return 0;
  const auto it = counters->find(name);
  return it == counters->end() ? 0 : it->second;
}

double FrameView::gauge(const std::string& name) const {
  if (gauges == nullptr) return 0.0;
  const auto it = gauges->find(name);
  return it == gauges->end() ? 0.0 : it->second;
}

const std::vector<ConservationLaw>& conservation_laws() {
  // Every unit offered to a stage is ingested, shed into a counted bucket,
  // or sitting in a counted buffer (the gauge terms) — nothing vanishes.
  // The DTW tier partition binds only where the cascade ran: the
  // reference sweep core::compare_series, called directly, tallies
  // comparable pairs but no tier counters, hence skip_if_rhs_zero.
  static const std::vector<ConservationLaw> laws = {
      {"conservation.stream.beacons",
       {"stream.beacons_offered"},
       {"stream.beacons_ingested", "stream.beacons_shed_rate_limited",
        "stream.beacons_shed_identity_cap",
        "stream.beacons_shed_out_of_order",
        "stream.beacons_shed_conditioned",
        "stream.shed_invalid.rssi_non_finite",
        "stream.shed_invalid.rssi_out_of_range",
        "stream.shed_invalid.time_non_finite",
        "stream.shed_invalid.time_negative"},
       {},
       false},
      // §15 conditioning: every sample offered to the Hampel stage lands
      // in exactly one verdict bucket. Vacuous (all zero) with
      // conditioning off, so the law binds only when the stage runs.
      {"conservation.cond.samples",
       {"cond.offered"},
       {"cond.passed", "cond.clamped", "cond.rejected"},
       {},
       false},
      {"conservation.service.beacons",
       {"service.beacons_offered"},
       {"service.beacons_ingested", "service.beacons_shed_session_cap",
        "service.beacons_shed_rate_limited",
        "service.beacons_shed_identity_cap",
        "service.beacons_shed_out_of_order", "service.beacons_shed_invalid",
        "service.beacons_shed_conditioned"},
       {},
       false},
      {"conservation.service.rounds",
       {"service.rounds_prepared"},
       {"service.rounds_executed", "service.rounds_shed_queue_full",
        "service.rounds_shed_closed"},
       {"service.queued_rounds"},
       false},
      {"conservation.service.sessions",
       {"service.sessions_opened"},
       {"service.sessions_closed", "service.sessions_evicted_idle"},
       {"service.sessions_active"},
       false},
      {"conservation.fusion.rounds",
       {"fusion.rounds_delivered"},
       {"fusion.rounds_fused", "fusion.rounds_expired"},
       {"fusion.rounds_pending"},
       false},
      {"conservation.wire.frames",
       {"wire.frames_received"},
       {"wire.frames_ingested", "wire.frames_shed_invalid",
        "wire.frames_shed_backpressure"},
       {"wire.frames_buffered"},
       false},
      {"conservation.fault.beacons",
       {"fault.offered", "fault.duplicated", "fault.flood_injected"},
       {"fault.emitted", "fault.dropped", "fault.burst_dropped"},
       {"fault.held"},
       false},
      {"conservation.dtw.tiers",
       {"comparison.pairs_comparable"},
       {"dtw.lb_kim_pruned", "dtw.lb_keogh_pruned", "dtw.early_abandoned",
        "dtw.full_sweeps"},
       {},
       true},
  };
  return laws;
}

void HealthMonitor::add_invariant(std::string name, Check check) {
  invariants_.push_back(Invariant{std::move(name), std::move(check)});
}

HealthMonitor HealthMonitor::with_default_invariants() {
  HealthMonitor monitor;
  monitor.add_invariant(
      "counter_monotonic",
      [](const FrameView& frame) -> std::optional<std::string> {
        if (frame.deltas == nullptr) return std::nullopt;
        for (const auto& [name, delta] : *frame.deltas) {
          if (delta < 0) {
            return name + " shrank by " + std::to_string(-delta);
          }
        }
        return std::nullopt;
      });
  for (const ConservationLaw& law : conservation_laws()) {
    monitor.add_invariant(
        law.name, [&law](const FrameView& frame) -> std::optional<std::string> {
          std::uint64_t lhs = 0;
          for (const char* name : law.lhs) lhs += frame.counter(name);
          std::uint64_t rhs_counters = 0;
          for (const char* name : law.rhs) rhs_counters += frame.counter(name);
          std::int64_t rhs_gauges = 0;
          for (const char* name : law.rhs_gauges) {
            rhs_gauges += std::llround(frame.gauge(name));
          }
          if (law.skip_if_rhs_zero && rhs_counters == 0 && rhs_gauges == 0) {
            return std::nullopt;
          }
          const std::int64_t rhs =
              static_cast<std::int64_t>(rhs_counters) + rhs_gauges;
          if (static_cast<std::int64_t>(lhs) != rhs) {
            return "lhs=" + std::to_string(lhs) +
                   " rhs=" + std::to_string(rhs);
          }
          return std::nullopt;
        });
  }
  return monitor;
}

std::vector<HealthAlert> HealthMonitor::evaluate(const FrameView& frame) {
  ++frames_evaluated_;
  std::vector<HealthAlert> alerts;
  for (const Invariant& invariant : invariants_) {
    std::optional<std::string> detail = invariant.check(frame);
    if (!detail.has_value()) continue;
    alerts.push_back(HealthAlert{invariant.name, std::move(*detail)});
  }
  for (const HealthAlert& alert : alerts) {
    ++alerts_total_;
    ++alerts_by_invariant_[alert.invariant];
    if (recent_.size() >= 32) recent_.erase(recent_.begin());
    recent_.push_back(alert);
  }
  return alerts;
}

json::Value HealthMonitor::summary() const {
  json::Object summary;
  summary.emplace("frames", json::Value(frames_evaluated_));
  summary.emplace("alerts", json::Value(alerts_total_));
  json::Object by_invariant;
  for (const auto& [name, count] : alerts_by_invariant_) {
    by_invariant.emplace(name, json::Value(count));
  }
  summary.emplace("by_invariant", json::Value(std::move(by_invariant)));
  json::Array recent;
  for (const HealthAlert& alert : recent_) {
    json::Object event;
    event.emplace("invariant", json::Value(alert.invariant));
    event.emplace("detail", json::Value(alert.detail));
    recent.emplace_back(json::Value(std::move(event)));
  }
  summary.emplace("recent", json::Value(std::move(recent)));
  return json::Value(std::move(summary));
}

TelemetryExporter::TelemetryExporter(TelemetryConfig config)
    : config_(std::move(config)), seq_(config_.first_seq) {
  if (!config_.path.empty()) {
    const auto mode = config_.first_seq > 0
                          ? std::ios::out | std::ios::app
                          : std::ios::out | std::ios::trunc;
    out_.open(config_.path, mode);
    if (!out_) {
      throw InvalidArgument("cannot open telemetry file: " + config_.path);
    }
    file_open_ = true;
  }
  next_tick_s_ = config_.every_stream_s > 0.0 ? config_.every_stream_s : kInf;
  if (active()) enable();
}

TelemetryExporter::~TelemetryExporter() {
  try {
    finish(last_time_s_);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "telemetry: %s\n", e.what());
  }
}

void TelemetryExporter::set_monitor(HealthMonitor* monitor) {
  monitor_ = monitor;
  if (active()) enable();
}

void TelemetryExporter::on_round(double stream_time_s) {
  if (!active() || finished_) return;
  ++rounds_seen_;
  if (config_.every_rounds > 0 && rounds_seen_ % config_.every_rounds == 0) {
    pending_ = true;
    pending_time_s_ = std::max(pending_time_s_, stream_time_s);
  }
}

void TelemetryExporter::sample(double stream_time_s) {
  if (!active() || finished_) return;
  if (stream_time_s >= next_tick_s_) {
    while (next_tick_s_ <= stream_time_s) {
      next_tick_s_ += config_.every_stream_s;
    }
    pending_ = true;
    pending_time_s_ = std::max(pending_time_s_, stream_time_s);
  }
  if (pending_) emit(pending_time_s_);
}

void TelemetryExporter::emit_now(double stream_time_s) {
  if (!active() || finished_) return;
  emit(stream_time_s);
}

void TelemetryExporter::finish(double stream_time_s) {
  if (!active() || finished_) return;
  emit(std::max(stream_time_s, last_time_s_));
  finished_ = true;
  if (!config_.openmetrics_path.empty()) {
    write_openmetrics(registry(), config_.openmetrics_path);
  }
  if (file_open_) out_.flush();
}

void TelemetryExporter::emit(double stream_time_s) {
  const double t = std::max(stream_time_s, last_time_s_);
  last_time_s_ = t;
  pending_ = false;
  pending_time_s_ = t;

  MetricsRegistry& reg = registry();
  const std::map<std::string, std::uint64_t> counters = reg.counters();
  const std::map<std::string, double> gauges = reg.gauges();
  const std::map<std::string, HistogramSnapshot> histograms =
      reg.histograms();

  std::map<std::string, std::int64_t> deltas;
  json::Object counter_deltas;
  for (const auto& [name, value] : counters) {
    const auto it = prev_counters_.find(name);
    const std::uint64_t prev = it == prev_counters_.end() ? 0 : it->second;
    const std::int64_t delta = static_cast<std::int64_t>(value) -
                               static_cast<std::int64_t>(prev);
    deltas.emplace(name, delta);
    if (delta != 0) counter_deltas.emplace(name, json::Value(delta));
  }
  prev_counters_ = counters;

  json::Object gauge_obj;
  for (const auto& [name, value] : gauges) {
    gauge_obj.emplace(name, json::Value(value));
  }

  json::Object hist_obj;
  json::Object timing_obj;
  for (const auto& [name, snapshot] : histograms) {
    json::Object& section = name.ends_with("_ns") ? timing_obj : hist_obj;
    section.emplace(name, histogram_to_json(snapshot));
  }

  json::Array alerts;
  if (monitor_ != nullptr) {
    FrameView view;
    view.seq = seq_;
    view.stream_time_s = t;
    view.counters = &counters;
    view.deltas = &deltas;
    view.gauges = &gauges;
    for (const HealthAlert& alert : monitor_->evaluate(view)) {
      json::Object event;
      event.emplace("invariant", json::Value(alert.invariant));
      event.emplace("detail", json::Value(alert.detail));
      alerts.emplace_back(json::Value(std::move(event)));
    }
  }

  json::Object frame;
  frame.emplace("schema", json::Value(kSchema));
  frame.emplace("seq", json::Value(seq_));
  frame.emplace("stream_time_s", json::Value(t));
  frame.emplace("rounds_observed", json::Value(rounds_seen_));
  frame.emplace("counters", json::Value(std::move(counter_deltas)));
  frame.emplace("gauges", json::Value(std::move(gauge_obj)));
  frame.emplace("histograms", json::Value(std::move(hist_obj)));
  frame.emplace("timing", json::Value(std::move(timing_obj)));
  frame.emplace("alerts", json::Value(std::move(alerts)));

  if (file_open_) {
    // Flushed per frame so a live `vp_top` (or a post-crash validator)
    // only ever sees complete lines.
    out_ << json::Value(std::move(frame)).dump(0) << "\n";
    out_.flush();
  }
  ++seq_;
  ++frames_;
}

json::Value deterministic_form(const json::Value& frame) {
  json::Value out = frame;
  if (!out.is_object()) return out;
  out.as_object().erase("timing");
  // The workspace counters sum per-worker scratch: how many DTW
  // workspaces grew depends on how many workers ran the sweep, so like
  // wall-clock timing they are execution artifacts, not results.
  const json::Value* counters = out.find("counters");
  if (counters != nullptr && counters->is_object()) {
    json::Object& obj = out.as_object().at("counters").as_object();
    obj.erase("dtw.workspace_grows");
    obj.erase("dtw.workspace_reuse_hits");
  }
  return out;
}

void write_openmetrics(const MetricsRegistry& registry,
                       const std::string& path) {
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  if (!out) throw InvalidArgument("cannot open openmetrics file: " + path);
  for (const auto& [name, value] : registry.counters()) {
    const std::string metric = sanitize_metric_name(name);
    out << "# TYPE " << metric << "_total counter\n";
    out << metric << "_total " << value << "\n";
  }
  for (const auto& [name, value] : registry.gauges()) {
    const std::string metric = sanitize_metric_name(name);
    out << "# TYPE " << metric << " gauge\n";
    out << metric << " " << format_number(value) << "\n";
  }
  // Histograms ship as summaries: the fixed-bucket histograms keep exact
  // count/sum plus interpolated quantiles, which maps onto the summary
  // type without exposing internal bucket layout.
  for (const auto& [name, s] : registry.histograms()) {
    const std::string metric = sanitize_metric_name(name);
    out << "# TYPE " << metric << " summary\n";
    out << metric << "{quantile=\"0.5\"} " << format_number(s.p50) << "\n";
    out << metric << "{quantile=\"0.95\"} " << format_number(s.p95) << "\n";
    out << metric << "{quantile=\"0.99\"} " << format_number(s.p99) << "\n";
    out << metric << "_sum " << format_number(s.sum) << "\n";
    out << metric << "_count " << s.count << "\n";
  }
  out << "# EOF\n";
  if (!out) throw InvalidArgument("failed writing openmetrics file: " + path);
}

TelemetryValidator::TelemetryValidator(std::uint64_t first_seq)
    : next_seq_(first_seq) {}

bool TelemetryValidator::check_frame(const json::Value& frame,
                                     std::string* error) {
  if (!frame.is_object()) return fail(error, "frame: not a JSON object");
  const json::Value* schema = frame.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != kSchema) {
    return fail(error, std::string("frame: schema is not ") + kSchema);
  }
  const json::Value* seq = frame.find("seq");
  if (seq == nullptr || !is_whole(*seq) || seq->as_number() < 0) {
    return fail(error, "frame: missing count 'seq'");
  }
  const auto seq_value = static_cast<std::uint64_t>(seq->as_number());
  if (seq_value != next_seq_) {
    return fail(error, "frame: sequence gap: expected seq " +
                           std::to_string(next_seq_) + ", got " +
                           std::to_string(seq_value));
  }
  const json::Value* time = frame.find("stream_time_s");
  if (time == nullptr || !time->is_number() ||
      !std::isfinite(time->as_number())) {
    return fail(error, "frame: missing finite number 'stream_time_s'");
  }
  if (frames_ > 0 && time->as_number() < last_time_s_) {
    return fail(error, "frame seq " + std::to_string(seq_value) +
                           ": stream clock went backwards");
  }
  const json::Value* rounds = frame.find("rounds_observed");
  if (rounds == nullptr || !is_whole(*rounds) || rounds->as_number() < 0) {
    return fail(error, "frame: missing count 'rounds_observed'");
  }
  if (frames_ > 0 && rounds->as_number() < last_rounds_) {
    return fail(error, "frame seq " + std::to_string(seq_value) +
                           ": rounds_observed regressed");
  }

  const json::Value* counters = frame.find("counters");
  if (counters == nullptr || !counters->is_object()) {
    return fail(error, "frame: missing object 'counters'");
  }
  for (const auto& [name, delta] : counters->as_object()) {
    if (!is_whole(delta)) {
      return fail(error, "counter " + name + ": delta not a whole number");
    }
    if (delta.as_number() < 0) {
      return fail(error, "counter " + name + ": regressed by " +
                             std::to_string(-delta.as_number()) + " at seq " +
                             std::to_string(seq_value));
    }
    totals_[name] += static_cast<std::uint64_t>(delta.as_number());
  }

  const json::Value* gauges = frame.find("gauges");
  if (gauges == nullptr || !gauges->is_object()) {
    return fail(error, "frame: missing object 'gauges'");
  }
  for (const auto& [name, value] : gauges->as_object()) {
    if (!value.is_number()) {
      return fail(error, "gauge " + name + ": not a number");
    }
  }

  for (const char* section : {"histograms", "timing"}) {
    const json::Value* v = frame.find(section);
    if (v == nullptr || !v->is_object()) {
      return fail(error,
                  std::string("frame: missing object '") + section + "'");
    }
    for (const auto& [name, hist] : v->as_object()) {
      if (!validate_histogram_json(name, hist, error)) return false;
    }
  }

  const json::Value* alerts = frame.find("alerts");
  if (alerts == nullptr || !alerts->is_array()) {
    return fail(error, "frame: missing array 'alerts'");
  }
  for (const json::Value& alert : alerts->as_array()) {
    const json::Value* invariant =
        alert.is_object() ? alert.find("invariant") : nullptr;
    const json::Value* detail =
        alert.is_object() ? alert.find("detail") : nullptr;
    if (invariant == nullptr || !invariant->is_string() || detail == nullptr ||
        !detail->is_string()) {
      return fail(error, "frame: malformed alert event at seq " +
                             std::to_string(seq_value));
    }
    ++alerts_;
  }

  // Conservation laws against the accumulated counter totals, with the
  // frame's gauge values as the instantaneous terms.
  auto total = [this](const char* name) -> std::uint64_t {
    const auto it = totals_.find(name);
    return it == totals_.end() ? 0 : it->second;
  };
  auto gauge_value = [gauges](const char* name) -> double {
    const json::Value* v = gauges->find(name);
    return v == nullptr ? 0.0 : v->as_number();
  };
  for (const ConservationLaw& law : conservation_laws()) {
    std::uint64_t lhs = 0;
    for (const char* name : law.lhs) lhs += total(name);
    std::uint64_t rhs_counters = 0;
    for (const char* name : law.rhs) rhs_counters += total(name);
    std::int64_t rhs_gauges = 0;
    for (const char* name : law.rhs_gauges) {
      rhs_gauges += std::llround(gauge_value(name));
    }
    if (law.skip_if_rhs_zero && rhs_counters == 0 && rhs_gauges == 0) {
      continue;
    }
    const std::int64_t rhs =
        static_cast<std::int64_t>(rhs_counters) + rhs_gauges;
    if (static_cast<std::int64_t>(lhs) != rhs) {
      return fail(error, std::string(law.name) + " violated at seq " +
                             std::to_string(seq_value) + ": lhs=" +
                             std::to_string(lhs) + " rhs=" +
                             std::to_string(rhs));
    }
  }

  ++frames_;
  ++next_seq_;
  last_time_s_ = time->as_number();
  last_rounds_ = rounds->as_number();
  return true;
}

bool TelemetryValidator::finish(std::string* error) const {
  if (frames_ == 0) return fail(error, "telemetry: no frames");
  return true;
}

TelemetryConfig telemetry_config_from_flags(const RunFlags& flags) {
  TelemetryConfig config;
  config.path = flags.telemetry_out;
  config.every_rounds = flags.telemetry_every_rounds;
  config.every_stream_s = flags.telemetry_every_s;
  config.openmetrics_path = flags.openmetrics_out;
  return config;
}

}  // namespace vp::obs
