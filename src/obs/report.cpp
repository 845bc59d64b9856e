#include "obs/report.h"

#include <cmath>
#include <cstdio>
#include <fstream>

#include "common/error.h"
#include "common/thread_pool.h"
#include "obs/runtime.h"

namespace vp::obs {

namespace {

// `v` must be a non-negative whole number (counters, ns totals, ids).
bool is_count(const json::Value& v) {
  return v.is_number() && v.as_number() >= 0.0 &&
         v.as_number() == std::floor(v.as_number());
}

}  // namespace

json::Value histogram_to_json(const HistogramSnapshot& s) {
  json::Object h;
  h.emplace("count", json::Value(s.count));
  h.emplace("sum", json::Value(s.sum));
  h.emplace("min", json::Value(s.min));
  h.emplace("max", json::Value(s.max));
  h.emplace("mean", json::Value(s.mean));
  h.emplace("p50", json::Value(s.p50));
  h.emplace("p95", json::Value(s.p95));
  h.emplace("p99", json::Value(s.p99));
  h.emplace("rejected", json::Value(s.rejected));
  return json::Value(std::move(h));
}

bool validate_histogram_json(const std::string& name, const json::Value& v,
                             std::string* error) {
  if (!v.is_object()) return fail(error, "histogram " + name + ": not object");
  for (const char* key : {"count", "sum", "min", "max", "mean", "p50", "p95",
                          "p99"}) {
    const json::Value* field = v.find(key);
    if (field == nullptr || !field->is_number()) {
      return fail(error, "histogram " + name + ": missing number '" + key +
                             "'");
    }
  }
  if (!is_count(*v.find("count"))) {
    return fail(error, "histogram " + name + ": count not a whole number");
  }
  const json::Value* rejected = v.find("rejected");
  if (rejected != nullptr && !is_count(*rejected)) {
    return fail(error, "histogram " + name + ": rejected not a whole number");
  }
  if (v.find("count")->as_number() > 0) {
    const double min = v.find("min")->as_number();
    const double max = v.find("max")->as_number();
    for (const char* q : {"p50", "p95", "p99"}) {
      const double p = v.find(q)->as_number();
      if (p < min || p > max) {
        return fail(error,
                    "histogram " + name + ": " + q + " outside [min, max]");
      }
    }
    if (v.find("p50")->as_number() > v.find("p95")->as_number() ||
        v.find("p95")->as_number() > v.find("p99")->as_number()) {
      return fail(error, "histogram " + name + ": percentiles not monotone");
    }
  }
  return true;
}

json::Value build_run_report(const MetricsRegistry& registry,
                             const std::string& binary,
                             std::optional<json::Value> extra) {
  json::Object report;
  report.emplace("schema", json::Value("voiceprint.run_report/v1"));
  report.emplace("binary", json::Value(binary));

  json::Object counters;
  for (const auto& [name, value] : registry.counters()) {
    counters.emplace(name, json::Value(value));
  }
  report.emplace("counters", json::Value(std::move(counters)));

  json::Object gauges;
  for (const auto& [name, value] : registry.gauges()) {
    gauges.emplace(name, json::Value(value));
  }
  report.emplace("gauges", json::Value(std::move(gauges)));

  json::Object histograms;
  for (const auto& [name, snapshot] : registry.histograms()) {
    histograms.emplace(name, histogram_to_json(snapshot));
  }
  report.emplace("histograms", json::Value(std::move(histograms)));

  const ThreadPool::Stats pool = ThreadPool::shared().stats();
  json::Object pool_obj;
  pool_obj.emplace("workers", json::Value(pool.workers));
  pool_obj.emplace("jobs", json::Value(pool.jobs));
  pool_obj.emplace("tasks", json::Value(pool.tasks));
  pool_obj.emplace("submit_wait_ns", json::Value(pool.submit_wait_ns));
  json::Array busy;
  for (const std::uint64_t ns : pool.worker_busy_ns) {
    busy.emplace_back(json::Value(ns));
  }
  pool_obj.emplace("worker_busy_ns", json::Value(std::move(busy)));
  report.emplace("thread_pool", json::Value(std::move(pool_obj)));

  if (extra.has_value()) report.emplace("extra", std::move(*extra));
  return json::Value(std::move(report));
}

void write_run_report(const std::string& path, const json::Value& report) {
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  if (!out) throw InvalidArgument("cannot open report file: " + path);
  out << report.dump(2) << "\n";
  if (!out) throw InvalidArgument("failed writing report file: " + path);
}

bool validate_run_report(const json::Value& report, std::string* error) {
  if (!report.is_object()) return fail(error, "report: not a JSON object");
  const json::Value* schema = report.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != "voiceprint.run_report/v1") {
    return fail(error, "report: schema is not voiceprint.run_report/v1");
  }
  const json::Value* binary = report.find("binary");
  if (binary == nullptr || !binary->is_string()) {
    return fail(error, "report: missing string 'binary'");
  }
  for (const char* section : {"counters", "gauges", "histograms"}) {
    const json::Value* v = report.find(section);
    if (v == nullptr || !v->is_object()) {
      return fail(error, std::string("report: missing object '") + section +
                             "'");
    }
  }
  for (const auto& [name, v] : report.find("counters")->as_object()) {
    if (!is_count(v)) {
      return fail(error, "counter " + name + ": not a non-negative integer");
    }
  }
  for (const auto& [name, v] : report.find("gauges")->as_object()) {
    if (!v.is_number()) return fail(error, "gauge " + name + ": not a number");
  }
  for (const auto& [name, v] : report.find("histograms")->as_object()) {
    if (!validate_histogram_json(name, v, error)) return false;
  }
  const json::Value* pool = report.find("thread_pool");
  if (pool == nullptr || !pool->is_object()) {
    return fail(error, "report: missing object 'thread_pool'");
  }
  for (const char* key : {"workers", "jobs", "tasks", "submit_wait_ns"}) {
    const json::Value* v = pool->find(key);
    if (v == nullptr || !is_count(*v)) {
      return fail(error, std::string("thread_pool: missing count '") + key +
                             "'");
    }
  }
  const json::Value* busy = pool->find("worker_busy_ns");
  if (busy == nullptr || !busy->is_array()) {
    return fail(error, "thread_pool: missing array 'worker_busy_ns'");
  }
  for (const json::Value& v : busy->as_array()) {
    if (!is_count(v)) return fail(error, "thread_pool: busy entry not a count");
  }
  return true;
}

bool validate_span(const json::Value& span, std::string* error) {
  if (!span.is_object()) return fail(error, "span: not a JSON object");
  const json::Value* phase = span.find("phase");
  if (phase == nullptr || !phase->is_string() || phase->as_string().empty()) {
    return fail(error, "span: missing non-empty string 'phase'");
  }
  for (const char* key : {"observer", "window", "pairs", "round"}) {
    const json::Value* v = span.find(key);
    if (v == nullptr || (!v->is_null() && !is_count(*v))) {
      return fail(error, std::string("span: '") + key +
                             "' must be null or a count");
    }
  }
  for (const char* key : {"wall_ns", "thread"}) {
    const json::Value* v = span.find(key);
    if (v == nullptr || !is_count(*v)) {
      return fail(error, std::string("span: missing count '") + key + "'");
    }
  }
  return true;
}

RunSession::RunSession(std::string binary, std::string metrics_out,
                       std::string trace_out)
    : binary_(std::move(binary)), metrics_out_(std::move(metrics_out)) {
  if (metrics_out_.empty() && trace_out.empty()) return;
  active_ = true;
  registry().reset();
  ThreadPool::shared().reset_stats();
  enable();
  if (!trace_out.empty()) open_trace(trace_out);
}

RunSession::~RunSession() {
  try {
    finish();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "run report: %s\n", e.what());
  }
}

void RunSession::merge_extra(const std::string& key, json::Value value) {
  if (!extra_.has_value() || !extra_->is_object()) {
    extra_ = json::Value(json::Object{});
  }
  extra_->as_object().insert_or_assign(key, std::move(value));
}

void RunSession::finish() {
  if (!active_ || finished_) return;
  finished_ = true;
  if (!metrics_out_.empty()) {
    const json::Value report =
        build_run_report(registry(), binary_, std::move(extra_));
    write_run_report(metrics_out_, report);
    std::fprintf(stderr, "wrote run report %s\n", metrics_out_.c_str());
  }
  disable();
}

}  // namespace vp::obs
