// Schema checker for emitted observability artefacts:
//
//   check_run_report [report.json] [--trace <trace.jsonl>]
//                    [--require <counter>]... [--chaos-bench <bench.json>]
//                    [--fusion-bench <bench.json>]
//                    [--telemetry <telemetry.jsonl>]
//
// The positional run report may be omitted when only validating bench or
// telemetry artefacts (e.g. `check_run_report --chaos-bench
// BENCH_chaos.json`); --trace and --require need the report they qualify.
// Any other `--` argument is a usage error.
//
// Parses the report and validates it against voiceprint.run_report/v1 via
// obs::validate_run_report — the same function the unit tests call, so
// this binary cannot accept a document the tests would reject. With
// --trace, every JSONL line must parse and pass obs::validate_span. Each
// --require names a counter that must be present with a positive value
// (how smoke.sh asserts the stream.* pipeline actually ran). With
// --chaos-bench, the file must pass fault::validate_chaos_bench
// (voiceprint.chaos_bench/v2, including the injector, serving-stack and
// conditioning conservation laws, the per-run divergence ceilings and
// the conditioning gates); with
// --fusion-bench, fusion::validate_fusion_bench
// (voiceprint.fusion_bench/v1, including the round conservation law
// rounds_delivered = fused + expired + pending, trust bounds in [0, 1],
// and fused DR >= single DR / fused FPR <= single FPR on every
// multi-observer row). With --telemetry, every JSONL frame must pass
// obs::TelemetryValidator (voiceprint.telemetry/v1 schema, gapless frame
// sequence, non-decreasing stream clock, counter monotonicity, histogram
// shape, and the conservation laws re-evaluated per frame). Exit status 0
// on success, 1 on any violation (with a one-line reason on stderr).
// Used by scripts/smoke.sh (the `smoke` ctest).
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "fault/report.h"
#include "fusion/report.h"
#include "obs/json.h"
#include "obs/report.h"
#include "obs/telemetry.h"

namespace {

using Validator = bool (*)(const vp::obs::json::Value&, std::string*);

// Reads `path`, parses it as one JSON document and runs `validate` on it.
// On any failure prints the one-line reason and returns false.
bool load_valid(const std::string& path, Validator validate,
                vp::obs::json::Value& doc) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "check_run_report: cannot read " << path << "\n";
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string error;
  try {
    doc = vp::obs::json::parse(buffer.str());
    if (validate(doc, &error)) return true;
  } catch (const std::exception& e) {
    error = e.what();
  }
  std::cerr << "check_run_report: " << path << ": " << error << "\n";
  return false;
}

int check_report(const std::string& path,
                 const std::vector<std::string>& required_counters) {
  vp::obs::json::Value report;
  if (!load_valid(path, vp::obs::validate_run_report, report)) return 1;
  const auto& counters = report.find("counters")->as_object();
  for (const std::string& name : required_counters) {
    const auto it = counters.find(name);
    if (it == counters.end()) {
      std::cerr << "check_run_report: " << path << ": required counter '"
                << name << "' missing\n";
      return 1;
    }
    if (!it->second.is_number() || it->second.as_number() <= 0) {
      std::cerr << "check_run_report: " << path << ": required counter '"
                << name << "' is not positive\n";
      return 1;
    }
  }
  const auto& histograms = report.find("histograms")->as_object();
  std::cout << "ok: " << path << " (" << counters.size() << " counters, "
            << histograms.size() << " histograms)\n";
  return 0;
}

// A bench document: valid under `validate`, then summarised by the size
// of its `rows` array ("ok: <path> (<n> <noun>)").
int check_bench(const std::string& path, Validator validate,
                const char* rows, const char* noun) {
  vp::obs::json::Value bench;
  if (!load_valid(path, validate, bench)) return 1;
  std::cout << "ok: " << path << " (" << bench.find(rows)->as_array().size()
            << " " << noun << ")\n";
  return 0;
}

int check_telemetry(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "check_run_report: cannot read " << path << "\n";
    return 1;
  }
  vp::obs::TelemetryValidator validator;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    vp::obs::json::Value frame;
    try {
      frame = vp::obs::json::parse(line);
    } catch (const std::exception& e) {
      std::cerr << "check_run_report: " << path << ":" << lineno << ": "
                << e.what() << "\n";
      return 1;
    }
    std::string error;
    if (!validator.check_frame(frame, &error)) {
      std::cerr << "check_run_report: " << path << ":" << lineno << ": "
                << error << "\n";
      return 1;
    }
  }
  std::string error;
  if (!validator.finish(&error)) {
    std::cerr << "check_run_report: " << path << ": " << error << "\n";
    return 1;
  }
  std::cout << "ok: " << path << " (" << validator.frames()
            << " telemetry frames, " << validator.alerts_seen()
            << " alerts)\n";
  return 0;
}

int check_trace(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "check_run_report: cannot read " << path << "\n";
    return 1;
  }
  std::string line;
  std::size_t lineno = 0;
  std::size_t spans = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    vp::obs::json::Value span;
    try {
      span = vp::obs::json::parse(line);
    } catch (const std::exception& e) {
      std::cerr << "check_run_report: " << path << ":" << lineno << ": "
                << e.what() << "\n";
      return 1;
    }
    std::string error;
    if (!vp::obs::validate_span(span, &error)) {
      std::cerr << "check_run_report: " << path << ":" << lineno << ": "
                << error << "\n";
      return 1;
    }
    ++spans;
  }
  if (spans == 0) {
    std::cerr << "check_run_report: " << path << ": no spans recorded\n";
    return 1;
  }
  std::cout << "ok: " << path << " (" << spans << " spans)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  constexpr const char* kUsage =
      "usage: check_run_report [report.json] [--trace <trace.jsonl>] "
      "[--require <counter>]... [--chaos-bench <bench.json>] "
      "[--fusion-bench <bench.json>] [--telemetry <telemetry.jsonl>]\n"
      "       (report.json may be omitted when only bench/telemetry "
      "artefacts are checked)\n";
  std::string report_path;
  std::string trace_path;
  std::string chaos_bench_path;
  std::string fusion_bench_path;
  std::string telemetry_path;
  std::vector<std::string> required_counters;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (arg == "--require" && i + 1 < argc) {
      required_counters.push_back(argv[++i]);
    } else if (arg == "--chaos-bench" && i + 1 < argc) {
      chaos_bench_path = argv[++i];
    } else if (arg == "--fusion-bench" && i + 1 < argc) {
      fusion_bench_path = argv[++i];
    } else if (arg == "--telemetry" && i + 1 < argc) {
      telemetry_path = argv[++i];
    } else if (report_path.empty() && arg.rfind("--", 0) != 0) {
      report_path = arg;
    } else {
      std::cerr << kUsage;
      return 1;
    }
  }
  const bool has_bench = !chaos_bench_path.empty() ||
                         !fusion_bench_path.empty() ||
                         !telemetry_path.empty();
  if (report_path.empty() &&
      (!has_bench || !trace_path.empty() || !required_counters.empty())) {
    std::cerr << kUsage;
    return 1;
  }
  int status = 0;
  if (!report_path.empty()) {
    status = check_report(report_path, required_counters);
  }
  if (!trace_path.empty()) status |= check_trace(trace_path);
  if (!chaos_bench_path.empty()) {
    status |= check_bench(chaos_bench_path, vp::fault::validate_chaos_bench,
                          "runs", "chaos runs");
  }
  if (!fusion_bench_path.empty()) {
    status |= check_bench(fusion_bench_path,
                          vp::fusion::validate_fusion_bench, "configs",
                          "fusion bench configs");
  }
  if (!telemetry_path.empty()) status |= check_telemetry(telemetry_path);
  return status;
}
