// Tiny command-line flag parser shared by the bench and example binaries.
// Supports --name=value and --name value forms plus boolean switches
// (--flag, --flag=on/off).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace vp {

class CliArgs {
 public:
  // Parses argv; throws InvalidArgument on malformed input (an option
  // without a leading --, or an unknown-looking bare token).
  CliArgs(int argc, const char* const* argv);

  bool has(const std::string& name) const;

  // Typed getters with defaults. Throw InvalidArgument if the stored text
  // cannot be converted.
  std::string get(const std::string& name, const std::string& fallback) const;
  double get_double(const std::string& name, double fallback) const;
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  std::uint64_t get_seed(const std::string& name, std::uint64_t fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  // Name of the binary (argv[0]).
  const std::string& program() const { return program_; }

  // program() without its directory part, for report labelling.
  std::string program_name() const;

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
};

// Flags every experiment binary shares (parsed in one place so the
// spellings and semantics cannot drift between binaries):
//   --threads N       worker threads for the pairwise sweep and window
//                     cutting; 0 = all hardware threads; results are
//                     bit-identical for every value.
//   --metrics-out P   write a voiceprint.run_report/v1 JSON document to P
//                     when the binary exits.
//   --trace-out P     stream JSONL span events to P during the run.
//   --cond            run the §15 fixed-point conditioning front
//                     (Hampel/MAD + adaptive EMA) on every ingested
//                     beacon; the cond.* counters and their conservation
//                     law go live.
//   --telemetry-out P append voiceprint.telemetry/v1 JSONL frames to P
//                     on deterministic stream-clock boundaries.
//   --telemetry-every N
//                     emit a frame every N confirmation rounds
//                     (default 1; 0 disables the round cadence).
//   --telemetry-every-s T
//                     emit a frame every T seconds of *stream* clock
//                     (default 0 = off; never wall clock).
//   --openmetrics-out P
//                     write the final registry snapshot to P in
//                     Prometheus/OpenMetrics text exposition.
// Empty paths mean "off" (the run stays uninstrumented).
struct RunFlags {
  std::size_t threads = 1;
  std::string metrics_out;
  std::string trace_out;
  bool cond = false;
  std::string telemetry_out;
  std::uint64_t telemetry_every_rounds = 1;
  double telemetry_every_s = 0.0;
  std::string openmetrics_out;
};

RunFlags parse_run_flags(const CliArgs& args, std::size_t default_threads = 1);

}  // namespace vp
