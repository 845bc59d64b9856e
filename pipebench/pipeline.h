// One benchmark run: the generator thread streams a workload's fleet over
// two loopback TCP connections into wire::IngestServer ->
// service::DetectionService -> fusion::FusionEngine, driven by this
// thread, and the run is timed and checked from outside the program.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "fleet.h"
#include "fusion/engine.h"
#include "measure.h"
#include "obs/metrics.h"
#include "service/service.h"
#include "wire/server.h"

namespace pipebench {

struct Workload {
  const char* name = "";
  const char* why = "";
  FleetShape shape;
  bool closed_loop = true;
  // Open loop: stream seconds sent per wall second.
  double speedup = 0.0;
  double round_period_s = 20.0;
  bool condition = false;
  Damage damage;
  std::size_t failover_every_epochs = 0;  // 0 = never
};

// The program's shipped configuration for a workload's fleet: default
// detector and comparison path (no --prune/--simd/--fixedlb), default
// shard count, three pool participants.
vp::service::ServiceConfig service_config(const Workload& workload);
vp::fusion::FusionConfig fusion_config(const Workload& workload);

// Confusion counts of fused epoch verdicts against the planted truth.
struct Score {
  std::uint64_t positives = 0;
  std::uint64_t detected = 0;
  std::uint64_t negatives = 0;
  std::uint64_t false_alarms = 0;
  double detection_rate() const;
  double false_positive_rate() const;
};

struct RunResult {
  double setup_s = 0.0;  // setup start to first frame sent
  double wall_s = 0.0;   // first frame sent to last fused epoch closed
  // Pipeline CPU time: every thread of the process from the generator's
  // start to its join, minus the generator thread and the driver's idle
  // waits. Set-up samples and the self-test are outside it.
  double cpu_s = 0.0;
  double stream_end_s = 0.0;

  // Generator side.
  std::uint64_t beacons_offered = 0;  // intact beacons encoded
  std::uint64_t frames_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t spiked = 0;
  double generator_busy_share = 0.0;
  std::vector<double> lag_ms;  // paced: per tick, sent minus due

  // Program side (always-on Stats).
  vp::wire::IngestServer::Stats wire;
  vp::service::DetectionService::Stats service;
  vp::fusion::FusionEngine::Stats fusion;
  std::uint64_t sessions_active = 0;  // gauge terms of the laws, at end
  std::uint64_t queued_rounds = 0;
  std::uint64_t fusion_pending = 0;
  std::uint64_t frames_buffered = 0;
  std::vector<double> latency_ms;  // per delivered round
  Score score;
  std::uint64_t failovers = 0;
  std::uint64_t checkpoint_bytes = 0;

  // Driver loop attribution.
  std::int64_t loop_ns = 0;
  Ledger ledger{false};

  // Traced runs only.
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, vp::obs::HistogramSnapshot> histograms;
  vp::ThreadPool::Stats pool;
  std::uint64_t health_alerts = 0;

  std::vector<std::string> violations;  // failed conservation checks

  // Beacons ingested per second of wall_s. On the open loop this is the
  // offered rate, whatever the pipeline costs.
  double beacons_per_s() const;
  // Beacons ingested per second of pipeline CPU time: what a beacon costs,
  // on either loop, whatever number of cores a shared host lends.
  double beacons_per_cpu_s() const;
  // Intact beacons lost plus rounds shed or expired: the error numerator.
  std::uint64_t failed() const;
};

// Runs `workload` for `seconds` of generator time. A non-zero
// `sample_launched_ns` makes the run a set-up sample: it stops after the
// first tick, and its set-up is timed from that process launch time.
RunResult run_workload(const Workload& workload, std::uint64_t seed,
                       double seconds, bool traced,
                       std::int64_t sample_launched_ns = 0);

// Checks the always-on Stats conservation laws of a finished run; appends
// a line per violation.
void check_laws(RunResult& result);

// Parity and generator-pin checks (the benchmark's own tests); prints a
// line per check and returns false if any fails.
bool self_test();

}  // namespace pipebench
