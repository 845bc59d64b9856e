// Full-stack demo: the Table V highway scenario end to end.
//
// Builds the 2 km simulated VANET (stochastic epoch mobility, 802.11p-style
// CSMA/CA beacons, dual-slope channel with per-radio-pair correlated
// shadowing), runs it, then lets one normal vehicle run Voiceprint and
// prints what it found vs ground truth.
//
//   ./build/examples/highway_sybil_sim --density 30 --seed 5
//
// Pass --metrics-out report.json and/or --trace-out trace.jsonl to get a
// structured run report (per-phase latency percentiles, per-pair DTW
// counters, thread-pool utilisation) and a JSONL span trace;
// --telemetry-out / --openmetrics-out add the §12 telemetry frame stream
// (a batch run emits its closing frame, health-checked) and a Prometheus
// text snapshot.
#include <iostream>
#include <set>

#include "common/cli.h"
#include "common/table.h"
#include "core/detector.h"
#include "obs/report.h"
#include "obs/telemetry.h"
#include "sim/metrics.h"
#include "sim/runner.h"
#include "sim/world.h"

int main(int argc, char** argv) {
  using namespace vp;
  const CliArgs args(argc, argv);
  const RunFlags run_flags = parse_run_flags(args);
  obs::RunSession session(args.program_name(), run_flags.metrics_out,
                          run_flags.trace_out);
  obs::HealthMonitor monitor = obs::HealthMonitor::with_default_invariants();
  obs::TelemetryExporter telemetry(obs::telemetry_config_from_flags(run_flags));
  if (telemetry.active()) telemetry.set_monitor(&monitor);

  sim::ScenarioConfig config;
  config.density_per_km = args.get_double("density", 30.0);
  config.seed = args.get_seed("seed", 5);
  config.sim_time_s = args.get_double("sim-time", 60.0);
  const std::size_t threads = run_flags.threads;

  std::cout << config.describe() << "\nrunning...\n";
  sim::World world(config);
  world.run();

  const sim::WorldStats& stats = world.stats();
  std::cout << "\nchannel statistics:\n"
            << "  frames sent        : " << stats.frames_sent << "\n"
            << "  frames received    : " << stats.frames_received << "\n"
            << "  below sensitivity  : " << stats.frames_below_sensitivity
            << "\n  collided           : " << stats.frames_collided << "\n"
            << "  half-duplex missed : " << stats.frames_half_duplex_missed
            << "\n  queue drops        : " << stats.beacon_queue_drops
            << "\n\n";

  // One observer's point of view.
  const NodeId observer = world.normal_node_ids().front();
  const double t = world.detection_times().back();
  const sim::ObservationWindow window = world.observe(observer, t);
  std::cout << "observer " << observer << " at t=" << t << " s heard "
            << window.neighbors.size() << " identities; Eq. 9 density "
            << Table::num(window.estimated_density_per_km, 1)
            << " vhls/km\n\n";

  core::VoiceprintDetector detector(core::tuned_simulation_options(threads));
  const auto flagged = detector.detect_window(window);
  const std::set<IdentityId> flagged_set(flagged.begin(), flagged.end());

  Table table({"identity", "truth", "verdict"});
  for (const sim::NeighborObservation& n : window.neighbors) {
    const auto& info = world.truth().info(n.id);
    const std::string truth = info.sybil ? "SYBIL"
                              : info.owner_malicious ? "malicious sender"
                                                     : "normal";
    table.add_row({std::to_string(n.id), truth,
                   flagged_set.count(n.id) ? "flagged" : "-"});
  }
  table.print(std::cout);

  // Fleet-wide averages (Eq. 12/13) over sampled observers and periods.
  core::VoiceprintDetector fleet_detector(
      core::tuned_simulation_options(threads));
  const sim::EvaluationResult result = sim::evaluate(
      world, fleet_detector, {.max_observers = 8, .threads = threads});
  std::cout << "\nfleet average detection rate      : "
            << Table::num(result.average_dr, 4)
            << "\nfleet average false positive rate : "
            << Table::num(result.average_fpr, 4) << "\n";

  telemetry.finish(t);
  if (session.active()) {
    session.set_extra(sim::evaluation_report_extra(result));
    if (telemetry.active()) session.merge_extra("health", monitor.summary());
  }
  return 0;
}
