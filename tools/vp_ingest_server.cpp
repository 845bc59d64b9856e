// Standalone wire ingestion server (DESIGN.md §14): listens on loopback
// TCP, decodes VPWB beacon streams from vp_ingest_client (or any
// conforming sender), and routes them into an in-process fleet of
// sharded DetectionService backends via the consistent-hash ring.
//
//   ./build/tools/vp_ingest_server --port 0 --port-file /tmp/vp.port
//       --expect-connections 2 --telemetry-out telemetry.jsonl
//
// With --port 0 the kernel picks an ephemeral port; --port-file
// publishes the bound port for the client to discover. The server runs
// its poll/drain loop until --expect-connections peers have connected
// and every one of them has closed (all sessions CLOSEd, all frames
// drained), then exits 0 — unless the HealthMonitor raised an alert or
// the --max-seconds wall-clock guard expired. Standard run flags
// (--metrics-out, --telemetry-out, ...) produce the usual artifacts for
// check_run_report.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.h"
#include "core/detector.h"
#include "obs/report.h"
#include "obs/runtime.h"
#include "obs/telemetry.h"
#include "service/service.h"
#include "wire/server.h"
#include "wire/transport.h"

int main(int argc, char** argv) {
  using namespace vp;
  const CliArgs args(argc, argv);
  const RunFlags run_flags = parse_run_flags(args, /*default_threads=*/0);
  obs::RunSession session(args.program_name(), run_flags.metrics_out,
                          run_flags.trace_out);
  obs::HealthMonitor monitor = obs::HealthMonitor::with_default_invariants();
  obs::TelemetryExporter telemetry(obs::telemetry_config_from_flags(run_flags));
  if (telemetry.active()) telemetry.set_monitor(&monitor);
  obs::enable();

  const auto port = static_cast<std::uint16_t>(args.get_int("port", 0));
  const std::string port_file = args.get("port-file", "");
  const std::size_t backends_n =
      static_cast<std::size_t>(args.get_int("backends", 1));
  const std::size_t shards = static_cast<std::size_t>(args.get_int("shards", 4));
  const std::size_t expect =
      static_cast<std::size_t>(args.get_int("expect-connections", 1));
  const double max_seconds = args.get_double("max-seconds", 120.0);

  service::ServiceConfig config;
  config.shards = shards;
  config.threads = run_flags.threads;
  config.max_sessions = 4096;
  config.pump_batch_rounds = shards * 2;
  config.engine.condition_ingest = run_flags.cond;
  config.engine.detector = core::tuned_simulation_options(1);
  config.engine.ring_capacity = 4096;
  config.engine.max_identities = 256;

  std::vector<std::unique_ptr<service::DetectionService>> owned;
  std::vector<service::DetectionService*> backends;
  for (std::size_t b = 0; b < backends_n; ++b) {
    owned.push_back(std::make_unique<service::DetectionService>(config));
    owned.back()->set_round_callback(
        [&](const service::SessionRound& round) {
          telemetry.on_round(round.round.time_s);
        });
    backends.push_back(owned.back().get());
  }
  wire::IngestServer server(wire::IngestServerConfig{}, backends);

  wire::TcpListener listener(port);
  std::fprintf(stderr, "vp_ingest_server: listening on 127.0.0.1:%u\n",
               static_cast<unsigned>(listener.port()));
  if (!port_file.empty()) {
    std::ofstream out(port_file, std::ios::out | std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", port_file.c_str());
      return 1;
    }
    out << listener.port() << "\n";
  }

  const auto start = std::chrono::steady_clock::now();
  bool timed_out = false;
  for (;;) {
    while (std::unique_ptr<wire::Connection> conn = listener.accept()) {
      server.add_connection(std::move(conn));
    }
    const std::size_t bytes = server.poll();
    const std::size_t delivered = server.drain();
    telemetry.sample(server.watermark());
    if (server.stats().connections_opened >= expect &&
        server.connections_active() == 0 && server.frames_buffered() == 0) {
      break;
    }
    const double elapsed =
        std::chrono::duration_cast<std::chrono::duration<double>>(
            std::chrono::steady_clock::now() - start)
            .count();
    if (elapsed > max_seconds) {
      timed_out = true;
      break;
    }
    if (bytes == 0 && delivered == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  telemetry.finish(server.watermark());

  const wire::IngestServer::Stats& stats = server.stats();
  std::printf(
      "vp_ingest_server: %llu bytes, %llu frames (%llu beacons ingested, "
      "%llu invalid, %llu backpressure) over %llu connections, "
      "watermark %.3f s, %llu health alerts\n",
      static_cast<unsigned long long>(stats.bytes_received),
      static_cast<unsigned long long>(stats.frames_received),
      static_cast<unsigned long long>(stats.beacons_ingested),
      static_cast<unsigned long long>(stats.frames_shed_invalid),
      static_cast<unsigned long long>(stats.frames_shed_backpressure),
      static_cast<unsigned long long>(stats.connections_opened),
      server.watermark(),
      static_cast<unsigned long long>(monitor.alerts_total()));
  if (timed_out) {
    std::fprintf(stderr, "vp_ingest_server: --max-seconds %.0f expired before "
                         "all connections closed\n", max_seconds);
    return 1;
  }
  return monitor.alerts_total() > 0 ? 1 : 0;
}
