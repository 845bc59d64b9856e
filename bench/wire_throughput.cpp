// Wire ingestion throughput sweep (DESIGN.md §14): how fast can the
// VPWB codec + IngestServer front-end move fleets of beacons from
// loopback TCP sockets into a sharded DetectionService — as a function
// of connection count × beacon rate — plus two adversarial
// configurations: a corrupted stream (seeded byte flips, every damaged
// frame shed as invalid before touching any session) and an overloaded
// one (tiny frame queue, drains withheld, frames shed as backpressure).
//
// Each configuration synthesises the same fleet the service bench uses
// (sim::synthesize_fleet — identical seeds), encodes one VPWB stream
// per connection up front, then replays them from sender threads while
// the main thread accepts/polls/drains. The timed region is transport +
// decode + routing + rounds. The wire frame conservation law is checked
// two ways: live by the HealthMonitor on every telemetry frame, and at
// rest by the report's self-validation (validate_wire_bench) before
// BENCH_wire.json is written.
//
//   ./build/bench/wire_throughput                  # full sweep
//   ./build/bench/wire_throughput --quick          # smoke-sized sweep
//   ./build/bench/wire_throughput --backends 2 --shards 4 --duration 30
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.h"
#include "common/rng.h"
#include "core/detector.h"
#include "obs/report.h"
#include "obs/runtime.h"
#include "obs/telemetry.h"
#include "service/service.h"
#include "sim/replay_source.h"
#include "wire/client.h"
#include "wire/report.h"
#include "wire/server.h"
#include "wire/transport.h"

namespace {

using namespace vp;

enum class Mode { kClean, kCorrupt, kOverload };

// Flips one mid-payload byte in every `stride`-th BEACON frame (control
// frames stay intact so sessions still open and close). The stream is
// frame-aligned, so damaged frames are consumed whole and each flip
// costs exactly one checksum reject.
void corrupt_stream(std::vector<std::uint8_t>& bytes, std::size_t stride,
                    std::uint64_t seed) {
  Rng rng(seed);
  std::size_t beacon_index = 0;
  for (std::size_t base = 0; base + wire::kFrameBytes <= bytes.size();
       base += wire::kFrameBytes) {
    if (bytes[base + 5] != static_cast<std::uint8_t>(wire::FrameType::kBeacon))
      continue;
    if (beacon_index++ % stride == 0) {
      const std::size_t offset =
          static_cast<std::size_t>(rng.uniform_int(6, 41));  // seq..rssi
      bytes[base + offset] ^= 0xFF;
    }
  }
}

wire::WireBenchConfigResult run_config(
    const std::string& label, std::size_t connections, std::size_t observers,
    std::size_t identities, double rate_hz, double duration_s,
    std::size_t backends_n, std::size_t shards, std::size_t threads,
    Mode mode, obs::TelemetryExporter& telemetry) {
  const std::vector<sim::FleetBeacon> fleet =
      sim::synthesize_fleet(observers, identities, rate_hz, duration_s);
  wire::FleetStreamOptions options;
  options.close_time_s = duration_s;

  std::vector<std::vector<std::uint64_t>> groups(
      std::min(connections, observers));
  for (std::size_t o = 1; o <= observers; ++o) {
    groups[(o - 1) % groups.size()].push_back(o);
  }
  std::vector<std::vector<std::uint8_t>> streams;
  for (const std::vector<std::uint64_t>& group : groups) {
    streams.push_back(wire::encode_fleet_stream(fleet, group, options));
    if (mode == Mode::kCorrupt) {
      corrupt_stream(streams.back(), /*stride=*/50,
                     mix64(0xc0de, streams.size()));
    }
  }

  service::ServiceConfig config;
  config.shards = shards;
  config.threads = threads;
  config.max_sessions = observers + 8;
  config.pump_batch_rounds = shards * 2;
  config.engine.detector = core::tuned_simulation_options(1);
  config.engine.ring_capacity = static_cast<std::size_t>(
      config.engine.observation_time_s * rate_hz * 2.0) + 16;
  config.engine.max_identities = identities + 16;
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

  wire::IngestServerConfig server_config;
  if (mode == Mode::kOverload) {
    // A queue smaller than one read chunk's worth of frames, drained
    // only every 32nd iteration: decode outpaces delivery and the
    // excess must be counted shed, never buffered unbounded.
    server_config.max_frames_buffered = 64;
  }
  wire::IngestServer server(server_config, backends);
  wire::TcpListener listener;

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> senders;
  for (std::vector<std::uint8_t>& bytes : streams) {
    senders.emplace_back([&listener, &bytes]() {
      std::unique_ptr<wire::Connection> conn;
      while (!(conn = wire::tcp_connect("127.0.0.1", listener.port()))) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      wire::StreamSender sender(conn.get(), std::move(bytes));
      while (!sender.done()) {
        if (sender.send_some() == 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
      }
      conn->close();
    });
  }

  std::size_t accepted = 0;
  std::uint64_t iteration = 0;
  const std::size_t drain_every = mode == Mode::kOverload ? 32 : 1;
  for (;;) {
    while (accepted < groups.size()) {
      std::unique_ptr<wire::Connection> conn = listener.accept();
      if (conn == nullptr) break;
      server.add_connection(std::move(conn));
      ++accepted;
    }
    const std::size_t bytes = server.poll();
    std::size_t delivered = 0;
    if (++iteration % drain_every == 0) delivered = server.drain();
    telemetry.sample(server.watermark());
    if (accepted == groups.size() && server.connections_active() == 0 &&
        server.frames_buffered() == 0) {
      break;
    }
    if (bytes == 0 && delivered == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
  server.drain();  // deliver anything queued by the final poll
  telemetry.sample(server.watermark());
  const auto elapsed = std::chrono::steady_clock::now() - start;
  for (std::thread& t : senders) t.join();
  const double wall_s =
      std::chrono::duration_cast<std::chrono::duration<double>>(elapsed)
          .count();

  const wire::IngestServer::Stats& stats = server.stats();
  wire::WireBenchConfigResult result;
  result.label = label;
  result.connections = groups.size();
  result.observers = observers;
  result.identities_per_observer = identities;
  result.beacon_rate_hz = rate_hz;
  result.duration_s = duration_s;
  result.backends = backends_n;
  result.shards = shards;
  result.threads = threads;
  result.bytes_received = stats.bytes_received;
  result.frames_received = stats.frames_received;
  result.frames_ingested = stats.frames_ingested;
  result.frames_shed_invalid = stats.frames_shed_invalid;
  result.frames_shed_backpressure = stats.frames_shed_backpressure;
  result.beacons_ingested = stats.beacons_ingested;
  for (service::DetectionService* backend : backends) {
    result.rounds_executed += backend->stats().rounds_executed;
  }
  result.failovers = stats.failovers;
  result.wall_s = wall_s;
  result.ingest_beacons_per_s =
      wall_s > 0.0 ? static_cast<double>(stats.beacons_ingested) / wall_s
                   : 0.0;
  result.round_ns = obs::registry().histogram("stream.round_ns").snapshot();

  std::printf(
      "BENCH %-12s conns=%-2zu rate=%5.1f Hz  ingest=%9.0f beacons/s  "
      "frames=%llu (invalid=%llu backpressure=%llu)  rounds=%llu\n",
      label.c_str(), result.connections, rate_hz,
      result.ingest_beacons_per_s,
      static_cast<unsigned long long>(result.frames_received),
      static_cast<unsigned long long>(result.frames_shed_invalid),
      static_cast<unsigned long long>(result.frames_shed_backpressure),
      static_cast<unsigned long long>(result.rounds_executed));
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const RunFlags run_flags = parse_run_flags(args, /*default_threads=*/0);
  obs::RunSession session(args.program_name(), run_flags.metrics_out,
                          run_flags.trace_out);
  obs::HealthMonitor monitor = obs::HealthMonitor::with_default_invariants();
  obs::TelemetryExporter telemetry(obs::telemetry_config_from_flags(run_flags));
  if (telemetry.active()) telemetry.set_monitor(&monitor);
  obs::enable();

  const bool quick = args.get_bool("quick", false);
  const double duration = args.get_double("duration", quick ? 20.0 : 40.0);
  const std::size_t observers =
      static_cast<std::size_t>(args.get_int("observers", quick ? 4 : 16));
  const std::size_t identities =
      static_cast<std::size_t>(args.get_int("identities", quick ? 8 : 16));
  const std::size_t backends =
      static_cast<std::size_t>(args.get_int("backends", 1));
  const std::size_t shards =
      static_cast<std::size_t>(args.get_int("shards", 4));
  const std::string out_path = args.get("out", "BENCH_wire.json");
  const std::size_t threads = run_flags.threads;

  const std::vector<std::size_t> connection_counts =
      quick ? std::vector<std::size_t>{2} : std::vector<std::size_t>{1, 4};
  const std::vector<double> rates = quick ? std::vector<double>{10.0}
                                          : std::vector<double>{20.0, 100.0};

  std::vector<wire::WireBenchConfigResult> results;
  for (double rate : rates) {
    for (std::size_t connections : connection_counts) {
      std::string label = "c";
      label += std::to_string(connections);
      label += "_rate";
      label += std::to_string(static_cast<int>(rate));
      // Per-configuration detector latency: the histogram is global.
      obs::registry().histogram("stream.round_ns").reset();
      results.push_back(run_config(label, connections, observers, identities,
                                   rate, duration, backends, shards, threads,
                                   Mode::kClean, telemetry));
    }
  }
  obs::registry().histogram("stream.round_ns").reset();
  results.push_back(run_config("corrupt", 2, observers, identities, 10.0,
                               duration, backends, shards, threads,
                               Mode::kCorrupt, telemetry));
  obs::registry().histogram("stream.round_ns").reset();
  results.push_back(run_config("overload", 2, observers, identities,
                               quick ? 10.0 : 50.0, duration, backends,
                               shards, threads, Mode::kOverload, telemetry));
  telemetry.finish(duration);

  if (monitor.alerts_total() > 0) {
    std::fprintf(stderr, "wire_throughput: %llu health alerts raised\n",
                 static_cast<unsigned long long>(monitor.alerts_total()));
    return 1;
  }
  const obs::json::Value report =
      wire::build_wire_bench_report(args.program_name(), results);
  std::string error;
  if (!wire::validate_wire_bench(report, &error)) {
    std::fprintf(stderr, "wire_throughput: self-check failed: %s\n",
                 error.c_str());
    return 1;
  }
  std::ofstream out(out_path, std::ios::out | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  out << report.dump(2) << "\n";
  std::fprintf(stderr, "wrote %s\n", out_path.c_str());
  return 0;
}
