// Wire replay client (DESIGN.md §14): synthesises a seeded fleet
// (sim::synthesize_fleet — identical seeds, so a given
// --sessions/--identities/--rate/--duration names one exact workload),
// encodes it into VPWB streams, and replays them to a
// vp_ingest_server over loopback TCP across one or more connections.
//
//   ./build/tools/vp_ingest_client --port-file /tmp/vp.port
//       --sessions 8 --identities 8 --rate 20 --duration 20 --connections 2
//
// Observers are dealt round-robin across connections, so multi-connection
// runs exercise interleaved arrival at the server while each observer's
// own stream stays in order (the VPWB seq contract is per connection).
//
// Connection establishment retries deterministically: --retries N extra
// attempts per connection (default 5), sleeping --backoff-ms × 2^k before
// retry k — the same schedule every run, so failure traces reproduce.
// Retries consumed are reported in the final summary line.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.h"
#include "sim/replay_source.h"
#include "wire/client.h"
#include "wire/transport.h"

namespace {

// Polls `path` until it contains a port number (the server writes it
// after binding). Returns 0 on timeout.
std::uint16_t wait_for_port_file(const std::string& path, double timeout_s) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  while (std::chrono::steady_clock::now() < deadline) {
    std::ifstream in(path);
    int port = 0;
    if (in && (in >> port) && port > 0 && port <= 65535) {
      return static_cast<std::uint16_t>(port);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vp;
  const CliArgs args(argc, argv);
  const std::string host = args.get("host", "127.0.0.1");
  const std::string port_file = args.get("port-file", "");
  std::uint16_t port = static_cast<std::uint16_t>(args.get_int("port", 0));
  const std::size_t sessions =
      static_cast<std::size_t>(args.get_int("sessions", 8));
  const std::size_t identities =
      static_cast<std::size_t>(args.get_int("identities", 8));
  const double rate_hz = args.get_double("rate", 10.0);
  const double duration_s = args.get_double("duration", 20.0);
  const std::size_t connections =
      static_cast<std::size_t>(args.get_int("connections", 1));
  const double timeout_s = args.get_double("timeout", 30.0);
  const std::size_t max_retries =
      static_cast<std::size_t>(args.get_int("retries", 5));
  const std::int64_t backoff_ms = args.get_int("backoff-ms", 50);
  if (backoff_ms < 0) {
    std::fprintf(stderr, "vp_ingest_client: --backoff-ms must be >= 0\n");
    return 1;
  }

  if (port == 0 && !port_file.empty()) {
    port = wait_for_port_file(port_file, timeout_s);
  }
  if (port == 0) {
    std::fprintf(stderr,
                 "vp_ingest_client: no port (use --port or --port-file)\n");
    return 1;
  }

  const std::vector<sim::FleetBeacon> fleet =
      sim::synthesize_fleet(sessions, identities, rate_hz, duration_s);
  wire::FleetStreamOptions options;
  options.close_time_s = duration_s;

  // Deal observers round-robin, encode each connection's stream up
  // front so the send loop is pure transport work.
  std::vector<std::vector<std::uint64_t>> groups(
      std::min(connections, sessions));
  for (std::size_t o = 1; o <= sessions; ++o) {
    groups[(o - 1) % groups.size()].push_back(o);
  }
  std::vector<std::unique_ptr<wire::Connection>> conns;
  std::vector<wire::StreamSender> senders;
  std::size_t total_bytes = 0;
  std::size_t retries_used = 0;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  for (const std::vector<std::uint64_t>& observers : groups) {
    std::vector<std::uint8_t> bytes =
        wire::encode_fleet_stream(fleet, observers, options);
    total_bytes += bytes.size();
    // Bounded deterministic backoff: attempt 0 immediately, then retry k
    // (k in [1, max_retries]) after backoff_ms·2^(k-1) — the schedule
    // depends only on the flags, never on wall-clock jitter.
    std::unique_ptr<wire::Connection> conn;
    for (std::size_t attempt = 0; !(conn = wire::tcp_connect(host, port));
         ++attempt) {
      if (attempt >= max_retries ||
          std::chrono::steady_clock::now() > deadline) {
        std::fprintf(stderr,
                     "vp_ingest_client: cannot connect to %s:%u "
                     "(%zu attempts)\n",
                     host.c_str(), static_cast<unsigned>(port), attempt + 1);
        return 1;
      }
      ++retries_used;
      const std::int64_t sleep_ms = backoff_ms << std::min<std::size_t>(
                                        attempt, 10);  // cap growth at 1024x
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    }
    conns.push_back(std::move(conn));
    senders.emplace_back(conns.back().get(), std::move(bytes));
  }

  for (;;) {
    std::size_t progress = 0;
    bool all_done = true;
    for (wire::StreamSender& sender : senders) {
      if (sender.done()) continue;
      progress += sender.send_some();
      all_done = all_done && sender.done();
    }
    if (all_done) break;
    if (std::chrono::steady_clock::now() > deadline) {
      std::fprintf(stderr, "vp_ingest_client: send timed out\n");
      return 1;
    }
    if (progress == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  for (std::unique_ptr<wire::Connection>& conn : conns) conn->close();

  std::printf(
      "vp_ingest_client: sent %zu bytes (%zu beacons, %zu observers) over "
      "%zu connections to %s:%u (%zu connect retries)\n",
      total_bytes, fleet.size(), sessions, conns.size(), host.c_str(),
      static_cast<unsigned>(port), retries_used);
  return 0;
}
