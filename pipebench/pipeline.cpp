#include "pipeline.h"

#include <atomic>
#include <cmath>
#include <memory>
#include <optional>
#include <thread>

#include "common/cli.h"
#include "core/detector.h"
#include "obs/runtime.h"
#include "obs/telemetry.h"
#include "service/checkpoint.h"
#include "wire/transport.h"

namespace pipebench {

namespace {

constexpr std::size_t kMaxRounds = 8192;  // round-boundary slots per run
constexpr auto kNap = std::chrono::microseconds(20);
// The generator's wait when it is ahead (no credit, full socket): long
// enough not to load the driver's cores with wake-ups, short next to the
// time the pipeline takes to drain a full socket.
constexpr auto kGeneratorNap = std::chrono::microseconds(500);
constexpr int kPollsPerDrain = 8;  // 8 x 16 KiB = 2621 frames < 4096 cap
// Closed loop: how far (stream seconds) the generator may run ahead of the
// server's delivered watermark — the credit that bounds in-flight work.
constexpr double kLeadS = 10.0;

// State the generator thread and the driver share.
struct Shared {
  std::atomic<double> credit_s{0.0};  // delivered watermark (closed loop)
  std::atomic<bool> stop{false};      // driver abort
  std::atomic<bool> done{false};      // generator closed its connections
  std::atomic<std::int64_t> origin_ns{0};       // paced schedule origin
  std::atomic<std::int64_t> first_frame_ns{0};
};

struct GeneratorResult {
  std::uint64_t beacons = 0;
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t spiked = 0;
  std::int64_t busy_ns = 0;
  std::int64_t wall_ns = 0;
  std::int64_t cpu_ns = 0;  // the generator thread's CPU time
  std::vector<double> lag_ms;
  double end_s = 0.0;
  std::string error;
};

void generate(const Workload& w, const FleetPlan& plan, std::uint64_t seed,
              double seconds, bool dry, std::uint16_t port, Shared& shared,
              GeneratorResult& out) {
  const std::int64_t cpu_start = thread_cpu_ns();
  try {
    const std::size_t n = kConnections;
    std::vector<std::unique_ptr<vp::wire::Connection>> conns;
    for (std::size_t c = 0; c < n; ++c) {
      std::unique_ptr<vp::wire::Connection> conn;
      for (int attempt = 0; attempt < 1000 && conn == nullptr; ++attempt) {
        conn = vp::wire::tcp_connect("127.0.0.1", port);
        if (conn == nullptr) std::this_thread::sleep_for(kNap);
      }
      if (conn == nullptr) throw std::runtime_error("cannot connect");
      conns.push_back(std::move(conn));
    }
    std::vector<FrameSource> sources;
    sources.reserve(n);
    for (std::size_t c = 0; c < n; ++c) {
      sources.emplace_back(plan, c, seed, w.damage);
    }
    std::vector<std::vector<std::uint8_t>> buffers(n);

    const std::int64_t start = now_ns();
    std::int64_t wait_ns = 0;
    auto nap = [&] {
      const std::int64_t t = now_ns();
      std::this_thread::sleep_for(kGeneratorNap);
      wait_ns += now_ns() - t;
    };
    auto send_all = [&](vp::wire::Connection& conn,
                        const std::vector<std::uint8_t>& bytes) {
      std::size_t at = 0;
      while (at < bytes.size()) {
        const std::size_t sent = conn.send(std::span<const std::uint8_t>(
            bytes.data() + at, bytes.size() - at));
        at += sent;
        if (sent == 0) {
          if (shared.stop.load()) return false;
          nap();
        }
      }
      out.bytes += bytes.size();
      return true;
    };

    shared.origin_ns.store(start, std::memory_order_release);  // paced
    const std::int64_t deadline =
        start + static_cast<std::int64_t>(seconds * 1e9);
    const std::uint64_t ticks_per_round = static_cast<std::uint64_t>(
        std::llround(w.round_period_s / kTickS));

    std::uint64_t k = 0;
    for (;; ++k) {
      const double t = static_cast<double>(k) * kTickS;
      std::int64_t due = 0;
      if (w.closed_loop) {
        // Stop only on a round boundary, so every run ends with complete
        // windows and its beacons-per-round mix does not depend on where
        // the deadline fell.
        const bool boundary = k % ticks_per_round == 0;
        if (boundary && now_ns() >= deadline) break;
        bool go = true;
        while (go && t > shared.credit_s.load(std::memory_order_acquire) +
                             kLeadS) {
          if (shared.stop.load()) go = false;
          else nap();
        }
        if (!go) break;
      } else {
        // Ticks still unsent at the deadline are never offered, so an
        // overloaded pipeline cannot stretch the run.
        due = start + static_cast<std::int64_t>(t / w.speedup * 1e9);
        if (due >= deadline || now_ns() >= deadline || shared.stop.load()) {
          break;
        }
        const std::int64_t ahead = due - now_ns();
        if (ahead > 0) {
          const std::int64_t t0 = now_ns();
          std::this_thread::sleep_for(std::chrono::nanoseconds(ahead));
          wait_ns += now_ns() - t0;
        }
      }
      // Encode the tick for every connection before sending any of it, so
      // the connections' sends follow each other closely and a drain
      // rarely holds a round boundary's frames from one connection only.
      for (std::size_t c = 0; c < n; ++c) {
        buffers[c].clear();
        sources[c].append_tick(k, buffers[c]);
      }
      bool sent = true;
      for (std::size_t c = 0; c < n && sent; ++c) {
        sent = send_all(*conns[c], buffers[c]);
        if (k == 0 && c == 0) {
          shared.first_frame_ns.store(now_ns(), std::memory_order_release);
        }
      }
      if (!sent) break;
      if (!w.closed_loop) {
        out.lag_ms.push_back(static_cast<double>(now_ns() - due) / 1e6);
      }
      if (dry) {
        ++k;
        break;
      }
    }
    out.end_s = static_cast<double>(k) * kTickS;
    for (std::size_t c = 0; c < n; ++c) {
      buffers[c].clear();
      sources[c].append_close(out.end_s, buffers[c]);
      send_all(*conns[c], buffers[c]);
      conns[c]->close();
      out.beacons += sources[c].beacons();
      out.frames += sources[c].frames();
      out.corrupted += sources[c].corrupted();
      out.spiked += sources[c].spiked();
    }
    out.wall_ns = now_ns() - start;
    out.busy_ns = out.wall_ns - wait_ns;
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  out.cpu_ns = thread_cpu_ns() - cpu_start;
  shared.done.store(true, std::memory_order_release);
}

// Server-side end of a connection that counts the bytes the server read,
// so the driver knows when a round boundary's frames arrived on it.
class CountingConnection final : public vp::wire::Connection {
 public:
  CountingConnection(std::unique_ptr<vp::wire::Connection> inner,
                     std::uint64_t* received)
      : inner_(std::move(inner)), received_(received) {}
  std::size_t send(std::span<const std::uint8_t> bytes) override {
    return inner_->send(bytes);
  }
  std::ptrdiff_t receive(std::span<std::uint8_t> out) override {
    const std::ptrdiff_t n = inner_->receive(out);
    if (n > 0) *received_ += static_cast<std::uint64_t>(n);
    return n;
  }
  void close() override { inner_->close(); }

 private:
  std::unique_ptr<vp::wire::Connection> inner_;
  std::uint64_t* received_;
};

// Stops and joins the generator on every exit path, so a driver error
// cannot leave it blocked on a socket nobody reads.
struct Joiner {
  Shared& shared;
  std::thread& thread;
  ~Joiner() {
    shared.stop.store(true);
    if (thread.joinable()) thread.join();
  }
};

std::uint64_t saturating_sub(std::uint64_t a, std::uint64_t b) {
  return a > b ? a - b : 0;
}

}  // namespace

vp::service::ServiceConfig service_config(const Workload& workload) {
  vp::service::ServiceConfig config;
  config.threads = 3;  // driver (pool worker 0) + two pool workers
  config.engine.round_period_s = workload.round_period_s;
  config.engine.condition_ingest = workload.condition;
  config.engine.detector = vp::core::with_run_flags(
      vp::core::tuned_simulation_options(1), vp::RunFlags{});
  return config;
}

vp::fusion::FusionConfig fusion_config(const Workload& workload) {
  vp::fusion::FusionConfig config;
  config.epoch_period_s = workload.round_period_s;
  return config;
}

double Score::detection_rate() const {
  return positives == 0 ? 0.0
                        : static_cast<double>(detected) /
                              static_cast<double>(positives);
}

double Score::false_positive_rate() const {
  return negatives == 0 ? 0.0
                        : static_cast<double>(false_alarms) /
                              static_cast<double>(negatives);
}

double RunResult::beacons_per_s() const {
  return wall_s > 0.0 ? static_cast<double>(wire.beacons_ingested) / wall_s
                      : 0.0;
}

double RunResult::beacons_per_cpu_s() const {
  return cpu_s > 0.0 ? static_cast<double>(wire.beacons_ingested) / cpu_s
                     : 0.0;
}

std::uint64_t RunResult::failed() const {
  const std::uint64_t reached =
      service.beacons_ingested + service.beacons_shed_conditioned;
  return saturating_sub(beacons_offered, reached) +
         service.rounds_shed_queue_full + service.rounds_shed_closed +
         fusion.rounds_expired;
}

RunResult run_workload(const Workload& w, std::uint64_t seed, double seconds,
                       bool traced, std::int64_t sample_launched_ns) {
  const bool dry = sample_launched_ns != 0;
  const std::int64_t setup_start = dry ? sample_launched_ns : now_ns();
  RunResult result;
  result.ledger = Ledger(traced);
  Ledger& ledger = result.ledger;

  const FleetPlan plan = FleetPlan::build(w.shape, seed);
  const vp::service::ServiceConfig config = service_config(w);
  if (traced) {
    vp::obs::enable();
    vp::obs::registry().reset();
  }
  vp::ThreadPool::shared().reset_stats();  // also creates the pool

  vp::obs::HealthMonitor monitor =
      vp::obs::HealthMonitor::with_default_invariants();
  std::optional<vp::obs::TelemetryExporter> telemetry;
  if (traced) {
    vp::obs::TelemetryConfig tc;
    tc.every_rounds = 0;
    tc.every_stream_s = w.round_period_s;
    telemetry.emplace(tc);
    telemetry->set_monitor(&monitor);
  }

  Shared shared;
  vp::fusion::FusionEngine fusion(fusion_config(w));
  fusion.set_epoch_callback([&](const vp::fusion::FusedEpoch& epoch) {
    for (const vp::fusion::FusedVerdict& v : epoch.verdicts) {
      if (plan.positive(v.id)) {
        ++result.score.positives;
        if (v.accused) ++result.score.detected;
      } else {
        ++result.score.negatives;
        if (v.accused) ++result.score.false_alarms;
      }
    }
  });
  result.latency_ms.reserve(4096);
  // Closed loop: per connection, wall time of the poll that received round
  // boundary i's first frame. Every observer sends the same number of
  // frames each tick (lost beacons become heartbeats), so boundary i starts
  // at a known byte offset of each connection's stream.
  const std::size_t n_conns = kConnections;
  std::vector<std::uint64_t> received(n_conns, 0);
  std::vector<std::uint64_t> boundary_bytes(n_conns, 0);
  std::vector<std::vector<std::int64_t>> arrival_ns(n_conns);
  const auto ticks_per_round =
      static_cast<std::uint64_t>(std::llround(w.round_period_s / kTickS));
  for (const ObserverPlan& o : plan.observers) {
    for (const LinkPlan& link : o.links) {
      boundary_bytes[o.connection] += ticks_per_round * vp::wire::kFrameBytes *
                                      plan.radios[link.radio].identities.size();
    }
  }
  auto on_round = [&](const vp::service::SessionRound& round) {
    Span span(ledger, "fusion.observe");
    const std::int64_t delivered = now_ns();
    std::int64_t closed_at = 0;
    if (w.closed_loop) {
      const std::vector<std::int64_t>& arrivals =
          arrival_ns[plan.observers[round.session - 1].connection];
      const auto index = static_cast<std::size_t>(
          std::llround(round.round.time_s / w.round_period_s));
      if (index < arrivals.size()) closed_at = arrivals[index];
    } else {
      closed_at = shared.origin_ns.load(std::memory_order_acquire) +
                  static_cast<std::int64_t>(round.round.time_s / w.speedup *
                                            1e9);
    }
    if (closed_at > 0) {
      result.latency_ms.push_back(static_cast<double>(delivered - closed_at) /
                                  1e6);
    }
    fusion.observe(round);
    if (telemetry) telemetry->on_round(round.round.time_s);
  };

  auto active = std::make_unique<vp::service::DetectionService>(config);
  active->add_round_listener(on_round);
  vp::wire::IngestServer server(vp::wire::IngestServerConfig{},
                                {active.get()});
  vp::wire::TcpListener listener;

  // Pipeline CPU time: the process's, minus the generator thread's and the
  // driver's idle waits (the benchmark's own costs).
  std::int64_t wait_cpu_ns = 0;
  auto nap = [&] {
    const std::int64_t t = thread_cpu_ns();
    std::this_thread::sleep_for(kNap);
    wait_cpu_ns += thread_cpu_ns() - t;
  };
  const std::int64_t cpu_start = process_cpu_ns();
  GeneratorResult gen;
  std::thread generator(generate, std::cref(w), std::cref(plan), seed,
                        seconds, dry, listener.port(), std::ref(shared),
                        std::ref(gen));
  Joiner joiner{shared, generator};

  for (std::size_t accepted = 0; accepted < kConnections;) {
    std::unique_ptr<vp::wire::Connection> conn = listener.accept();
    if (conn != nullptr) {
      // The generator connects one connection at a time and the listen
      // queue is FIFO, so accept order is the generator's connection index.
      server.add_connection(std::make_unique<CountingConnection>(
          std::move(conn), &received[accepted]));
      ++accepted;
    } else if (shared.done.load()) {
      result.violations.push_back("generator ended before connecting: " +
                                  gen.error);
      return result;
    } else {
      nap();
    }
  }

  auto failover = [&] {
    Span stall(ledger, "failover");
    ++result.failovers;
    std::vector<std::uint8_t> bytes;
    {
      // The captured state only lives until it is encoded, as it would
      // when the image is shipped to a standby.
      vp::service::ServiceCheckpoint checkpoint;
      {
        Span span(ledger, "checkpoint.capture");
        checkpoint = active->checkpoint();
      }
      Span span(ledger, "checkpoint.encode");
      bytes = vp::service::encode_checkpoint(checkpoint);
    }
    result.checkpoint_bytes += bytes.size();
    vp::service::ServiceCheckpoint decoded;
    std::string error;
    bool ok = false;
    {
      Span span(ledger, "checkpoint.decode");
      ok = vp::service::decode_checkpoint(bytes, &decoded, &error);
    }
    bytes = {};
    if (!ok) {
      result.violations.push_back("VPSC decode failed: " + error);
      return;
    }
    Span span(ledger, "checkpoint.restore");
    auto standby =
        std::make_unique<vp::service::DetectionService>(config, decoded);
    standby->add_round_listener(on_round);
    server.replace_backend(0, standby.get());
    active = std::move(standby);
  };

  const std::int64_t guard_ns =
      now_ns() + static_cast<std::int64_t>((seconds + 60.0) * 1e9);
  std::uint64_t next_failover = w.failover_every_epochs;
  double stream_clock = 0.0;
  const std::int64_t loop_start = now_ns();
  for (;;) {
    std::size_t bytes = 0;
    std::size_t frames = 0;
    {
      // Up to kPollsPerDrain reads per drain: each reads at most
      // read_chunk_bytes per connection, so a drain batches whole ticks
      // of frames (and a round boundary's rounds into one pump) while
      // staying under the per-connection frame-queue cap.
      Span span(ledger, "wire.poll");
      for (int i = 0; i < kPollsPerDrain; ++i) {
        const std::size_t got = server.poll();
        bytes += got;
        if (got == 0) break;
      }
    }
    if (w.closed_loop) {
      const std::int64_t now = now_ns();
      for (std::size_t c = 0; c < n_conns; ++c) {
        std::vector<std::int64_t>& arrivals = arrival_ns[c];
        while (arrivals.size() < kMaxRounds &&
               received[c] >= arrivals.size() * boundary_bytes[c] +
                                  vp::wire::kFrameBytes) {
          arrivals.push_back(now);
        }
      }
    }
    {
      Span span(ledger, "wire.drain");
      frames = server.drain();
    }
    stream_clock = std::max(stream_clock, server.watermark());
    {
      Span span(ledger, "fusion.advance");
      fusion.advance(stream_clock);
    }
    shared.credit_s.store(stream_clock, std::memory_order_release);
    if (next_failover > 0 && fusion.stats().epochs_closed >= next_failover) {
      next_failover += w.failover_every_epochs;
      failover();
    }
    if (telemetry) {
      Span span(ledger, "trace.telemetry");
      telemetry->sample(stream_clock);
    }
    if (shared.done.load(std::memory_order_acquire) &&
        server.connections_active() == 0 && server.frames_buffered() == 0) {
      break;
    }
    if (now_ns() > guard_ns) {
      result.violations.push_back("driver loop did not finish");
      break;
    }
    if (bytes == 0 && frames == 0) {
      Span span(ledger, "loop.idle", /*always=*/true);
      nap();
    }
  }
  {
    Span span(ledger, "fusion.advance");
    fusion.advance(stream_clock);
    fusion.finish();
  }
  const std::int64_t end_ns = now_ns();
  result.loop_ns = end_ns - loop_start;

  shared.stop.store(true);
  generator.join();
  if (!gen.error.empty()) result.violations.push_back("generator: " + gen.error);
  result.cpu_s = static_cast<double>(process_cpu_ns() - cpu_start - gen.cpu_ns -
                                     wait_cpu_ns) /
                 1e9;

  const std::int64_t first_frame = shared.first_frame_ns.load();
  result.setup_s = static_cast<double>(first_frame - setup_start) / 1e9;
  result.wall_s = static_cast<double>(end_ns - first_frame) / 1e9;
  result.stream_end_s = gen.end_s;
  result.beacons_offered = gen.beacons;
  result.frames_sent = gen.frames;
  result.bytes_sent = gen.bytes;
  result.corrupted = gen.corrupted;
  result.spiked = gen.spiked;
  result.generator_busy_share =
      gen.wall_ns > 0 ? static_cast<double>(gen.busy_ns) /
                            static_cast<double>(gen.wall_ns)
                      : 0.0;
  result.lag_ms = std::move(gen.lag_ms);
  result.wire = server.stats();
  result.service = active->stats();
  result.fusion = fusion.stats();
  result.sessions_active = active->sessions_active();
  result.queued_rounds = active->queued_rounds();
  result.fusion_pending = fusion.rounds_pending();
  result.frames_buffered = server.frames_buffered();

  if (traced) {
    telemetry->finish(stream_clock);
    result.health_alerts = monitor.alerts_total();
    result.counters = vp::obs::registry().counters();
    result.histograms = vp::obs::registry().histograms();
    // The pump runs inside IngestServer::drain; move its time (the
    // program's own service.pump_ns sum) out of the drain span.
    const vp::obs::HistogramSnapshot& pump =
        result.histograms["service.pump_ns"];
    ledger.carve("wire.drain", "service.pump",
                 static_cast<std::int64_t>(pump.sum), pump.count);
    result.pool = vp::ThreadPool::shared().stats();
    vp::obs::disable();
  }
  return result;
}

void check_laws(RunResult& r) {
  auto law = [&](bool holds, const std::string& name, std::uint64_t lhs,
                 std::uint64_t rhs) {
    if (!holds) {
      r.violations.push_back(name + ": " + std::to_string(lhs) +
                             " != " + std::to_string(rhs));
    }
  };
  const auto& wire = r.wire;
  const auto& svc = r.service;
  const auto& fu = r.fusion;
  const std::uint64_t wire_rhs = wire.frames_ingested +
                                 wire.frames_shed_invalid +
                                 wire.frames_shed_backpressure +
                                 r.frames_buffered;
  law(wire.frames_received == wire_rhs, "wire frame law",
      wire.frames_received, wire_rhs);
  law(wire.frames_received == r.frames_sent, "wire frames received = sent",
      wire.frames_received, r.frames_sent);
  law(wire.bytes_received == r.bytes_sent, "wire bytes received = sent",
      wire.bytes_received, r.bytes_sent);
  law(wire.frames_shed_invalid == r.corrupted,
      "wire invalid frames = corrupted frames", wire.frames_shed_invalid,
      r.corrupted);
  law(wire.beacons_ingested + wire.controls_ingested == wire.frames_ingested,
      "wire frame kinds", wire.beacons_ingested + wire.controls_ingested,
      wire.frames_ingested);
  law(svc.beacons_offered == wire.beacons_ingested,
      "service offered = wire beacons", svc.beacons_offered,
      wire.beacons_ingested);
  const std::uint64_t beacon_rhs =
      svc.beacons_ingested + svc.beacons_shed_session_cap +
      svc.beacons_shed_rate_limited + svc.beacons_shed_identity_cap +
      svc.beacons_shed_out_of_order + svc.beacons_shed_invalid +
      svc.beacons_shed_conditioned;
  law(svc.beacons_offered == beacon_rhs, "service beacon law",
      svc.beacons_offered, beacon_rhs);
  const std::uint64_t round_rhs = svc.rounds_executed +
                                  svc.rounds_shed_queue_full +
                                  svc.rounds_shed_closed + r.queued_rounds;
  law(svc.rounds_prepared == round_rhs, "service round law",
      svc.rounds_prepared, round_rhs);
  const std::uint64_t session_rhs =
      r.sessions_active + svc.sessions_closed + svc.sessions_evicted_idle;
  law(svc.sessions_opened == session_rhs, "service session law",
      svc.sessions_opened, session_rhs);
  const std::uint64_t fusion_rhs =
      fu.rounds_fused + fu.rounds_expired + r.fusion_pending;
  law(fu.rounds_delivered == fusion_rhs, "fusion rounds law",
      fu.rounds_delivered, fusion_rhs);
  law(fu.rounds_delivered == svc.rounds_executed,
      "fusion delivered = service executed", fu.rounds_delivered,
      svc.rounds_executed);
}

}  // namespace pipebench
