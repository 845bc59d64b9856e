// Sharded multi-observer detection service (DESIGN.md §9).
//
// Voiceprint is strictly per-observer — Section IV's detector uses only
// the local observation window, never cooperation — so a deployment is
// really a fleet: thousands of concurrent observers, each running the
// pipeline over its own control-channel log. stream::StreamEngine serves
// one observer; DetectionService hosts many of them behind one facade,
// multiplexing per-session ingest and batching the expensive confirmation
// rounds across sessions onto the shared common::ThreadPool.
//
// Architecture (inference-server shaped):
//   * Session table — sessions are hash-sharded by id (mix64 % shards);
//     each shard owns a sorted map of SessionId → Session, each Session
//     wrapping an **unmodified** stream::StreamEngine. Lifecycle is
//     open (explicit or on first beacon) → ingest → idle eviction or
//     close, with every transition counted.
//   * Round scheduler — engines run with round deferral: a due round is
//     prepared inline (window cut + Eq. 9 density, on the harness
//     thread) and queued on the owning shard; pump() fans the queued
//     rounds out over the pool, one task per shard, draining each
//     shard's queue FIFO. A session lives on exactly one shard, so its
//     rounds execute in order on a single worker — which is what keeps
//     every session's suspects and pair distances bit-identical to a
//     standalone StreamEngine at every shard/thread count (enforced by
//     tests/test_service.cpp and examples/fleet_detection).
//   * Admission control & backpressure — a global session cap (beacons
//     needing a new session past it are shed), a global queued-round cap
//     (rounds past it are shed, deterministically: the queue is drained
//     only at pump points), and an auto-pump threshold that converts
//     sustained load into inline batch execution instead of unbounded
//     queue growth. Everything shed is counted; the conservation laws
//       beacons_offered = beacons_ingested + Σ beacons_shed_*
//       rounds_prepared = rounds_executed + Σ rounds_shed_* + queued
//       sessions_opened = active + closed + evicted_idle
//     hold after every call (checked by the tests and, live, by the
//     obs::HealthMonitor on every telemetry frame).
//
// Threading model: the service is driven by one harness thread (open /
// ingest / advance / pump / close); parallelism is internal to pump(),
// which forks over shards and joins before returning. Round results are
// delivered through the service callback after the join, shard-major and
// FIFO within each shard — a deterministic order independent of worker
// interleaving.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "stream/engine.h"

namespace vp::obs {
class Histogram;
}  // namespace vp::obs

namespace vp::service {

struct ServiceCheckpoint;  // service/checkpoint.h

using SessionId = std::uint64_t;

struct ServiceConfig {
  // Shard count: the unit of pump() parallelism and of FIFO ordering.
  // More shards = more usable workers, fewer = coarser batching; a
  // session's shard is fixed at open (mix64(id) % shards).
  std::size_t shards = 4;
  // Pool width for pump(); 0 = all hardware threads. Effective
  // parallelism is min(threads, shards). Never changes any result.
  std::size_t threads = 1;
  // Global admission cap: beacons that would need a new session past
  // this are shed (fabricated observers cannot grow the service).
  std::size_t max_sessions = 4096;
  // Global queued-round cap: rounds prepared while the queue is full are
  // shed and counted (the overload regime tests/test_service.cpp drives).
  std::size_t max_queued_rounds = 4096;
  // Auto-pump threshold: ingest/advance pump inline once this many
  // rounds are queued — backpressure by batch execution. 0 = pump only
  // when the caller says so.
  std::size_t pump_batch_rounds = 64;
  // Sessions with no offered beacon for this long (in stream time) are
  // evicted at the end of a pump. 0 = never evict.
  double session_idle_timeout_s = 0.0;
  // Template for every session's engine (window geometry, bounded-memory
  // knobs, detector options). Per-session engines are constructed from
  // this verbatim.
  stream::StreamEngineConfig engine;
};

// One session's completed confirmation round, as delivered to the
// service round callback.
struct SessionRound {
  SessionId session = 0;
  stream::StreamRound round;
};

class DetectionService {
 public:
  // Service-level admission verdict for one beacon. The engine-level
  // classes are forwarded so one enum tells the whole story.
  enum class Admission {
    kAccepted,
    kShedSessionCap,    // needed a new session past max_sessions
    kShedRateLimited,   // session engine: over its ingest rate cap
    kShedIdentityCap,   // session engine: new identity at its cap
    kShedOutOfOrder,    // session engine: time regressed
    kShedInvalid,       // session engine: failed the validation front
    kShedConditioned,   // session engine: Hampel hard-reject (§15)
  };

  // Plain counters mirroring the service.* metrics, always maintained
  // (registry copies are gated on obs::enabled()).
  struct Stats {
    std::uint64_t beacons_offered = 0;
    std::uint64_t beacons_ingested = 0;
    std::uint64_t beacons_shed_session_cap = 0;
    std::uint64_t beacons_shed_rate_limited = 0;
    std::uint64_t beacons_shed_identity_cap = 0;
    std::uint64_t beacons_shed_out_of_order = 0;
    // Engine validation front, summed across sessions (per-reason detail
    // lives in each session engine's Stats and the stream.shed_invalid.*
    // metrics).
    std::uint64_t beacons_shed_invalid = 0;
    // §15 conditioning hard-rejects, summed across sessions (per-reason
    // cond.* detail lives in each session engine's Stats).
    std::uint64_t beacons_shed_conditioned = 0;
    std::uint64_t sessions_opened = 0;
    std::uint64_t sessions_rejected = 0;  // open() refused at the cap
    std::uint64_t sessions_closed = 0;
    std::uint64_t sessions_evicted_idle = 0;
    std::uint64_t rounds_prepared = 0;
    std::uint64_t rounds_executed = 0;
    std::uint64_t rounds_shed_queue_full = 0;
    std::uint64_t rounds_shed_closed = 0;  // queued when session closed
    std::uint64_t pumps = 0;
  };

  explicit DetectionService(ServiceConfig config);

  // Restores a checkpointed service (DESIGN.md §10). `config` must hash-
  // match the checkpoint's (service_config_hash; VP_REQUIRE otherwise);
  // every session is rebuilt from its engine checkpoint with a fresh
  // deferral hook, after which the restored fleet emits bit-identical
  // rounds to the uninterrupted one (tests/test_checkpoint.cpp).
  DetectionService(ServiceConfig config, const ServiceCheckpoint& checkpoint);

  // Captures the complete service state: Stats, service time, and every
  // session's engine checkpoint. Requires an empty round queue — pump()
  // first; a queued round's window is already cut and cannot be re-cut,
  // so checkpointing over it would silently lose rounds.
  ServiceCheckpoint checkpoint() const;

  // Opens a session explicitly (idempotent for a live session). Returns
  // false — and counts a rejection — at the session cap.
  bool open(SessionId session);

  // Routes one beacon to its session, opening it on first contact. Due
  // rounds are prepared inline and queued; the expensive detector work
  // runs at the next pump. Never blocks, never throws on overload.
  Admission ingest(SessionId session, IdentityId id, double time_s,
                   double rssi_dbm);

  // Advances every session's stream clock to time_s (preparing any due
  // rounds), then pumps. Call with the trace end time to flush.
  void advance_all_to(double time_s);

  // Advances one session's stream clock to time_s (preparing any due
  // rounds), leaving every other session untouched. This is the wire
  // heartbeat/close path: connections progress at different stream
  // rates, and advancing the whole fleet to the fastest connection's
  // clock would run slower sessions' rounds early over partial windows —
  // breaking bit-parity with direct ingestion. Queued rounds run at the
  // next pump (or inline via the auto-pump threshold). Returns false for
  // an unknown session.
  bool advance_session_to(SessionId session, double time_s);

  // Executes every queued round on the pool (one task per shard, FIFO
  // within the shard), delivers results in deterministic order, then
  // evicts idle sessions. Returns the number of rounds executed.
  std::size_t pump();

  // Closes a session now; its queued rounds are dropped and counted as
  // rounds_shed_closed. Returns false for an unknown session.
  bool close(SessionId session);

  // Invoked from pump() — after the parallel region, on the pumping
  // thread — once per executed round, shard-major and FIFO within each
  // shard.
  void set_round_callback(std::function<void(const SessionRound&)> callback) {
    callback_ = std::move(callback);
  }

  // Additional result listeners, invoked after the round callback for
  // every delivered round, in registration order — same thread, same
  // deterministic delivery order. This is how cross-cutting consumers
  // (fusion::FusionEngine) tap the result stream without stealing the
  // primary callback from the driver. Listeners cannot be removed;
  // register objects that outlive the service.
  void add_round_listener(std::function<void(const SessionRound&)> listener) {
    listeners_.push_back(std::move(listener));
  }

  const Stats& stats() const { return stats_; }
  const ServiceConfig& config() const { return config_; }
  std::size_t sessions_active() const { return sessions_active_; }
  std::size_t queued_rounds() const { return queued_total_; }
  // Highest stream time seen by any beacon or advance_all_to call.
  double service_time() const { return service_time_; }

  // The session's engine, for stats introspection; nullptr when unknown.
  const stream::StreamEngine* session_engine(SessionId session) const;

  // Visits every live session in (shard, id) order.
  void for_each_session(
      const std::function<void(SessionId, const stream::StreamEngine&)>& fn)
      const;

 private:
  struct Session {
    SessionId id = 0;
    std::size_t shard = 0;
    double last_offered_s = 0.0;  // stream time of the last beacon offered
    stream::StreamEngine engine;

    Session(SessionId id, std::size_t shard, stream::StreamEngineConfig cfg)
        : id(id), shard(shard), engine(std::move(cfg)) {}

    // Restore path: adopts an engine rebuilt from a checkpoint.
    Session(SessionId id, std::size_t shard, stream::StreamEngine&& restored)
        : id(id), shard(shard), engine(std::move(restored)) {}
  };

  // One queued confirmation round. `session` stays valid: map nodes are
  // address-stable and close() removes a session's entries before erasing
  // it.
  struct PendingRound {
    Session* session = nullptr;
    SessionId session_id = 0;
    stream::RoundInput input;
    stream::StreamRound result;  // filled by the pump worker
  };

  struct Shard {
    // Sorted map: deterministic iteration for advance_all_to/eviction,
    // and node stability for the Session* captured by queue entries and
    // engine deferral hooks.
    std::map<SessionId, Session> sessions;
    std::vector<PendingRound> queue;  // FIFO within the shard
  };

  std::size_t shard_of(SessionId session) const;
  Session* find_session(SessionId session);
  Session* open_session(SessionId session);  // nullptr at the cap
  void enqueue_round(Session& session, stream::RoundInput&& input);
  void evict_idle();
  void maybe_auto_pump();
  void publish_session_gauges();

  ServiceConfig config_;
  std::vector<Shard> shards_;
  // Per-shard round-latency histograms ("service.shard<k>.round_ns"),
  // resolved once at construction; registry nodes are address-stable so
  // pump workers record without a lookup. Parallel to shards_.
  std::vector<obs::Histogram*> shard_round_ns_;
  std::function<void(const SessionRound&)> callback_;
  std::vector<std::function<void(const SessionRound&)>> listeners_;
  Stats stats_;
  std::size_t sessions_active_ = 0;
  std::size_t queued_total_ = 0;
  // This instance's last-published contribution to the shared
  // service.sessions_active / service.queued_rounds gauges. Gauge
  // updates publish *deltas* of the instance's own counts so several
  // live backends (the wire ingestion tier routes across one-or-more
  // services, and failover keeps a drained predecessor alive) sum
  // correctly in one registry. A restored service inherits its
  // predecessor's published contribution instead of re-publishing it.
  std::size_t published_active_ = 0;
  std::size_t published_queued_ = 0;
  double service_time_ = 0.0;
  bool pumping_ = false;  // re-entrancy guard for callback-driven calls
};

}  // namespace vp::service
