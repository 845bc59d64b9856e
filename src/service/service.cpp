#include "service/service.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/error.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "obs/runtime.h"
#include "obs/timer.h"
#include "service/checkpoint.h"
#include "stream/checkpoint.h"

namespace vp::service {

namespace {

// Registry instruments, resolved once (lookup takes a mutex; the ingest
// path must not). Updates are gated on obs::enabled().
struct Sinks {
  obs::Counter* offered;
  obs::Counter* ingested;
  obs::Counter* shed_session_cap;
  obs::Counter* shed_rate;
  obs::Counter* shed_identity_cap;
  obs::Counter* shed_out_of_order;
  obs::Counter* shed_invalid;
  obs::Counter* shed_conditioned;
  obs::Counter* sessions_opened;
  obs::Counter* sessions_rejected;
  obs::Counter* sessions_closed;
  obs::Counter* sessions_evicted_idle;
  obs::Counter* rounds_prepared;
  obs::Counter* rounds_executed;
  obs::Counter* rounds_shed_queue_full;
  obs::Counter* rounds_shed_closed;
  obs::Counter* pumps;
  obs::Histogram* pump_ns;
  obs::Histogram* pump_rounds;
  obs::Gauge* sessions_active;
  obs::Gauge* queued_rounds;
};

const Sinks& sinks() {
  static const Sinks s = [] {
    obs::MetricsRegistry& r = obs::registry();
    return Sinks{
        .offered = &r.counter("service.beacons_offered"),
        .ingested = &r.counter("service.beacons_ingested"),
        .shed_session_cap = &r.counter("service.beacons_shed_session_cap"),
        .shed_rate = &r.counter("service.beacons_shed_rate_limited"),
        .shed_identity_cap = &r.counter("service.beacons_shed_identity_cap"),
        .shed_out_of_order = &r.counter("service.beacons_shed_out_of_order"),
        .shed_invalid = &r.counter("service.beacons_shed_invalid"),
        .shed_conditioned = &r.counter("service.beacons_shed_conditioned"),
        .sessions_opened = &r.counter("service.sessions_opened"),
        .sessions_rejected = &r.counter("service.sessions_rejected"),
        .sessions_closed = &r.counter("service.sessions_closed"),
        .sessions_evicted_idle = &r.counter("service.sessions_evicted_idle"),
        .rounds_prepared = &r.counter("service.rounds_prepared"),
        .rounds_executed = &r.counter("service.rounds_executed"),
        .rounds_shed_queue_full = &r.counter("service.rounds_shed_queue_full"),
        .rounds_shed_closed = &r.counter("service.rounds_shed_closed"),
        .pumps = &r.counter("service.pumps"),
        .pump_ns = &r.histogram("service.pump_ns"),
        .pump_rounds = &r.histogram("service.pump_rounds",
                                    obs::Histogram::default_count_bounds()),
        .sessions_active = &r.gauge("service.sessions_active"),
        .queued_rounds = &r.gauge("service.queued_rounds"),
    };
  }();
  return s;
}

}  // namespace

void DetectionService::publish_session_gauges() {
  // Deltas, not absolutes: the registry gauge is shared by every live
  // service in the process (wire ingestion routes across several
  // backends), so each instance maintains only its own contribution.
  // All gauge writes happen on the harness/pump thread, so the
  // read-modify-write needs no atomicity beyond the gauge's own.
  if (!obs::enabled()) return;
  if (sessions_active_ != published_active_) {
    obs::Gauge& g = *sinks().sessions_active;
    g.set(g.value() + static_cast<double>(sessions_active_) -
          static_cast<double>(published_active_));
    published_active_ = sessions_active_;
  }
  if (queued_total_ != published_queued_) {
    obs::Gauge& g = *sinks().queued_rounds;
    g.set(g.value() + static_cast<double>(queued_total_) -
          static_cast<double>(published_queued_));
    published_queued_ = queued_total_;
  }
}

DetectionService::DetectionService(ServiceConfig config)
    : config_(std::move(config)), shards_(std::max<std::size_t>(
                                      config_.shards, 1)) {
  VP_REQUIRE(config_.shards >= 1);
  VP_REQUIRE(config_.max_sessions >= 1);
  // Resolve per-shard latency sinks up front (the restore constructor
  // delegates here, so both paths get them); recording is still gated on
  // obs::enabled() at pump time.
  shard_round_ns_.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    shard_round_ns_.push_back(&obs::registry().histogram(
        "service.shard" + std::to_string(i) + ".round_ns"));
  }
}

DetectionService::DetectionService(ServiceConfig config,
                                   const ServiceCheckpoint& checkpoint)
    : DetectionService(std::move(config)) {
  VP_REQUIRE(checkpoint.config_hash == service_config_hash(config_));
  VP_REQUIRE(checkpoint.sessions.size() <= config_.max_sessions);
  stats_ = checkpoint.stats;
  service_time_ = checkpoint.service_time;
  for (const SessionCheckpoint& sc : checkpoint.sessions) {
    const std::size_t shard_index = shard_of(sc.id);
    Shard& shard = shards_[shard_index];
    const auto [it, inserted] = shard.sessions.try_emplace(
        sc.id, sc.id, shard_index,
        stream::StreamEngine(config_.engine, sc.engine));
    VP_REQUIRE(inserted);
    Session& s = it->second;
    s.last_offered_s = sc.last_offered_s;
    // Same hook open_session installs; the captured address is stable.
    s.engine.set_round_deferral([this, &s](stream::RoundInput&& input) {
      enqueue_round(s, std::move(input));
    });
    ++sessions_active_;
  }
  // The restored sessions were already published as active by the
  // checkpointed predecessor (same-process failover) or by a previous
  // incarnation whose final gauge contribution persists in the registry
  // (kill/restore). Either way this instance inherits that contribution
  // rather than re-publishing it, so sessions_opened = closed + evicted
  // + active keeps holding across a restore.
  published_active_ = sessions_active_;
}

ServiceCheckpoint DetectionService::checkpoint() const {
  // A queued round's window is already cut out of its engine; saving over
  // it would drop the round on restore. The caller pumps first.
  VP_REQUIRE(queued_total_ == 0);
  ServiceCheckpoint cp;
  cp.config_hash = service_config_hash(config_);
  cp.service_time = service_time_;
  cp.stats = stats_;
  cp.sessions.reserve(sessions_active_);
  for (const Shard& shard : shards_) {
    for (const auto& [id, session] : shard.sessions) {
      cp.sessions.push_back(SessionCheckpoint{
          .id = id,
          .last_offered_s = session.last_offered_s,
          .engine = session.engine.checkpoint()});
    }
  }
  // Deterministic file layout regardless of shard topology.
  std::sort(cp.sessions.begin(), cp.sessions.end(),
            [](const SessionCheckpoint& a, const SessionCheckpoint& b) {
              return a.id < b.id;
            });
  return cp;
}

std::size_t DetectionService::shard_of(SessionId session) const {
  // Hash-sharded ownership: splitmix-mixed so dense session ids (vehicle
  // numbers) still spread evenly across shards.
  return static_cast<std::size_t>(mix64(0x5e551d, session)) % shards_.size();
}

DetectionService::Session* DetectionService::find_session(SessionId session) {
  Shard& shard = shards_[shard_of(session)];
  const auto it = shard.sessions.find(session);
  return it == shard.sessions.end() ? nullptr : &it->second;
}

DetectionService::Session* DetectionService::open_session(SessionId session) {
  if (sessions_active_ >= config_.max_sessions) return nullptr;
  const std::size_t shard_index = shard_of(session);
  Shard& shard = shards_[shard_index];
  const auto [it, inserted] = shard.sessions.try_emplace(
      session, session, shard_index, config_.engine);
  VP_REQUIRE(inserted);
  Session& s = it->second;
  // The engine prepares due rounds inline and hands them here; the
  // detector runs later, on the pump's pool workers. The captured
  // addresses are stable: map nodes never move, and close() drains a
  // session's queue entries before erasing it.
  s.engine.set_round_deferral([this, &s](stream::RoundInput&& input) {
    enqueue_round(s, std::move(input));
  });
  ++sessions_active_;
  ++stats_.sessions_opened;
  if (obs::enabled()) sinks().sessions_opened->add(1);
  publish_session_gauges();
  return &s;
}

bool DetectionService::open(SessionId session) {
  if (find_session(session) != nullptr) return true;
  if (open_session(session) != nullptr) return true;
  ++stats_.sessions_rejected;
  if (obs::enabled()) sinks().sessions_rejected->add(1);
  return false;
}

DetectionService::Admission DetectionService::ingest(SessionId session,
                                                     IdentityId id,
                                                     double time_s,
                                                     double rssi_dbm) {
  const bool instrumented = obs::enabled();
  ++stats_.beacons_offered;
  if (instrumented) sinks().offered->add(1);
  service_time_ = std::max(service_time_, time_s);

  Session* s = find_session(session);
  if (s == nullptr) {
    s = open_session(session);
    if (s == nullptr) {
      ++stats_.beacons_shed_session_cap;
      if (instrumented) sinks().shed_session_cap->add(1);
      return Admission::kShedSessionCap;
    }
  }
  s->last_offered_s = std::max(s->last_offered_s, time_s);

  const stream::StreamEngine::Admission verdict =
      s->engine.ingest(id, time_s, rssi_dbm);
  Admission mapped = Admission::kAccepted;
  switch (verdict) {
    case stream::StreamEngine::Admission::kAccepted:
      ++stats_.beacons_ingested;
      if (instrumented) sinks().ingested->add(1);
      break;
    case stream::StreamEngine::Admission::kShedRateLimited:
      ++stats_.beacons_shed_rate_limited;
      if (instrumented) sinks().shed_rate->add(1);
      mapped = Admission::kShedRateLimited;
      break;
    case stream::StreamEngine::Admission::kShedIdentityCap:
      ++stats_.beacons_shed_identity_cap;
      if (instrumented) sinks().shed_identity_cap->add(1);
      mapped = Admission::kShedIdentityCap;
      break;
    case stream::StreamEngine::Admission::kShedOutOfOrder:
      ++stats_.beacons_shed_out_of_order;
      if (instrumented) sinks().shed_out_of_order->add(1);
      mapped = Admission::kShedOutOfOrder;
      break;
    case stream::StreamEngine::Admission::kShedInvalid:
      ++stats_.beacons_shed_invalid;
      if (instrumented) sinks().shed_invalid->add(1);
      mapped = Admission::kShedInvalid;
      break;
    case stream::StreamEngine::Admission::kShedConditioned:
      ++stats_.beacons_shed_conditioned;
      if (instrumented) sinks().shed_conditioned->add(1);
      mapped = Admission::kShedConditioned;
      break;
  }
  maybe_auto_pump();
  return mapped;
}

void DetectionService::enqueue_round(Session& session,
                                     stream::RoundInput&& input) {
  ++stats_.rounds_prepared;
  if (obs::enabled()) sinks().rounds_prepared->add(1);
  if (queued_total_ >= config_.max_queued_rounds) {
    // Deterministic shedding: the round's window was already cut (the
    // engine has moved on), the detector work is what gets dropped.
    ++stats_.rounds_shed_queue_full;
    if (obs::enabled()) sinks().rounds_shed_queue_full->add(1);
    return;
  }
  PendingRound pending;
  pending.session = &session;
  pending.session_id = session.id;
  pending.input = std::move(input);
  shards_[session.shard].queue.push_back(std::move(pending));
  ++queued_total_;
  publish_session_gauges();
}

void DetectionService::maybe_auto_pump() {
  if (config_.pump_batch_rounds == 0 || pumping_) return;
  if (queued_total_ >= config_.pump_batch_rounds) pump();
}

void DetectionService::advance_all_to(double time_s) {
  service_time_ = std::max(service_time_, time_s);
  for (Shard& shard : shards_) {
    for (auto& [id, session] : shard.sessions) {
      session.engine.advance_to(time_s);
    }
  }
  pump();
}

bool DetectionService::advance_session_to(SessionId session, double time_s) {
  Session* s = find_session(session);
  if (s == nullptr) return false;
  service_time_ = std::max(service_time_, time_s);
  // Counts as activity for idle eviction: a heartbeat is the session
  // saying "alive, nothing heard" — evicting it would drop its state
  // while the connection is still open.
  s->last_offered_s = std::max(s->last_offered_s, time_s);
  s->engine.advance_to(time_s);
  maybe_auto_pump();
  return true;
}

std::size_t DetectionService::pump() {
  if (pumping_) return 0;
  pumping_ = true;

  // Take the queues out of the shards first: round callbacks may ingest
  // (and so enqueue fresh rounds) during delivery, and those must land in
  // the live queues, not the batch being iterated.
  std::vector<std::vector<PendingRound>> batches(shards_.size());
  std::size_t total = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    batches[i] = std::move(shards_[i].queue);
    shards_[i].queue.clear();
    total += batches[i].size();
  }
  queued_total_ = 0;

  if (total > 0) {
    const bool instrumented = obs::enabled();
    obs::ScopedTimer pump_timer =
        instrumented
            ? obs::ScopedTimer(sinks().pump_ns, obs::trace(),
                               {.phase = "service.pump",
                                .pairs = static_cast<std::int64_t>(total)})
            : obs::ScopedTimer();

    // One pool task per shard; each drains its own batch FIFO, so a
    // session's rounds run in order on a single worker. Which shard runs
    // on which worker is scheduler whim — results never depend on it.
    parallel_for(
        config_.threads, batches.size(),
        [&](std::size_t /*worker*/, std::size_t index) {
          obs::Histogram* shard_hist =
              instrumented ? shard_round_ns_[index] : nullptr;
          for (PendingRound& pending : batches[index]) {
            // Session id as the span-context observer: detector-internal
            // spans recorded on this worker join to the right session and
            // round even though the engine itself knows neither.
            obs::ScopedSpanContext span_context(
                static_cast<std::int64_t>(pending.input.round_id),
                static_cast<std::int64_t>(pending.session_id));
            obs::ScopedTimer round_timer(shard_hist);
            pending.result = pending.session->engine.run_prepared_round(
                std::move(pending.input));
          }
        });
    pump_timer.stop();

    // Deliver after the join, shard-major and FIFO within each shard — a
    // deterministic order independent of the worker interleaving above.
    for (std::vector<PendingRound>& batch : batches) {
      for (PendingRound& pending : batch) {
        ++stats_.rounds_executed;
        if (callback_ || !listeners_.empty()) {
          const SessionRound delivered{pending.session_id,
                                       std::move(pending.result)};
          if (callback_) callback_(delivered);
          for (const auto& listener : listeners_) listener(delivered);
        }
      }
    }
    ++stats_.pumps;
    if (instrumented) {
      sinks().rounds_executed->add(total);
      sinks().pumps->add(1);
      sinks().pump_rounds->record(static_cast<double>(total));
    }
  }
  evict_idle();
  publish_session_gauges();
  pumping_ = false;
  return total;
}

void DetectionService::evict_idle() {
  if (config_.session_idle_timeout_s <= 0.0) return;
  const double horizon = service_time_ - config_.session_idle_timeout_s;
  for (Shard& shard : shards_) {
    for (auto it = shard.sessions.begin(); it != shard.sessions.end();) {
      Session& session = it->second;
      // A round-callback may have re-queued work for this session during
      // delivery; a session with queued rounds is not idle.
      const bool queued = std::any_of(
          shard.queue.begin(), shard.queue.end(),
          [&](const PendingRound& p) { return p.session == &session; });
      if (!queued && session.last_offered_s < horizon) {
        ++stats_.sessions_evicted_idle;
        if (obs::enabled()) sinks().sessions_evicted_idle->add(1);
        it = shard.sessions.erase(it);
        --sessions_active_;
      } else {
        ++it;
      }
    }
  }
}

bool DetectionService::close(SessionId session) {
  Session* s = find_session(session);
  if (s == nullptr) return false;
  Shard& shard = shards_[s->shard];
  const auto removed = std::remove_if(
      shard.queue.begin(), shard.queue.end(),
      [&](const PendingRound& p) { return p.session == s; });
  const auto dropped =
      static_cast<std::size_t>(shard.queue.end() - removed);
  shard.queue.erase(removed, shard.queue.end());
  queued_total_ -= dropped;
  stats_.rounds_shed_closed += dropped;
  if (obs::enabled() && dropped > 0) sinks().rounds_shed_closed->add(dropped);
  shard.sessions.erase(session);
  --sessions_active_;
  ++stats_.sessions_closed;
  if (obs::enabled()) sinks().sessions_closed->add(1);
  publish_session_gauges();
  return true;
}

const stream::StreamEngine* DetectionService::session_engine(
    SessionId session) const {
  const Shard& shard = shards_[shard_of(session)];
  const auto it = shard.sessions.find(session);
  return it == shard.sessions.end() ? nullptr : &it->second.engine;
}

void DetectionService::for_each_session(
    const std::function<void(SessionId, const stream::StreamEngine&)>& fn)
    const {
  for (const Shard& shard : shards_) {
    for (const auto& [id, session] : shard.sessions) {
      fn(id, session.engine);
    }
  }
}

}  // namespace vp::service
