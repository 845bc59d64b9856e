#include "stream/engine.h"

#include <cmath>
#include <utility>

#include "common/error.h"
#include "obs/runtime.h"
#include "obs/timer.h"
#include "obs/trace.h"
#include "stream/checkpoint.h"

namespace vp::stream {

namespace {

// Registry instruments, resolved once per engine (lookup takes a mutex;
// ingest must not). Updates are gated on obs::enabled() — with
// observability off the engine pays one predictable branch per beacon.
struct Sinks {
  obs::Counter* offered;
  obs::Counter* ingested;
  obs::Counter* shed_rate;
  obs::Counter* shed_identity_cap;
  obs::Counter* shed_out_of_order;
  obs::Counter* shed_invalid_rssi_non_finite;
  obs::Counter* shed_invalid_rssi_out_of_range;
  obs::Counter* shed_invalid_time_non_finite;
  obs::Counter* shed_invalid_time_negative;
  obs::Counter* shed_conditioned;
  obs::Counter* cond_offered;
  obs::Counter* cond_passed;
  obs::Counter* cond_clamped;
  obs::Counter* cond_rejected;
  obs::Counter* ring_evictions;
  obs::Counter* samples_expired;
  obs::Counter* identities_expired;
  obs::Counter* rounds;
  obs::Histogram* round_ns;
  obs::Histogram* round_suspects;
  obs::Histogram* round_neighbors;
  obs::Gauge* identities_tracked;
};

const Sinks& sinks() {
  static const Sinks s = [] {
    obs::MetricsRegistry& r = obs::registry();
    return Sinks{
        .offered = &r.counter("stream.beacons_offered"),
        .ingested = &r.counter("stream.beacons_ingested"),
        .shed_rate = &r.counter("stream.beacons_shed_rate_limited"),
        .shed_identity_cap = &r.counter("stream.beacons_shed_identity_cap"),
        .shed_out_of_order = &r.counter("stream.beacons_shed_out_of_order"),
        .shed_invalid_rssi_non_finite =
            &r.counter("stream.shed_invalid.rssi_non_finite"),
        .shed_invalid_rssi_out_of_range =
            &r.counter("stream.shed_invalid.rssi_out_of_range"),
        .shed_invalid_time_non_finite =
            &r.counter("stream.shed_invalid.time_non_finite"),
        .shed_invalid_time_negative =
            &r.counter("stream.shed_invalid.time_negative"),
        .shed_conditioned = &r.counter("stream.beacons_shed_conditioned"),
        .cond_offered = &r.counter("cond.offered"),
        .cond_passed = &r.counter("cond.passed"),
        .cond_clamped = &r.counter("cond.clamped"),
        .cond_rejected = &r.counter("cond.rejected"),
        .ring_evictions = &r.counter("stream.ring_evictions"),
        .samples_expired = &r.counter("stream.samples_expired"),
        .identities_expired = &r.counter("stream.identities_expired"),
        .rounds = &r.counter("stream.rounds"),
        .round_ns = &r.histogram("stream.round_ns"),
        .round_suspects = &r.histogram("stream.round_suspects",
                                       obs::Histogram::default_count_bounds()),
        .round_neighbors = &r.histogram("stream.round_neighbors",
                                        obs::Histogram::default_count_bounds()),
        .identities_tracked = &r.gauge("stream.identities_tracked"),
    };
  }();
  return s;
}

}  // namespace

StreamEngine::StreamEngine(StreamEngineConfig config)
    : config_(std::move(config)), detector_(config_.detector) {
  VP_REQUIRE(config_.observation_time_s > 0.0);
  VP_REQUIRE(config_.round_period_s > 0.0);
  VP_REQUIRE(config_.density_estimation_period_s > 0.0);
  // The rings only guarantee retention over the observation window, so
  // the Eq. 9 estimation period must fit inside it.
  VP_REQUIRE(config_.density_estimation_period_s <= config_.observation_time_s);
  VP_REQUIRE(config_.max_transmission_range_m > 0.0);
  VP_REQUIRE(config_.ring_capacity >= 1);
  VP_REQUIRE(config_.max_identities >= 1);
  VP_REQUIRE(config_.staleness_horizon_s > 0.0);
  next_round_ = config_.observation_time_s;
  VP_REQUIRE(config_.min_valid_rssi_dbm < config_.max_valid_rssi_dbm);
  if (config_.condition_ingest) cond::validate(config_.conditioning);
}

StreamEngine::StreamEngine(StreamEngineConfig config,
                           const EngineCheckpoint& checkpoint)
    : StreamEngine(std::move(config)) {
  // The checkpoint only makes sense under the geometry it was taken with;
  // a silent mismatch would produce plausible-looking wrong rounds.
  VP_REQUIRE(checkpoint.config_hash == engine_config_hash(config_));
  // The hash is no authentication, so hold the image to the caps this
  // config promises before any ring is built: an honest engine admits at
  // most max_identities, builds every ring at ring_capacity, and keeps
  // at most `window` conditioner samples (none when unconditioned).
  VP_REQUIRE(checkpoint.identities.size() <= config_.max_identities);
  const std::size_t cond_window =
      config_.condition_ingest ? config_.conditioning.window : 0;
  for (const IdentityCheckpoint& ic : checkpoint.identities) {
    VP_REQUIRE(ic.ring.capacity == config_.ring_capacity);
    VP_REQUIRE(ic.cond_window.size() <= cond_window);
  }
  next_round_ = checkpoint.next_round_s;
  last_round_time_ = checkpoint.last_round_time_s;
  next_round_id_ = checkpoint.next_round_id;
  bucket_second_ = checkpoint.bucket_second;
  bucket_accepted_ = checkpoint.bucket_accepted;
  stats_ = checkpoint.stats;
  for (const IdentityCheckpoint& ic : checkpoint.identities) {
    IdentityState state(1);
    state.ring = BeaconBuffer::from_snapshot(ic.ring);
    state.last_heard_s = ic.last_heard_s;
    state.conditioner.restore(ic.cond_window, ic.cond_ema_q12,
                              ic.cond_ema_init, ic.cond_reject_streak);
    states_.emplace(ic.id, std::move(state));
  }
}

EngineCheckpoint StreamEngine::checkpoint() const {
  EngineCheckpoint cp;
  cp.config_hash = engine_config_hash(config_);
  cp.next_round_s = next_round_;
  cp.last_round_time_s = last_round_time_;
  cp.next_round_id = next_round_id_;
  cp.bucket_second = bucket_second_;
  cp.bucket_accepted = bucket_accepted_;
  cp.stats = stats_;
  cp.identities.reserve(states_.size());
  for (const auto& [id, state] : states_) {
    IdentityCheckpoint ic;
    ic.id = id;
    ic.last_heard_s = state.last_heard_s;
    ic.ring = state.ring.snapshot();
    const cond::Conditioner& c = state.conditioner;
    ic.cond_window.reserve(c.window_count());
    for (std::size_t i = 0; i < c.window_count(); ++i) {
      ic.cond_window.push_back(c.window_sample(i));
    }
    ic.cond_ema_q12 = c.ema_q12();
    ic.cond_ema_init = c.ema_initialized();
    ic.cond_reject_streak = c.reject_streak();
    cp.identities.push_back(std::move(ic));
  }
  return cp;
}

StreamEngine::Admission StreamEngine::ingest(IdentityId id, double time_s,
                                             double rssi_dbm) {
  const bool instrumented = obs::enabled();
  ++stats_.beacons_offered;
  if (instrumented) sinks().offered->add(1);

  // Validation front: out-of-contract beacons are shed before the stream
  // clock moves — a non-finite timestamp must never reach advance_to,
  // where it would stall (NaN) or unboundedly run (+inf) the scheduler.
  if (config_.validate_ingest) {
    if (!std::isfinite(time_s)) {
      ++stats_.shed_invalid_time_non_finite;
      if (instrumented) sinks().shed_invalid_time_non_finite->add(1);
      return Admission::kShedInvalid;
    }
    if (time_s < 0.0) {
      ++stats_.shed_invalid_time_negative;
      if (instrumented) sinks().shed_invalid_time_negative->add(1);
      return Admission::kShedInvalid;
    }
    if (!std::isfinite(rssi_dbm)) {
      ++stats_.shed_invalid_rssi_non_finite;
      if (instrumented) sinks().shed_invalid_rssi_non_finite->add(1);
      return Admission::kShedInvalid;
    }
    if (rssi_dbm < config_.min_valid_rssi_dbm ||
        rssi_dbm > config_.max_valid_rssi_dbm) {
      ++stats_.shed_invalid_rssi_out_of_range;
      if (instrumented) sinks().shed_invalid_rssi_out_of_range->add(1);
      return Admission::kShedInvalid;
    }
  }

  // A round at t covers [t − observation, t): run every round due at or
  // before this beacon first, so the beacon (time >= t) stays outside.
  advance_to(time_s);

  // Late beacon whose confirmation round already closed.
  if (time_s < last_round_time_) {
    ++stats_.beacons_shed_out_of_order;
    if (instrumented) sinks().shed_out_of_order->add(1);
    return Admission::kShedOutOfOrder;
  }

  // Admission cap: at most max_ingest_rate_hz accepted beacons per whole
  // second of stream time. Deterministic — no wall clock involved.
  if (config_.max_ingest_rate_hz > 0.0) {
    const auto second = static_cast<std::int64_t>(std::floor(time_s));
    if (second != bucket_second_) {
      bucket_second_ = second;
      bucket_accepted_ = 0;
    }
    if (static_cast<double>(bucket_accepted_) >= config_.max_ingest_rate_hz) {
      ++stats_.beacons_shed_rate_limited;
      if (instrumented) sinks().shed_rate->add(1);
      return Admission::kShedRateLimited;
    }
  }

  auto it = states_.find(id);
  if (it == states_.end()) {
    if (states_.size() >= config_.max_identities) {
      ++stats_.beacons_shed_identity_cap;
      if (instrumented) sinks().shed_identity_cap->add(1);
      return Admission::kShedIdentityCap;
    }
    it = states_.emplace(id, IdentityState(config_.ring_capacity)).first;
  } else if (time_s < it->second.last_heard_s) {
    // Identities of one radio beacon in time order; a regression is a
    // transport glitch, not a new window sample (equal timestamps are
    // fine — CCH and SCH receptions can land together).
    ++stats_.beacons_shed_out_of_order;
    if (instrumented) sinks().shed_out_of_order->add(1);
    return Admission::kShedOutOfOrder;
  }

  IdentityState& state = it->second;

  // Conditioning stage (DESIGN.md §15): after every admission decision —
  // a shed beacon must not perturb the filter — and before the ring, so
  // the detector only ever sees conditioned values. Pure integer
  // arithmetic; the double round-trip through Q19.12 is exact dyadic.
  if (config_.condition_ingest) {
    ++stats_.cond_offered;
    if (instrumented) sinks().cond_offered->add(1);
    const cond::Sample sample =
        state.conditioner.process(cond::to_q12(rssi_dbm), config_.conditioning);
    switch (sample.verdict) {
      case cond::Verdict::kReject:
        ++stats_.cond_rejected;
        ++stats_.beacons_shed_conditioned;
        if (instrumented) {
          sinks().cond_rejected->add(1);
          sinks().shed_conditioned->add(1);
        }
        return Admission::kShedConditioned;
      case cond::Verdict::kClamp:
        ++stats_.cond_clamped;
        if (instrumented) sinks().cond_clamped->add(1);
        break;
      case cond::Verdict::kPass:
        ++stats_.cond_passed;
        if (instrumented) sinks().cond_passed->add(1);
        break;
    }
    rssi_dbm = cond::from_q12(sample.conditioned_q12);
  }

  if (state.ring.push(time_s, rssi_dbm)) {
    ++stats_.ring_evictions;
    if (instrumented) sinks().ring_evictions->add(1);
  }
  state.last_heard_s = time_s;
  ++bucket_accepted_;
  ++stats_.beacons_ingested;
  if (instrumented) sinks().ingested->add(1);
  return Admission::kAccepted;
}

void StreamEngine::advance_to(double time_s) {
  // Repeated addition, exactly like World::detection_times builds its
  // instants — bit-equal round times are part of the parity invariant.
  while (next_round_ <= time_s) {
    run_round(next_round_);
    next_round_ += config_.round_period_s;
  }
}

void StreamEngine::expire_stale(double t) {
  const bool instrumented = obs::enabled();
  for (auto it = states_.begin(); it != states_.end();) {
    IdentityState& state = it->second;
    if (state.last_heard_s < t - config_.staleness_horizon_s) {
      ++stats_.identities_expired;
      if (instrumented) sinks().identities_expired->add(1);
      it = states_.erase(it);
      continue;
    }
    // Age samples that slid out of every window this round can use.
    const std::size_t dropped =
        state.ring.evict_before(t - config_.observation_time_s);
    stats_.samples_expired += dropped;
    if (instrumented && dropped > 0) sinks().samples_expired->add(dropped);
    ++it;
  }
}

void StreamEngine::run_round(double t) {
  expire_stale(t);

  const double t0 = t - config_.observation_time_s;
  round_series_.clear();
  std::size_t heard_for_density = 0;
  for (auto& [id, state] : states_) {
    if (state.ring.count_in(t - config_.density_estimation_period_s, t) >= 1) {
      ++heard_for_density;
    }
    const std::size_t n = state.ring.count_in(t0, t);
    if (n < config_.min_samples) continue;
    ts::Series series;
    series.reserve(n);
    state.ring.extract(t0, t, series);
    round_series_.emplace_back(id, std::move(series));
  }
  // Eq. 9, exactly as World::observe computes it for the batch window.
  const double dist_max_km = config_.max_transmission_range_m / 1000.0;
  const double density =
      static_cast<double>(heard_for_density) / (2.0 * dist_max_km);

  // The cut is final: from here the round is a pure function of `input`,
  // so later beacons are late relative to it whether or not the detector
  // has run yet.
  last_round_time_ = t;
  if (obs::enabled()) {
    sinks().identities_tracked->set(static_cast<double>(states_.size()));
  }

  RoundInput input;
  input.round_id = next_round_id_++;
  input.time_s = t;
  input.density_per_km = density;
  input.series = std::move(round_series_);
  if (defer_) {
    defer_(std::move(input));
    return;
  }
  run_prepared_round(std::move(input));
}

const StreamRound& StreamEngine::run_prepared_round(RoundInput input) {
  const bool instrumented = obs::enabled();
  // Detector-internal spans on this thread inherit the round id (and, in
  // service mode, the session id the pump worker installed).
  obs::ScopedSpanContext span_context(
      static_cast<std::int64_t>(input.round_id), -1);
  obs::ScopedTimer round_timer =
      instrumented
          ? obs::ScopedTimer(
                sinks().round_ns, obs::trace(),
                {.phase = "stream.round",
                 .pairs = static_cast<std::int64_t>(
                     input.series.size() * (input.series.size() - 1) / 2),
                 .round = static_cast<std::int64_t>(input.round_id)})
          : obs::ScopedTimer();

  StreamRound round;
  round.round_id = input.round_id;
  round.time_s = input.time_s;
  round.identities_heard = input.series.size();
  round.density_per_km = input.density_per_km;
  round.suspects = detector_.detect_series(input.series, input.density_per_km);
  round.pairs = detector_.last_all_pairs();
  round_timer.stop();

  ++stats_.rounds;
  if (instrumented) {
    sinks().rounds->add(1);
    sinks().round_suspects->record(static_cast<double>(round.suspects.size()));
    sinks().round_neighbors->record(
        static_cast<double>(round.identities_heard));
  }
  if (callback_) callback_(round);
  last_round_ = std::move(round);
  // Recycle the window vector's capacity for the next inline cut. Under
  // deferral the next cut may already be in flight on the harness thread,
  // so the buffer is left alone there.
  if (!defer_) round_series_ = std::move(input.series);
  return *last_round_;
}

}  // namespace vp::stream
