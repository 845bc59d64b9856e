#include "fusion/engine.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.h"
#include "fusion/checkpoint.h"
#include "obs/runtime.h"
#include "obs/timer.h"

namespace vp::fusion {

namespace {

// Registry instruments, resolved once (lookup takes a mutex; the delivery
// path must not). Updates are gated on obs::enabled().
struct Sinks {
  obs::Counter* rounds_delivered;
  obs::Counter* rounds_fused;
  obs::Counter* rounds_expired;
  obs::Counter* epochs_closed;
  obs::Counter* votes_cast;
  obs::Counter* verdicts_fused;
  obs::Counter* accusations_fused;
  obs::Gauge* rounds_pending;
  obs::Histogram* epoch_close_ns;
  obs::Histogram* epoch_verdicts;
};

const Sinks& sinks() {
  static const Sinks s = [] {
    obs::MetricsRegistry& r = obs::registry();
    return Sinks{
        .rounds_delivered = &r.counter("fusion.rounds_delivered"),
        .rounds_fused = &r.counter("fusion.rounds_fused"),
        .rounds_expired = &r.counter("fusion.rounds_expired"),
        .epochs_closed = &r.counter("fusion.epochs_closed"),
        .votes_cast = &r.counter("fusion.votes_cast"),
        .verdicts_fused = &r.counter("fusion.verdicts_fused"),
        .accusations_fused = &r.counter("fusion.accusations_fused"),
        .rounds_pending = &r.gauge("fusion.rounds_pending"),
        .epoch_close_ns = &r.histogram("fusion.epoch_close_ns"),
        .epoch_verdicts = &r.histogram("fusion.epoch_verdicts",
                                       obs::Histogram::default_count_bounds()),
    };
  }();
  return s;
}

void set_pending_gauge(std::uint64_t pending) {
  if (!obs::enabled()) return;
  sinks().rounds_pending->set(static_cast<double>(pending));
}

}  // namespace

double TrustStore::get(std::uint64_t id) const {
  const auto it = scores_.find(id);
  return it == scores_.end() ? config_.initial : it->second;
}

void TrustStore::adjust(std::uint64_t id, double delta) {
  double& score = scores_.try_emplace(id, config_.initial).first->second;
  score = std::clamp(score + delta, config_.floor, config_.ceiling);
}

FusionEngine::FusionEngine(FusionConfig config)
    : config_(std::move(config)),
      identity_trust_(config_.trust),
      observer_trust_(config_.trust) {
  VP_REQUIRE(config_.epoch_period_s > 0.0);
  VP_REQUIRE(config_.watermark_lateness_s >= 0.0);
  VP_REQUIRE(config_.quorum_fraction >= 0.0 && config_.quorum_fraction <= 1.0);
  VP_REQUIRE(config_.exoneration_weight > 0.0 &&
             config_.exoneration_weight <= 1.0);
  VP_REQUIRE(config_.min_corroboration >= 1);
  VP_REQUIRE(config_.density_reference_per_km > 0.0);
  VP_REQUIRE(config_.trust.floor >= 0.0 && config_.trust.ceiling <= 1.0);
  VP_REQUIRE(config_.trust.floor <= config_.trust.ceiling);
}

FusionEngine::FusionEngine(FusionConfig config,
                           const FusionCheckpoint& checkpoint)
    : FusionEngine(std::move(config)) {
  VP_REQUIRE(checkpoint.config_hash == fusion_config_hash(config_));
  // TrustStore::adjust clamps every live score; a restored one must obey
  // the same bounds (NaN fails both comparisons).
  for (const auto* store : {&checkpoint.identity_trust,
                            &checkpoint.observer_trust}) {
    for (const auto& [id, score] : *store) {
      VP_REQUIRE(score >= config_.trust.floor &&
                 score <= config_.trust.ceiling);
    }
  }
  stats_ = checkpoint.stats;
  watermark_ = checkpoint.watermark;
  closed_before_ = checkpoint.closed_before;
  identity_trust_.restore(checkpoint.identity_trust);
  observer_trust_.restore(checkpoint.observer_trust);
  pending_rounds_ = 0;
  for (const EpochCheckpoint& ec : checkpoint.epochs) {
    OpenEpoch& epoch = epochs_[ec.index];
    epoch.rounds = ec.rounds;
    epoch.max_round_id = ec.max_round_id;
    pending_rounds_ += ec.rounds;
    for (const VoteCheckpoint& vc : ec.votes) {
      Vote& vote =
          epoch.votes[static_cast<IdentityId>(vc.identity)][vc.observer];
      vote.accused = vc.accused;
      vote.density_per_km = vc.density_per_km;
      vote.time_s = vc.time_s;
    }
  }
  set_pending_gauge(pending_rounds_);
}

FusionCheckpoint FusionEngine::checkpoint() const {
  FusionCheckpoint cp;
  cp.config_hash = fusion_config_hash(config_);
  cp.watermark = watermark_;
  cp.closed_before = closed_before_;
  cp.stats = stats_;
  cp.identity_trust = identity_trust_.scores();
  cp.observer_trust = observer_trust_.scores();
  cp.epochs.reserve(epochs_.size());
  for (const auto& [index, epoch] : epochs_) {
    EpochCheckpoint ec;
    ec.index = index;
    ec.rounds = epoch.rounds;
    ec.max_round_id = epoch.max_round_id;
    for (const auto& [identity, votes] : epoch.votes) {
      for (const auto& [observer, vote] : votes) {
        ec.votes.push_back(VoteCheckpoint{
            .identity = identity,
            .observer = observer,
            .accused = vote.accused,
            .density_per_km = vote.density_per_km,
            .time_s = vote.time_s});
      }
    }
    cp.epochs.push_back(std::move(ec));
  }
  return cp;
}

std::int64_t FusionEngine::epoch_of(double time_s) const {
  return static_cast<std::int64_t>(
      std::floor(time_s / config_.epoch_period_s));
}

void FusionEngine::observe(const service::SessionRound& round) {
  ++stats_.rounds_delivered;
  if (obs::enabled()) sinks().rounds_delivered->add(1);

  const std::int64_t index = epoch_of(round.round.time_s);
  if (index < closed_before_) {
    // The epoch already closed and its verdicts are out; counting the
    // straggler keeps the conservation law exact.
    ++stats_.rounds_expired;
    if (obs::enabled()) sinks().rounds_expired->add(1);
    return;
  }

  OpenEpoch& epoch = epochs_[index];
  ++epoch.rounds;
  ++pending_rounds_;
  epoch.max_round_id = std::max(epoch.max_round_id, round.round.round_id);

  // The round's electorate: every identity the observer compared (the
  // pair endpoints) plus the suspects themselves — accused when flagged,
  // exonerated when heard clean. `identities_heard` is only a count, so
  // the pair list is the authoritative roster.
  std::map<IdentityId, bool> ballots;
  for (const core::PairDistance& pair : round.round.pairs) {
    ballots.emplace(pair.a, false);
    ballots.emplace(pair.b, false);
  }
  for (IdentityId suspect : round.round.suspects) {
    ballots.insert_or_assign(suspect, true);
  }

  std::uint64_t new_votes = 0;
  for (const auto& [identity, accused] : ballots) {
    const auto [it, inserted] =
        epoch.votes[identity].try_emplace(round.session);
    Vote& vote = it->second;
    if (inserted) ++new_votes;
    // Several rounds from one session can land in one epoch (engine
    // round period shorter than the fusion epoch): the newest round's
    // density wins, an accusation from any of them sticks.
    if (inserted || round.round.time_s >= vote.time_s) {
      vote.time_s = round.round.time_s;
      vote.density_per_km = round.round.density_per_km;
    }
    vote.accused = vote.accused || accused;
  }
  stats_.votes_cast += new_votes;
  if (obs::enabled() && new_votes > 0) sinks().votes_cast->add(new_votes);
  set_pending_gauge(pending_rounds_);
}

void FusionEngine::advance(double time_s) {
  watermark_ = std::max(watermark_, time_s);
  // Epoch e spans [e·P, (e+1)·P); it closes once the watermark passes its
  // end plus the lateness slack.
  const double cutoff = watermark_ - config_.watermark_lateness_s;
  const std::int64_t last =
      static_cast<std::int64_t>(std::floor(cutoff / config_.epoch_period_s)) -
      1;
  close_epochs_through(last);
}

void FusionEngine::finish() {
  if (!epochs_.empty()) close_epochs_through(epochs_.rbegin()->first);
}

void FusionEngine::close_epochs_through(std::int64_t last_index) {
  while (!epochs_.empty() && epochs_.begin()->first <= last_index) {
    const auto it = epochs_.begin();
    const std::int64_t index = it->first;
    OpenEpoch epoch = std::move(it->second);
    epochs_.erase(it);
    closed_before_ = std::max(closed_before_, index + 1);
    close_epoch(index, epoch);
  }
  closed_before_ = std::max(closed_before_, last_index + 1);
}

void FusionEngine::close_epoch(std::int64_t index, const OpenEpoch& epoch) {
  const bool instrumented = obs::enabled();
  obs::ScopedTimer close_timer =
      instrumented
          ? obs::ScopedTimer(
                sinks().epoch_close_ns, obs::trace(),
                {.phase = "fusion.epoch_close",
                 .window = index,
                 .pairs = static_cast<std::int64_t>(epoch.votes.size()),
                 .round = static_cast<std::int64_t>(epoch.max_round_id)})
          : obs::ScopedTimer();

  FusedEpoch out;
  out.index = index;
  out.start_s = static_cast<double>(index) * config_.epoch_period_s;
  out.end_s = static_cast<double>(index + 1) * config_.epoch_period_s;
  out.rounds = epoch.rounds;
  out.max_round_id = epoch.max_round_id;
  out.verdicts.reserve(epoch.votes.size());

  // Phase 1 — verdicts. Weights read the *epoch-start* trust scores
  // (phase 2 has not run yet) and sum in sorted (identity, observer)
  // order, so the totals are bit-identical regardless of the order the
  // service delivered the rounds in.
  for (const auto& [identity, votes] : epoch.votes) {
    FusedVerdict verdict;
    verdict.id = identity;
    for (const auto& [observer, vote] : votes) {
      double weight = 1.0;
      if (config_.weight_by_trust) weight *= observer_trust_.get(observer);
      if (config_.weight_by_density) {
        weight *= 1.0 + vote.density_per_km / config_.density_reference_per_km;
      }
      if (!vote.accused) weight *= config_.exoneration_weight;
      verdict.total_weight += weight;
      ++verdict.voters;
      if (vote.accused) {
        verdict.accuse_weight += weight;
        ++verdict.accusations;
      }
    }
    // Quorum, strict: an exact tie exonerates. A lone voter's verdict
    // stands as-is — with nobody to corroborate, fusion degrades to the
    // paper's single-observer behaviour instead of muting the detector.
    // Multi-voter ballots additionally need min_corroboration distinct
    // accusers: a near-tie a dense lone accuser would win on weight alone
    // is still one observer's uncorroborated claim.
    verdict.accused =
        verdict.voters == 1
            ? votes.begin()->second.accused
            : verdict.accusations >= config_.min_corroboration &&
                  verdict.accuse_weight >
                      config_.quorum_fraction * verdict.total_weight;
    out.verdicts.push_back(verdict);
  }

  // Phase 2 — trust, in the same sorted order. Identity scores follow
  // the fused verdict; observer scores follow whether the observer voted
  // with it (badmouthing against the quorum is what decays a colluding
  // accuser's future vote weight).
  std::size_t verdict_index = 0;
  std::uint64_t accused_count = 0;
  for (const auto& [identity, votes] : epoch.votes) {
    const FusedVerdict& verdict = out.verdicts[verdict_index++];
    if (verdict.accused) {
      ++accused_count;
      identity_trust_.adjust(identity, -config_.trust.accusation_decay);
    } else {
      identity_trust_.adjust(identity, config_.trust.exoneration_recovery);
    }
    for (const auto& [observer, vote] : votes) {
      if (!vote.accused) continue;
      observer_trust_.adjust(observer,
                             verdict.accused
                                 ? config_.trust.corroboration_reward
                                 : -config_.trust.badmouth_penalty);
    }
  }

  ++stats_.epochs_closed;
  stats_.rounds_fused += epoch.rounds;
  stats_.verdicts_fused += out.verdicts.size();
  stats_.accusations_fused += accused_count;
  pending_rounds_ -= epoch.rounds;
  if (instrumented) {
    sinks().epochs_closed->add(1);
    sinks().rounds_fused->add(epoch.rounds);
    sinks().verdicts_fused->add(out.verdicts.size());
    if (accused_count > 0) sinks().accusations_fused->add(accused_count);
    sinks().epoch_verdicts->record(static_cast<double>(out.verdicts.size()));
  }
  set_pending_gauge(pending_rounds_);
  close_timer.stop();

  if (callback_) callback_(out);
}

}  // namespace vp::fusion
