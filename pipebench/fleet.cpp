#include "fleet.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/rng.h"

namespace pipebench {

namespace {

constexpr double kMaliciousShare = 0.05;   // Table V
constexpr int kMinSybils = 3;
constexpr int kMaxSybils = 6;
constexpr double kWalkRho = 0.98;          // per tick: ~5 s correlation
constexpr double kWalkSigmaDb = 4.0;
constexpr double kIdentityGapS = 0.002;    // Sybil identities burst back to back

template <typename T>
void shuffle(std::vector<T>& items, FastRng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(rng.next() % i);
    std::swap(items[i - 1], items[j]);
  }
}

}  // namespace

std::uint64_t FastRng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double FastRng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double FastRng::normal() {
  if (has_spare_) {
    has_spare_ = false;
    return spare_;
  }
  const double u1 = 1.0 - uniform();  // (0, 1]
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double a = 2.0 * std::numbers::pi * u2;
  spare_ = r * std::sin(a);
  has_spare_ = true;
  return r * std::cos(a);
}

FleetPlan FleetPlan::build(const FleetShape& shape, std::uint64_t seed) {
  FastRng rng(vp::mix64(seed, 0xf1ee7));
  FleetPlan plan;

  // Radio count that yields about pool_identities identities on average.
  const double mean_extra = (kMinSybils + kMaxSybils) / 2.0;
  const std::size_t radios = std::max<std::size_t>(
      shape.identities_per_observer,
      static_cast<std::size_t>(std::llround(
          static_cast<double>(shape.pool_identities) /
          (1.0 + kMaliciousShare * mean_extra))));
  const std::size_t malicious = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::llround(kMaliciousShare * static_cast<double>(radios))));

  std::vector<std::size_t> order(radios);
  for (std::size_t r = 0; r < radios; ++r) order[r] = r;
  shuffle(order, rng);
  plan.radios.resize(radios);
  for (std::size_t i = 0; i < malicious; ++i) {
    plan.radios[order[i]].malicious = true;
  }

  for (std::size_t r = 0; r < radios; ++r) {
    RadioPlan& radio = plan.radios[r];
    const std::size_t count =
        radio.malicious
            ? 1 + static_cast<std::size_t>(
                      kMinSybils + rng.next() % (kMaxSybils - kMinSybils + 1))
            : 1;
    const double phase_s = rng.uniform(0.0, 0.08);
    for (std::size_t j = 0; j < count; ++j) {
      IdentityPlan identity;
      identity.id = static_cast<vp::IdentityId>(plan.identities.size() + 1);
      identity.radio = r;
      identity.tx_dbm = rng.uniform(17.0, 23.0);
      identity.offset_s = phase_s + static_cast<double>(j) * kIdentityGapS;
      identity.noise_db = rng.uniform(0.2, 0.5);
      identity.loss = rng.uniform(0.01, 0.05);
      radio.identities.push_back(plan.identities.size());
      plan.identities.push_back(identity);
    }
  }

  for (std::size_t o = 0; o < shape.observers; ++o) {
    ObserverPlan observer;
    observer.id = o + 1;
    observer.connection = o % kConnections;
    std::vector<std::size_t> candidates(radios);
    for (std::size_t r = 0; r < radios; ++r) candidates[r] = r;
    shuffle(candidates, rng);
    std::size_t remaining = shape.identities_per_observer;
    for (std::size_t r : candidates) {
      if (remaining == 0) break;
      const std::size_t size = plan.radios[r].identities.size();
      if (size > remaining) continue;
      remaining -= size;
      observer.links.push_back(LinkPlan{
          .radio = r,
          .base_dbm = rng.uniform(-78.0, -62.0),
          .swing_db = rng.uniform(2.0, 6.0),
          .swing_period_s = rng.uniform(120.0, 300.0),
          .swing_phase = rng.uniform(0.0, 2.0 * std::numbers::pi)});
    }
    plan.observers.push_back(std::move(observer));
  }
  return plan;
}

bool FleetPlan::positive(vp::IdentityId id) const {
  if (id == 0 || id > identities.size()) return false;
  return radios[identities[id - 1].radio].malicious;
}

std::size_t FleetPlan::positives() const {
  std::size_t n = 0;
  for (const RadioPlan& radio : radios) {
    if (radio.malicious) n += radio.identities.size();
  }
  return n;
}

FrameSource::FrameSource(const FleetPlan& plan, std::size_t connection,
                         std::uint64_t seed, Damage damage)
    : plan_(plan),
      damage_(damage),
      rng_(vp::mix64(seed, 0xc0ffee + connection)) {
  for (const ObserverPlan& o : plan.observers) {
    if (o.connection != connection) continue;
    Observer observer{.id = o.id, .links = {}, .slots = {}};
    for (const LinkPlan& link : o.links) {
      for (std::size_t index : plan.radios[link.radio].identities) {
        observer.slots.push_back(
            Slot{.link = observer.links.size(), .identity = index});
      }
      observer.links.push_back(
          Link{.plan = &link, .walk_db = kWalkSigmaDb * rng_.normal()});
    }
    max_slots_ = std::max(max_slots_, observer.slots.size());
    observers_.push_back(std::move(observer));
  }
}

void FrameSource::append_tick(std::uint64_t k, std::vector<std::uint8_t>& out,
                              std::vector<vp::sim::FleetBeacon>* intact) {
  const double tick_s = static_cast<double>(k) * kTickS;
  const double innovation = kWalkSigmaDb * std::sqrt(1.0 - kWalkRho * kWalkRho);
  for (Observer& observer : observers_) {
    for (Link& link : observer.links) {
      const LinkPlan& lp = *link.plan;
      link.walk_db = kWalkRho * link.walk_db + innovation * rng_.normal();
      const double swing =
          lp.swing_db * std::sin(2.0 * std::numbers::pi * tick_s /
                                     lp.swing_period_s +
                                 lp.swing_phase);
      link.level_db = lp.base_dbm + swing + link.walk_db;
    }
  }
  for (std::size_t j = 0; j < max_slots_; ++j) {
    for (const Observer& observer : observers_) {
      if (j >= observer.slots.size()) continue;
      const Slot& slot = observer.slots[j];
      const IdentityPlan& identity = plan_.identities[slot.identity];
      const double jitter = rng_.uniform(0.0, 0.003);
      const double noise = identity.noise_db * rng_.normal();
      const double time_s = tick_s + identity.offset_s + jitter;
      if (rng_.uniform() < identity.loss) {
        // A lost beacon leaves a heartbeat in its slot: every observer
        // sends a fixed number of frames per tick, so both connections'
        // byte streams stay aligned and a round boundary's rounds are
        // prepared in the same drain whatever the seed's losses.
        encoder_.append_heartbeat(observer.id, time_s, out);
        if (intact != nullptr) {
          intact->push_back(vp::sim::FleetBeacon{
              .time_s = time_s, .observer = observer.id, .id = 0,
              .rssi_dbm = 0.0});
        }
        continue;
      }
      double rssi = observer.links[slot.link].level_db +
                    (identity.tx_dbm - 20.0) + noise;
      if (damage_.spike_share > 0.0 && rng_.uniform() < damage_.spike_share) {
        const double magnitude = rng_.uniform(15.0, 25.0);
        rssi += (rng_.next() & 1) ? magnitude : -magnitude;
        ++spiked_;
      }
      const std::size_t at = out.size();
      encoder_.append_beacon(observer.id, identity.id, time_s, rssi, out);
      if (damage_.corrupt_share > 0.0 &&
          rng_.uniform() < damage_.corrupt_share) {
        // Inside the checksummed payload (seq..rssi): the decoder must
        // consume the frame whole and count one checksum reject.
        out[at + 6 + rng_.next() % 36] ^= 0xFF;
        ++corrupted_;
      } else {
        ++beacons_;
        if (intact != nullptr) {
          intact->push_back(vp::sim::FleetBeacon{.time_s = time_s,
                                                 .observer = observer.id,
                                                 .id = identity.id,
                                                 .rssi_dbm = rssi});
        }
      }
    }
  }
}

void FrameSource::append_close(double time_s, std::vector<std::uint8_t>& out) {
  for (const Observer& observer : observers_) {
    encoder_.append_close(observer.id, time_s, out);
  }
}

}  // namespace pipebench
