// The benchmark's one fleet model: a seeded plan of radios, identities and
// observers, and a streaming frame generator over it.
//
// Model (one plan serves every workload; only the shape changes):
//   * A global pool of radios. 5% are malicious and beacon 3-6 Sybil
//     identities besides their own; every other radio beacons one.
//   * Each observer hears a random subset of radios, always all of a
//     radio's identities, filled to exactly `identities_per_observer`
//     identities so per-round work does not depend on the seed.
//   * Per (radio, observer) link: an AR(1) shadowing walk plus a slow
//     periodic drive-past swing. Identities of one radio share their
//     radio's walk (they leave one antenna), carry their own TX power in
//     17-23 dBm, beacon milliseconds apart, and each has its own noise
//     and loss.
//   * Ground truth: every identity of a malicious radio is a positive.
//
// The generator streams: it keeps only per-link walk state and emits one
// 100 ms tick of VPWB frames at a time, so the benchmark's memory
// measures the pipeline, not a pre-encoded run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/ids.h"
#include "sim/replay_source.h"
#include "wire/frame.h"

namespace pipebench {

inline constexpr double kTickS = 0.1;  // 10 Hz beacons
// Loopback TCP connections per run; observers are split round-robin.
inline constexpr std::size_t kConnections = 2;

// splitmix64 stream with a cached Box-Muller normal. Cheaper than the
// library's Rng (mt19937_64 + std::normal_distribution per call), which
// matters because the generator must outrun the pipeline.
class FastRng {
 public:
  explicit FastRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  double uniform();  // [0, 1)
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  double normal();   // N(0, 1)

 private:
  std::uint64_t state_;
  double spare_ = 0.0;
  bool has_spare_ = false;
};

struct FleetShape {
  std::size_t observers = 8;
  std::size_t identities_per_observer = 100;
  std::size_t pool_identities = 150;  // global pool target
};

struct IdentityPlan {
  vp::IdentityId id = 0;
  std::size_t radio = 0;
  double tx_dbm = 20.0;
  double offset_s = 0.0;  // beacon offset inside a tick
  double noise_db = 0.5;
  double loss = 0.0;
};

struct RadioPlan {
  bool malicious = false;
  std::vector<std::size_t> identities;  // indices into FleetPlan::identities
};

struct LinkPlan {
  std::size_t radio = 0;
  double base_dbm = -70.0;
  double swing_db = 0.0;  // drive-past amplitude
  double swing_period_s = 200.0;
  double swing_phase = 0.0;
};

struct ObserverPlan {
  std::uint64_t id = 0;  // session id on the wire
  std::size_t connection = 0;
  std::vector<LinkPlan> links;
};

struct FleetPlan {
  std::vector<RadioPlan> radios;
  std::vector<IdentityPlan> identities;  // identities[i].id == i + 1
  std::vector<ObserverPlan> observers;   // observers[o].id == o + 1

  static FleetPlan build(const FleetShape& shape, std::uint64_t seed);

  // Planted truth: the identity belongs to a malicious radio.
  bool positive(vp::IdentityId id) const;
  std::size_t positives() const;
};

// Per-tick damage injected on the wire path (paced_failover only).
struct Damage {
  double corrupt_share = 0.0;  // beacon frames with one flipped byte
  double spike_share = 0.0;    // beacons with a +-15..25 dB RSSI spike
};

// Streams one connection's frames tick by tick. Deterministic: the same
// plan, seed and connection give byte-identical output.
class FrameSource {
 public:
  FrameSource(const FleetPlan& plan, std::size_t connection,
              std::uint64_t seed, Damage damage = {});

  // Appends tick k's beacons (stream times in [k*0.1, (k+1)*0.1)),
  // slot-major: every observer's first identity, then every observer's
  // second, ... so all observers cross a round boundary within the first
  // frames of a tick and their rounds are prepared in one drain. A lost
  // beacon becomes a HEARTBEAT at its slot time. With `intact` set, every
  // frame that is not corrupted on the wire is also appended there in
  // frame order (heartbeats with id 0): the reference path's input.
  void append_tick(std::uint64_t k, std::vector<std::uint8_t>& out,
                   std::vector<vp::sim::FleetBeacon>* intact = nullptr);
  // Appends a CLOSE per observer carrying the final stream time.
  void append_close(double time_s, std::vector<std::uint8_t>& out);

  std::uint64_t beacons() const { return beacons_; }  // intact, encoded
  std::uint64_t corrupted() const { return corrupted_; }
  std::uint64_t spiked() const { return spiked_; }
  std::uint64_t frames() const { return encoder_.frames_encoded(); }

 private:
  struct Link {
    const LinkPlan* plan = nullptr;
    double walk_db = 0.0;
    double level_db = 0.0;  // this tick's link level
  };
  struct Slot {
    std::size_t link = 0;      // index into Observer::links
    std::size_t identity = 0;  // index into FleetPlan::identities
  };
  struct Observer {
    std::uint64_t id = 0;
    std::vector<Link> links;
    std::vector<Slot> slots;  // one per identity heard
  };

  const FleetPlan& plan_;
  Damage damage_;
  FastRng rng_;
  vp::wire::FrameEncoder encoder_;
  std::vector<Observer> observers_;
  std::size_t max_slots_ = 0;
  std::uint64_t beacons_ = 0;
  std::uint64_t corrupted_ = 0;
  std::uint64_t spiked_ = 0;
};

}  // namespace pipebench
