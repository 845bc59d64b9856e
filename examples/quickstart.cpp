// Quickstart: run Voiceprint (Algorithm 1) on RSSI series you provide.
//
// This example needs no simulator: it fabricates the series a vehicle
// would have collected on the control channel — three identities riding
// the same radio (a malicious node and its two Sybils, at different
// spoofed TX powers) and two genuine neighbours — and asks the detector
// which identities belong to a Sybil attack.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <iostream>
#include <vector>

#include "common/rng.h"
#include "core/detector.h"
#include "timeseries/series.h"

int main() {
  using namespace vp;
  Rng rng(7);

  // Fabricate 20 s of 10 Hz RSSI. Same-radio identities share one slowly
  // wandering fading trajectory; each identity adds only its (spoofed)
  // power offset and per-packet measurement noise.
  const std::size_t n = 200;
  std::vector<double> attacker_path(n), neighbor1_path(n), neighbor2_path(n);
  double a = -74.0, b = -80.0, c = -68.0;
  for (std::size_t i = 0; i < n; ++i) {
    a += rng.normal(0.0, 0.4);
    b += rng.normal(0.0, 0.4);
    c += rng.normal(0.0, 0.4);
    attacker_path[i] = a;
    neighbor1_path[i] = b;
    neighbor2_path[i] = c;
  }
  auto observed = [&](const std::vector<double>& path, double power_offset) {
    std::vector<double> values(n);
    for (std::size_t i = 0; i < n; ++i) {
      values[i] = path[i] + power_offset + rng.normal(0.0, 1.0);
    }
    return ts::Series::uniform(0.0, 0.1, std::move(values));
  };

  const std::vector<core::NamedSeries> heard = {
      {1, observed(attacker_path, 0.0)},    // the attacker's real identity
      {101, observed(attacker_path, 3.0)},  // Sybil, spoofed +3 dB
      {102, observed(attacker_path, -3.0)}, // Sybil, spoofed −3 dB
      {2, observed(neighbor1_path, 0.0)},   // honest vehicle
      {3, observed(neighbor2_path, 0.0)},   // honest vehicle
  };

  // Detect with the paper's trained boundary (Fig. 10: k=0.00054, b=0.0483)
  // at an estimated local density of 10 vehicles/km (Eq. 9).
  core::VoiceprintDetector detector;
  const std::vector<IdentityId> suspects = detector.detect_series(heard, 10.0);

  // The detector settles most pairs from DTW bounds without measuring
  // them; the distances printed here come from the reference sweep.
  std::cout << "threshold at this density: " << detector.last_threshold()
            << "\n\npairwise normalised DTW distances:\n";
  for (const core::PairDistance& p :
       core::compare_series(heard, detector.options().comparison)) {
    std::cout << "  (" << p.a << ", " << p.b << ") -> " << p.normalized
              << "\n";
  }
  std::cout << "\nflagged as Sybil attack: ";
  for (IdentityId id : suspects) std::cout << id << " ";
  std::cout << "\nexpected: 1 101 102\n";
  return suspects == std::vector<IdentityId>{1, 101, 102} ? 0 : 1;
}
