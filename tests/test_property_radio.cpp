// Property sweeps over every propagation model: monotone mean power,
// inversion round-trips and unbiased sampling, parameterized across the
// model zoo and a distance grid.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <ostream>
#include <string>

#include "common/rng.h"
#include "common/stats.h"
#include "common/units.h"
#include "radio/dual_slope.h"
#include "radio/propagation.h"
#include "radio/switching.h"

namespace vp::radio {
namespace {

constexpr double kFreq = units::kDsrcFrequencyHz;

struct ModelCase {
  std::string name;
  std::function<std::unique_ptr<PropagationModel>()> make;
};

// gtest would otherwise print the raw object bytes (heap pointers included)
// into every test name, so the names would change from run to run.
void PrintTo(const ModelCase& c, std::ostream* os) { *os << c.name; }

class RadioProperty : public ::testing::TestWithParam<ModelCase> {
 protected:
  void SetUp() override { model_ = GetParam().make(); }
  std::unique_ptr<PropagationModel> model_;
};

TEST_P(RadioProperty, MeanPowerStrictlyDecreasesWithDistance) {
  double prev = model_->mean_rx_power_dbm(20.0, 2.0, 0.0);
  for (double d = 4.0; d <= 1024.0; d *= 2.0) {
    const double p = model_->mean_rx_power_dbm(20.0, d, 0.0);
    EXPECT_LT(p, prev) << GetParam().name << " at d=" << d;
    prev = p;
  }
}

TEST_P(RadioProperty, TxPowerShiftsLinearly) {
  for (double d : {10.0, 150.0, 500.0}) {
    const double p20 = model_->mean_rx_power_dbm(20.0, d, 0.0);
    const double p23 = model_->mean_rx_power_dbm(23.0, d, 0.0);
    EXPECT_NEAR(p23 - p20, 3.0, 1e-9) << GetParam().name;
  }
}

TEST_P(RadioProperty, InversionRoundTrips) {
  for (double d : {3.0, 30.0, 120.0, 240.0, 600.0}) {
    const double p = model_->mean_rx_power_dbm(20.0, d, 0.0);
    const double d_back = model_->distance_for_mean_power(20.0, p, 0.0);
    EXPECT_NEAR(d_back, d, 0.05 * d) << GetParam().name << " at d=" << d;
  }
}

TEST_P(RadioProperty, SamplingIsUnbiasedInDb) {
  Rng rng(5);
  RunningStats stats;
  for (int i = 0; i < 4000; ++i) {
    stats.add(model_->sample_rx_power_dbm(20.0, 180.0, 0.0, rng));
  }
  const double mean = model_->mean_rx_power_dbm(20.0, 180.0, 0.0);
  // Nakagami is unbiased in linear power (so biased low in dB); all other
  // models must be dB-unbiased within sampling error.
  const double tolerance = GetParam().name == "nakagami" ? 3.0 : 0.3;
  EXPECT_NEAR(stats.mean(), mean, tolerance) << GetParam().name;
}

TEST_P(RadioProperty, SigmaNonNegativeEverywhere) {
  for (double d : {5.0, 100.0, 300.0, 900.0}) {
    EXPECT_GE(model_->shadowing_sigma_db(d, 0.0), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModelZoo, RadioProperty,
    ::testing::Values(
        ModelCase{"free-space",
                  [] { return std::make_unique<FreeSpaceModel>(kFreq); }},
        ModelCase{"two-ray",
                  [] {
                    return std::make_unique<TwoRayGroundModel>(kFreq, 1.5,
                                                               1.5);
                  }},
        ModelCase{"shadowing",
                  [] {
                    return std::make_unique<ShadowingModel>(kFreq, 1.0, 2.8,
                                                            4.0);
                  }},
        ModelCase{"nakagami",
                  [] {
                    return std::make_unique<NakagamiModel>(kFreq, 1.0, 2.2,
                                                           3.0);
                  }},
        ModelCase{"dual-slope-campus",
                  [] {
                    return std::make_unique<DualSlopeModel>(
                        kFreq, DualSlopeParams::campus());
                  }},
        ModelCase{"dual-slope-urban",
                  [] {
                    return std::make_unique<DualSlopeModel>(
                        kFreq, DualSlopeParams::urban());
                  }},
        ModelCase{"switching",
                  [] {
                    return std::make_unique<SwitchingDualSlopeModel>(
                        SwitchingDualSlopeModel::perturbed_cycle(
                            kFreq, DualSlopeParams::highway(), 4, 30.0, 9));
                  }}),
    [](const ::testing::TestParamInfo<ModelCase>& info) {
      std::string name = info.param.name;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace vp::radio
