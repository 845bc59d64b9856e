// Deterministic fixed-point RSSI conditioning (DESIGN.md §15).
//
// Raw RSSI carries spikes, quantisation steps and receiver glitches
// straight into the DTW comparison — the paper's own field test (§5)
// shows it, and the chaos harness can push verdict divergence to its
// ceilings with nothing in the pipeline to absorb corruption. The
// Conditioner is the automotive Cortex-M-class answer: a windowed
// Hampel median/MAD outlier stage (reject / clamp / pass per sample)
// feeding an adaptive EMA whose smoothing factor tightens when the
// window's MAD says the channel is noisy.
//
// Everything is integer arithmetic in fixed point:
//
//   * RSSI values:      Q19.12 in int32 (4096 == 1 dB; the validated
//                       [-150, 50] dBm contract uses 20 magnitude bits).
//   * Hampel k factors: Q8 in int32 (256 == 1.0).
//   * EMA alpha:        Q15 in int32 (32768 == 1.0).
//
// No floating point touches the filter path, so outputs are
// bit-identical across platforms, compilers and optimisation levels,
// down to the first sample the engine stores. The only float
// steps are the boundary conversions to_q12/from_q12, which are exact
// dyadic operations (from_q12 in particular is value/4096.0, exact in
// double for the whole int32 range).
//
// Allocation-free: per-channel state is a fixed std::array ring
// (kMaxWindow samples) plus two registers; the median/MAD scratch lives
// on the stack of process(). Conservation: every sample offered is
// counted exactly once as passed, clamped or rejected — the engine
// surfaces the counters as cond.* metrics under the
// `conservation.cond.samples` law checked by the §12 HealthMonitor.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

namespace vp::cond {

// Hampel window ceiling; windows are odd so the median is one element.
inline constexpr std::size_t kMaxWindow = 31;

inline constexpr int kValueFractionBits = 12;               // Q19.12
inline constexpr std::int32_t kOneQ12 = 1 << kValueFractionBits;
inline constexpr int kFactorFractionBits = 8;               // Q8
inline constexpr std::int32_t kOneQ8 = 1 << kFactorFractionBits;
inline constexpr int kAlphaFractionBits = 15;               // Q15
inline constexpr std::int32_t kOneQ15 = 1 << kAlphaFractionBits;

// dBm → Q19.12, round half away from zero; saturates far outside the
// validated RSSI contract (the engine's validation front runs first, so
// saturation is unreachable in the serving path — it exists so the
// conversion itself is total and UB-free on any finite double).
std::int32_t to_q12(double v);

// Q19.12 → dBm. Exact: a dyadic division representable in double.
inline double from_q12(std::int32_t q) {
  return static_cast<double>(q) / static_cast<double>(kOneQ12);
}

struct CondConfig {
  // Hampel window: odd, in [3, kMaxWindow]. The verdict for a sample is
  // judged against the median/MAD of the previous `window` accepted
  // samples (the sample itself stays out of its own baseline).
  std::size_t window = 7;
  // Deviation thresholds as multiples of the window MAD (Q8). A sample
  // deviating more than reject_k is shed outright; more than clamp_k is
  // winsorised to median ± clamp_k·MAD. Defaults are the classic Hampel
  // 3·MAD clamp with an 8·MAD hard-reject rail.
  std::int32_t clamp_k_q8 = 3 * kOneQ8;
  std::int32_t reject_k_q8 = 8 * kOneQ8;
  // MAD floor (Q12): a constant window has MAD 0, which would make any
  // deviation infinite in k units. Real receivers report RSSI quantised
  // (the simulator's radios round to 1 dB), so quiet windows hit MAD 0
  // routinely — the floor must be at least the reporting granularity or
  // ordinary 1-3 dB sample-to-sample motion gets hard-rejected.
  std::int32_t mad_floor_q12 = kOneQ12;
  // Anti-freeze escape: a hard reject leaves every register untouched,
  // which is right for a burst of garbage but deadly for a genuine level
  // shift (deep fade, shadowing step) — the stale baseline would reject
  // the channel's new reality forever. After `reject_limit` consecutive
  // rejects the next deviating sample re-seeds the channel: the window
  // restarts from it and the EMA snaps to it (counted as a pass).
  std::uint32_t reject_limit = 8;
  // Adaptive EMA range (Q15): alpha = alpha_max at MAD 0 falling
  // linearly to alpha_min at MAD >= mad_ref. alpha_max defaults to 1.0,
  // so a quiet channel passes through unsmoothed and only a noisy one
  // pays the lag.
  std::int32_t ema_alpha_max_q15 = kOneQ15;
  std::int32_t ema_alpha_min_q15 = kOneQ15 / 4;
  std::int32_t mad_ref_q12 = 6 * kOneQ12;
};

// VP_REQUIREs the config contract (odd window in range, 0 < clamp_k <=
// reject_k, positive floor/ref, 0 < alpha_min <= alpha_max <= 1).
void validate(const CondConfig& config);

// Per-sample Hampel verdict.
enum class Verdict : std::uint8_t { kPass = 0, kClamp = 1, kReject = 2 };

struct Sample {
  Verdict verdict = Verdict::kPass;
  // EMA output after this sample (unchanged from the previous output on
  // kReject — a rejected sample leaves every register untouched).
  std::int32_t conditioned_q12 = 0;
};

// Median of Q12 samples (odd count; insertion sort on a stack copy).
std::int32_t median_q12(std::span<const std::int32_t> values);
// Median absolute deviation around `median` (same odd count).
std::int32_t mad_q12(std::span<const std::int32_t> values,
                     std::int32_t median);

// One RSSI channel's filter state: the Hampel window ring and the EMA
// register. Fixed-size, trivially copyable, checkpointable — the VPCK v3
// identity record carries exactly (window samples oldest-first, ema
// register, init flag) so a restored channel is bit-identical mid-filter.
class Conditioner {
 public:
  // Feeds one quantised sample. Until the window has filled, samples
  // pass through (the baseline is not yet trustworthy); after that the
  // Hampel verdict applies. Accepted (pass/clamp) samples enter the
  // window and advance the EMA; rejected samples change nothing.
  Sample process(std::int32_t x_q12, const CondConfig& config);

  // --- Checkpoint access (stream/checkpoint.cpp) ----------------------
  std::size_t window_count() const { return count_; }
  // i in [0, window_count()), oldest first.
  std::int32_t window_sample(std::size_t i) const {
    return window_[(head_ + i) % kMaxWindow];
  }
  std::int32_t ema_q12() const { return ema_q12_; }
  bool ema_initialized() const { return ema_init_; }
  std::uint32_t reject_streak() const { return reject_streak_; }
  // Restores the exact state captured by the accessors above. `samples`
  // are oldest-first, size <= min(config.window, kMaxWindow).
  void restore(std::span<const std::int32_t> samples, std::int32_t ema_q12,
               bool ema_initialized, std::uint32_t reject_streak);

 private:
  void push(std::int32_t x_q12, std::size_t window);
  void ema_update(std::int32_t x_q12, std::int32_t mad_q12,
                  const CondConfig& config);

  std::array<std::int32_t, kMaxWindow> window_{};
  std::size_t head_ = 0;   // index of the oldest sample
  std::size_t count_ = 0;  // samples currently in the window
  std::int32_t ema_q12_ = 0;
  bool ema_init_ = false;
  std::uint32_t reject_streak_ = 0;  // consecutive hard rejects so far
};

}  // namespace vp::cond
