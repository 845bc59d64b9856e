// Portable SIMD wrapper for the banded-DTW wavefront kernel
// (timeseries/lower_bound.cpp). One backend is selected at build time:
//
//   * AVX2 (x86-64, 4 × double lanes) when the TU is compiled with -mavx2
//     or -march=native on a machine that has it;
//   * NEON (AArch64, 2 × double lanes);
//   * scalar (1 lane) everywhere else, or when the build forces it with
//     -DVP_FORCE_SCALAR_SIMD (the CMake option VP_SIMD=scalar) — the CI
//     job that keeps this wrapper honest.
//
// Bit-exactness contract: every operation here maps to one IEEE-754
// double operation per lane (add, sub, mul, min, compare, select). No
// horizontal reduction reorders additions and the kernels never use FMA,
// so a computation expressed through VecD produces bit-identical results
// on every backend — which is what lets the detector's cascade pass the
// same oracle parity tests in every build. (-ffp-contract=off in the
// top-level CMakeLists keeps the scalar compiler output to the same
// contract.)
#pragma once

#include <algorithm>
#include <cstddef>

#if !defined(VP_FORCE_SCALAR_SIMD) && defined(__AVX2__)
#define VP_SIMD_AVX2 1
#include <immintrin.h>
#elif !defined(VP_FORCE_SCALAR_SIMD) && defined(__aarch64__) && \
    defined(__ARM_NEON)
#define VP_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace vp::ts::simd {

#if defined(VP_SIMD_AVX2)

inline constexpr std::size_t kWidth = 4;
inline constexpr const char* kBackend = "avx2";

struct VecD {
  __m256d v;
};
using Mask = VecD;  // all-ones / all-zeros lanes from cmp_lt

inline VecD set1(double x) { return {_mm256_set1_pd(x)}; }
inline VecD loadu(const double* p) { return {_mm256_loadu_pd(p)}; }
inline void storeu(double* p, VecD a) { _mm256_storeu_pd(p, a.v); }
inline VecD add(VecD a, VecD b) { return {_mm256_add_pd(a.v, b.v)}; }
inline VecD sub(VecD a, VecD b) { return {_mm256_sub_pd(a.v, b.v)}; }
inline VecD mul(VecD a, VecD b) { return {_mm256_mul_pd(a.v, b.v)}; }
inline VecD min(VecD a, VecD b) { return {_mm256_min_pd(a.v, b.v)}; }
inline VecD abs(VecD a) {
  return {_mm256_andnot_pd(_mm256_set1_pd(-0.0), a.v)};
}
inline Mask cmp_lt(VecD a, VecD b) {
  return {_mm256_cmp_pd(a.v, b.v, _CMP_LT_OQ)};
}
// Lanes where `mask` is set take `a`, the rest take `b`.
inline VecD select(Mask mask, VecD a, VecD b) {
  return {_mm256_blendv_pd(b.v, a.v, mask.v)};
}
inline double horizontal_min(VecD a) {
  const __m128d lo = _mm256_castpd256_pd128(a.v);
  const __m128d hi = _mm256_extractf128_pd(a.v, 1);
  const __m128d m = _mm_min_pd(lo, hi);
  return std::min(_mm_cvtsd_f64(m),
                  _mm_cvtsd_f64(_mm_unpackhi_pd(m, m)));
}

#elif defined(VP_SIMD_NEON)

inline constexpr std::size_t kWidth = 2;
inline constexpr const char* kBackend = "neon";

struct VecD {
  float64x2_t v;
};
struct Mask {
  uint64x2_t v;
};

inline VecD set1(double x) { return {vdupq_n_f64(x)}; }
inline VecD loadu(const double* p) { return {vld1q_f64(p)}; }
inline void storeu(double* p, VecD a) { vst1q_f64(p, a.v); }
inline VecD add(VecD a, VecD b) { return {vaddq_f64(a.v, b.v)}; }
inline VecD sub(VecD a, VecD b) { return {vsubq_f64(a.v, b.v)}; }
inline VecD mul(VecD a, VecD b) { return {vmulq_f64(a.v, b.v)}; }
inline VecD min(VecD a, VecD b) { return {vminq_f64(a.v, b.v)}; }
inline VecD abs(VecD a) { return {vabsq_f64(a.v)}; }
inline Mask cmp_lt(VecD a, VecD b) { return {vcltq_f64(a.v, b.v)}; }
inline VecD select(Mask mask, VecD a, VecD b) {
  return {vbslq_f64(mask.v, a.v, b.v)};
}
inline double horizontal_min(VecD a) {
  return std::min(vgetq_lane_f64(a.v, 0), vgetq_lane_f64(a.v, 1));
}

#else

inline constexpr std::size_t kWidth = 1;
inline constexpr const char* kBackend = "scalar";

struct VecD {
  double v;
};
struct Mask {
  bool v;
};

inline VecD set1(double x) { return {x}; }
inline VecD loadu(const double* p) { return {*p}; }
inline void storeu(double* p, VecD a) { *p = a.v; }
inline VecD add(VecD a, VecD b) { return {a.v + b.v}; }
inline VecD sub(VecD a, VecD b) { return {a.v - b.v}; }
inline VecD mul(VecD a, VecD b) { return {a.v * b.v}; }
inline VecD min(VecD a, VecD b) { return {std::min(a.v, b.v)}; }
inline VecD abs(VecD a) { return {a.v < 0.0 ? -a.v : a.v}; }
inline Mask cmp_lt(VecD a, VecD b) { return {a.v < b.v}; }
inline VecD select(Mask mask, VecD a, VecD b) { return mask.v ? a : b; }
inline double horizontal_min(VecD a) { return a.v; }

#endif

// True when the build carries a real vector backend (width > 1). The
// backend is chosen at build time only: banded_dtw_distance's wavefront
// uses it whenever it exists, and a VP_SIMD=scalar build is the parity
// reference.
inline constexpr bool vectorized() { return kWidth > 1; }

}  // namespace vp::ts::simd
