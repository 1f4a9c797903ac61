// AVX2 implementations of the scan vector kernels. This translation unit is
// the only one compiled with -mavx2 (CMake sets the flag and
// JANUS_SIMD_COMPILE_AVX2 per-file when the compiler supports it), so the
// rest of the binary stays portable; simd.cc only dereferences this table
// after a runtime CPUID check.
#include "data/simd.h"

#if defined(JANUS_SIMD_COMPILE_AVX2)

#include <immintrin.h>

#include <algorithm>
#include <limits>

namespace janus {
namespace scan {
namespace simd {

namespace {

inline bool InBounds(double x, double lo, double hi) {
  return !(x < lo) & !(x > hi);
}

/// Closed-interval lane mask with NaN-matches semantics: NLT/NGT unordered
/// compares are true for NaN lanes, exactly like !(x < lo) & !(x > hi).
inline __m256d BoundsMask(__m256d x, __m256d vlo, __m256d vhi) {
  return _mm256_and_pd(_mm256_cmp_pd(x, vlo, _CMP_NLT_UQ),
                       _mm256_cmp_pd(x, vhi, _CMP_NGT_UQ));
}

/// v[idx[0..3]], all four lanes. _mm256_i32gather_pd is the same vgatherdpd,
/// but GCC 12's header hands the builtin an undefined source vector, which
/// -Wmaybe-uninitialized flags; this form names a zero source and a full
/// mask, so every lane is still gathered.
inline __m256d Gather4(const double* v, __m128i idx) {
  return _mm256_mask_i32gather_pd(_mm256_setzero_pd(), v, idx,
                                  _mm256_castsi256_pd(_mm256_set1_epi64x(-1)),
                                  8);
}

inline double HorizontalSum(__m256d a) {
  const __m128d lo = _mm256_castpd256_pd128(a);
  const __m128d hi = _mm256_extractf128_pd(a, 1);
  const __m128d s = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)));
}

/// pshufb control bytes that left-pack the selected 32-bit lanes of an
/// __m128i for each 4-bit keep mask (bit i set = keep dword i); dropped
/// output lanes read 0x80 (zeroed — harmless, the cursor only advances by
/// popcount).
struct CompressLut {
  alignas(16) uint8_t b[16][16];
  CompressLut() {
    for (int m = 0; m < 16; ++m) {
      int out = 0;
      for (int lane = 0; lane < 4; ++lane) {
        if ((m & (1 << lane)) == 0) continue;
        for (int k = 0; k < 4; ++k) {
          b[m][4 * out + k] = static_cast<uint8_t>(4 * lane + k);
        }
        ++out;
      }
      for (; out < 4; ++out) {
        for (int k = 0; k < 4; ++k) b[m][4 * out + k] = 0x80;
      }
    }
  }
};
const CompressLut kLut;

size_t Avx2CountInBounds(const double* v, size_t len, double lo, double hi) {
  const __m256d vlo = _mm256_set1_pd(lo);
  const __m256d vhi = _mm256_set1_pd(hi);
  // Count by subtracting the all-ones (-1) mask lanes from 64-bit
  // accumulators; no per-lane popcount needed.
  __m256i acc0 = _mm256_setzero_si256();
  __m256i acc1 = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    const __m256d m0 = BoundsMask(_mm256_loadu_pd(v + i), vlo, vhi);
    const __m256d m1 = BoundsMask(_mm256_loadu_pd(v + i + 4), vlo, vhi);
    acc0 = _mm256_sub_epi64(acc0, _mm256_castpd_si256(m0));
    acc1 = _mm256_sub_epi64(acc1, _mm256_castpd_si256(m1));
  }
  for (; i + 4 <= len; i += 4) {
    const __m256d m = BoundsMask(_mm256_loadu_pd(v + i), vlo, vhi);
    acc0 = _mm256_sub_epi64(acc0, _mm256_castpd_si256(m));
  }
  alignas(32) uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes),
                     _mm256_add_epi64(acc0, acc1));
  size_t count = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  for (; i < len; ++i) {
    count += static_cast<size_t>(InBounds(v[i], lo, hi));
  }
  return count;
}

size_t Avx2FilterInBounds(const double* v, size_t len, double lo, double hi,
                          uint32_t base, uint32_t* sel) {
  const __m256d vlo = _mm256_set1_pd(lo);
  const __m256d vhi = _mm256_set1_pd(hi);
  __m128i idx = _mm_setr_epi32(
      static_cast<int>(base), static_cast<int>(base + 1),
      static_cast<int>(base + 2), static_cast<int>(base + 3));
  const __m128i step = _mm_set1_epi32(4);
  size_t matched = 0;
  size_t i = 0;
  for (; i + 4 <= len; i += 4) {
    const __m256d m = BoundsMask(_mm256_loadu_pd(v + i), vlo, vhi);
    const int bits = _mm256_movemask_pd(m);
    const __m128i shuf =
        _mm_load_si128(reinterpret_cast<const __m128i*>(kLut.b[bits]));
    // Unconditional 16-byte store; only the first popcount lanes are live.
    // The scratch room past `matched` stays within sel[len] because
    // matched <= i and i + 4 <= len.
    _mm_storeu_si128(reinterpret_cast<__m128i*>(sel + matched),
                     _mm_shuffle_epi8(idx, shuf));
    matched += static_cast<size_t>(__builtin_popcount(
        static_cast<unsigned>(bits)));
    idx = _mm_add_epi32(idx, step);
  }
  for (; i < len; ++i) {
    sel[matched] = base + static_cast<uint32_t>(i);
    matched += static_cast<size_t>(InBounds(v[i], lo, hi));
  }
  return matched;
}

size_t Avx2CompactInBounds(const double* v, uint32_t* sel, size_t n,
                           double lo, double hi) {
  const __m256d vlo = _mm256_set1_pd(lo);
  const __m256d vhi = _mm256_set1_pd(hi);
  size_t out = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i p =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(sel + i));
    const __m256d x = Gather4(v, p);
    const int bits = _mm256_movemask_pd(BoundsMask(x, vlo, vhi));
    const __m128i shuf =
        _mm_load_si128(reinterpret_cast<const __m128i*>(kLut.b[bits]));
    // In-place left-pack is safe: the write window [out, out+4) never
    // reaches past [i, i+4), whose values are already loaded into `p`.
    _mm_storeu_si128(reinterpret_cast<__m128i*>(sel + out),
                     _mm_shuffle_epi8(p, shuf));
    out += static_cast<size_t>(__builtin_popcount(
        static_cast<unsigned>(bits)));
  }
  for (; i < n; ++i) {
    const uint32_t p = sel[i];
    sel[out] = p;
    out += static_cast<size_t>(InBounds(v[p], lo, hi));
  }
  return out;
}

double Avx2SumDense(const double* v, size_t len) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    acc0 = _mm256_add_pd(acc0, _mm256_loadu_pd(v + i));
    acc1 = _mm256_add_pd(acc1, _mm256_loadu_pd(v + i + 4));
  }
  for (; i + 4 <= len; i += 4) {
    acc0 = _mm256_add_pd(acc0, _mm256_loadu_pd(v + i));
  }
  double sum = HorizontalSum(_mm256_add_pd(acc0, acc1));
  for (; i < len; ++i) sum += v[i];
  return sum;
}

double Avx2SumGather(const double* v, const uint32_t* sel, size_t n) {
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i p =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(sel + i));
    acc = _mm256_add_pd(acc, Gather4(v, p));
  }
  double sum = HorizontalSum(acc);
  for (; i < n; ++i) sum += v[sel[i]];
  return sum;
}

void Avx2MinMax(const double* v, size_t len, double* mn, double* mx) {
  // minpd/maxpd return the *second* operand when either input is NaN, so
  // feeding the running extreme as the second operand ignores NaN values —
  // the same behavior as the scalar std::min/std::max loop.
  __m256d vmn = _mm256_set1_pd(std::numeric_limits<double>::max());
  __m256d vmx = _mm256_set1_pd(std::numeric_limits<double>::lowest());
  size_t i = 0;
  for (; i + 4 <= len; i += 4) {
    const __m256d x = _mm256_loadu_pd(v + i);
    vmn = _mm256_min_pd(x, vmn);
    vmx = _mm256_max_pd(x, vmx);
  }
  alignas(32) double lo_lanes[4];
  alignas(32) double hi_lanes[4];
  _mm256_store_pd(lo_lanes, vmn);
  _mm256_store_pd(hi_lanes, vmx);
  double lo = std::numeric_limits<double>::max();
  double hi = std::numeric_limits<double>::lowest();
  for (int lane = 0; lane < 4; ++lane) {
    lo = std::min(lo, lo_lanes[lane]);
    hi = std::max(hi, hi_lanes[lane]);
  }
  for (; i < len; ++i) {
    lo = std::min(lo, v[i]);
    hi = std::max(hi, v[i]);
  }
  *mn = lo;
  *mx = hi;
}

size_t Avx2CountInBoundsLimited(const double* v, size_t len, double lo,
                                double hi, size_t limit) {
  const __m256d vlo = _mm256_set1_pd(lo);
  const __m256d vhi = _mm256_set1_pd(hi);
  size_t count = 0;
  size_t i = 0;
  // The clamp check runs per 4-lane group; a group may overshoot `limit`,
  // which the final std::min folds back — the clamped result is
  // order-insensitive, so this matches the scalar early-exit loop exactly.
  for (; i + 4 <= len && count < limit; i += 4) {
    const int bits =
        _mm256_movemask_pd(BoundsMask(_mm256_loadu_pd(v + i), vlo, vhi));
    count += static_cast<size_t>(
        __builtin_popcount(static_cast<unsigned>(bits)));
  }
  for (; i < len && count < limit; ++i) {
    count += static_cast<size_t>(InBounds(v[i], lo, hi));
  }
  return std::min(count, limit);
}

void Avx2MinMaxGather(const double* v, const uint32_t* sel, size_t n,
                      double* mn, double* mx) {
  // Same NaN-ignoring trick as Avx2MinMax (running extreme as the second
  // minpd/maxpd operand), fed by the same index gather as Avx2SumGather.
  __m256d vmn = _mm256_set1_pd(std::numeric_limits<double>::max());
  __m256d vmx = _mm256_set1_pd(std::numeric_limits<double>::lowest());
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i p =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(sel + i));
    const __m256d x = Gather4(v, p);
    vmn = _mm256_min_pd(x, vmn);
    vmx = _mm256_max_pd(x, vmx);
  }
  alignas(32) double lo_lanes[4];
  alignas(32) double hi_lanes[4];
  _mm256_store_pd(lo_lanes, vmn);
  _mm256_store_pd(hi_lanes, vmx);
  double lo = std::numeric_limits<double>::max();
  double hi = std::numeric_limits<double>::lowest();
  for (int lane = 0; lane < 4; ++lane) {
    lo = std::min(lo, lo_lanes[lane]);
    hi = std::max(hi, hi_lanes[lane]);
  }
  for (; i < n; ++i) {
    lo = std::min(lo, v[sel[i]]);
    hi = std::max(hi, v[sel[i]]);
  }
  *mn = lo;
  *mx = hi;
}

}  // namespace

const Kernels* Avx2KernelsIfCompiled() {
  static const Kernels k = {
      "avx2",           Avx2CountInBounds, Avx2FilterInBounds,
      Avx2CompactInBounds, Avx2SumDense,   Avx2SumGather,
      Avx2MinMax,       Avx2CountInBoundsLimited,
      Avx2MinMaxGather,
  };
  return &k;
}

}  // namespace simd
}  // namespace scan
}  // namespace janus

#else  // !JANUS_SIMD_COMPILE_AVX2

namespace janus {
namespace scan {
namespace simd {

const Kernels* Avx2KernelsIfCompiled() { return nullptr; }

}  // namespace simd
}  // namespace scan
}  // namespace janus

#endif  // JANUS_SIMD_COMPILE_AVX2
