#include "contraction/simd_kernels.h"

#include <cstdlib>

#if !defined(SLIDER_DISABLE_SIMD) && defined(__x86_64__)
#define SLIDER_SIMD_X86 1
#include <immintrin.h>
#else
#define SLIDER_SIMD_X86 0
#endif

namespace slider::simd {
namespace {

void scalar_add(std::uint64_t* dst, const std::uint64_t* src,
                std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] += src[i];
}

void scalar_sub(std::uint64_t* dst, const std::uint64_t* src,
                std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] -= src[i];
}

#if SLIDER_SIMD_X86

__attribute__((target("avx2"))) void avx2_add(std::uint64_t* dst,
                                              const std::uint64_t* src,
                                              std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_add_epi64(a, b));
  }
  for (; i < n; ++i) dst[i] += src[i];
}

__attribute__((target("avx2"))) void avx2_sub(std::uint64_t* dst,
                                              const std::uint64_t* src,
                                              std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_sub_epi64(a, b));
  }
  for (; i < n; ++i) dst[i] -= src[i];
}

#endif  // SLIDER_SIMD_X86

bool use_avx2() {
#if SLIDER_SIMD_X86
  static const bool enabled = [] {
    const char* env = std::getenv("SLIDER_SIMD");
    if (env != nullptr && env[0] == '0' && env[1] == '\0') return false;
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return enabled;
#else
  return false;
#endif
}

}  // namespace

void bulk_add_u64(std::uint64_t* dst, const std::uint64_t* src,
                  std::size_t n) {
#if SLIDER_SIMD_X86
  if (use_avx2()) {
    avx2_add(dst, src, n);
    return;
  }
#endif
  scalar_add(dst, src, n);
}

void bulk_sub_u64(std::uint64_t* dst, const std::uint64_t* src,
                  std::size_t n) {
#if SLIDER_SIMD_X86
  if (use_avx2()) {
    avx2_sub(dst, src, n);
    return;
  }
#endif
  scalar_sub(dst, src, n);
}

const char* active_backend() { return use_avx2() ? "avx2" : "scalar"; }

}  // namespace slider::simd
