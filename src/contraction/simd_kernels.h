// Bulk lane operations for the flat aggregation tier: the wrapping add
// that inserts a window element into the running sum and the subtract that
// evicts it.
//
// Each op applies element-wise over 64-bit lanes: dst[i] = op(dst[i],
// src[i]). On x86-64 an AVX2 path is selected at runtime via
// __builtin_cpu_supports; everywhere else (or with -DSLIDER_DISABLE_SIMD=ON,
// or SLIDER_SIMD=0 in the environment) a portable scalar loop runs. Both
// paths compute bit-identical results — wrapping integer arithmetic has no
// rounding, so dispatch can never change an output, only its speed.
#pragma once

#include <cstddef>
#include <cstdint>

namespace slider::simd {

// dst[i] += src[i] (wrapping). Two's complement makes this serve signed
// lanes as well.
void bulk_add_u64(std::uint64_t* dst, const std::uint64_t* src,
                  std::size_t n);

// dst[i] -= src[i] (wrapping); the exact inverse of bulk_add_u64.
void bulk_sub_u64(std::uint64_t* dst, const std::uint64_t* src,
                  std::size_t n);

// "avx2" or "scalar" — which backend the dispatcher picked.
const char* active_backend();

}  // namespace slider::simd
