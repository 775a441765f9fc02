// Combiner-property traits and the flat-tier value codec.
//
// Slider's contraction trees only need associativity, so that is all the
// `CombineFn` type can promise. Many app combiners are much stronger —
// commutative integer sums over counts or fixed-point micro-units — and
// those properties unlock a far cheaper execution tier: a flat circular
// buffer of elements with one running sum that inserts add into and
// evictions subtract from (HammerSlide) instead of a pointer-chasing tree.
//
// Apps declare what their combiner guarantees via `CombinerTraits` on the
// JobSpec. A combiner is *flat-eligible* when it is associative,
// commutative, exactly associative (bitwise reproducible under
// re-parenthesization — integer / fixed-point arithmetic, never raw IEEE
// doubles), and its value strings round-trip through one of the fixed-width
// sum kernels below. Eligibility is a promise about semantics; the flat
// tier additionally verifies, value by value, that the serde round-trips
// canonically, and poisons itself back to a contraction tree when it does
// not. A combiner with no kernel here (a min, say) runs on a contraction
// tree, which is correct for every associative combiner.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace slider {

// Fixed-width sum kernels the flat tier can bulk-process. Values are
// carried as 64-bit lanes; kSumI64 stores two's-complement in the lane, so
// both kernels share one wrapping-add lane path and differ only in their
// codec.
enum class FlatKernel : std::uint8_t {
  kNone = 0,   // no fixed-width mapping; combiner stays on the tree path
  kSumU64 = 1, // unsigned decimal counts, wrapping 64-bit addition
  kSumI64 = 2, // signed decimal (fixed-point micro-units), wrapping addition
};

// Properties an app declares about its combiner. Defaults are the weakest
// claims: associativity alone (the baseline contract every contraction
// tree already assumes), nothing that would route a partition off the
// tree path.
struct CombinerTraits {
  bool associative = true;
  bool commutative = false;
  // The combiner has an exact inverse. Nothing reads it yet: it is
  // reserved for Δ-row path updates on contraction trees (ROADMAP item 4).
  // The flat tier needs no such claim, because every flat kernel is a sum.
  bool invertible = false;
  // Re-parenthesizing produces bit-identical results (integer or
  // fixed-point math). IEEE floating point is NOT exactly associative;
  // apps that aggregate doubles must go through a fixed-point encoding
  // (see apps/codecs.h VectorSum) to claim this.
  bool exactly_associative = false;
  FlatKernel flat_kernel = FlatKernel::kNone;

  bool flat_eligible() const {
    return associative && commutative && exactly_associative &&
           flat_kernel != FlatKernel::kNone;
  }
};

namespace flat {

// The flat tier's in-memory value representation. kSumI64 values are
// stored as two's-complement, so wrapping u64 addition implements signed
// addition exactly.
using Lane = std::uint64_t;

const char* kernel_name(FlatKernel kernel);

// Strict canonical decode: returns true iff `text` is exactly the string
// `encode_value` would produce for some lane. Rejects empty strings,
// leading zeros ("007"), "-0", stray characters, and out-of-range values.
// Strictness is what makes flat-tier output byte-identical to a tree's:
// trees pass singleton-key leaf values through verbatim, so the flat tier
// may only re-encode values whose encoding is already canonical.
bool decode_value(FlatKernel kernel, std::string_view text, Lane* out);

std::string encode_value(FlatKernel kernel, Lane lane);

}  // namespace flat
}  // namespace slider
