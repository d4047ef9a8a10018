// quire.hpp — exact dot-product accumulator for posits.
//
// The quire is a wide fixed-point two's-complement register that can
// accumulate any number (up to ~2^63) of exact posit products without
// rounding; a single rounding happens when the value is read back as a posit.
// Deep Positron's EMAC (exact multiply-and-accumulate), referenced by the
// paper, is this structure; the paper's own MAC instead converts to FP and
// uses a conventional FP accumulator (see src/hw/posit_mac.*). Having both
// lets the benches compare accumulation strategies.
#pragma once

#include <cstdint>
#include <vector>

#include "posit/arith.hpp"
#include "posit/unpacked.hpp"

namespace pdnn::posit {

/// Not thread-safe, including the const readers: to_posit()/to_double() use
/// an internal magnitude scratch buffer (they run once per dot product on
/// the engine's hot path, where a heap allocation per call dominated). Use
/// one Quire per thread, as the engine's OpenMP regions do.
class Quire {
 public:
  /// Builds a quire sized for `spec`: enough integer bits for
  /// sum of 2^guard_bits maxpos^2 terms and enough fraction bits to hold
  /// minpos^2 exactly.
  explicit Quire(const PositSpec& spec, int guard_bits = 30);

  /// Resets the accumulator to zero (and clears the NaR flag).
  void clear();

  /// Accumulates the exact product a*b (posit codes in this quire's spec).
  void add_product(std::uint32_t a, std::uint32_t b);
  /// Decode-once overload: operands already unpacked (unpacked.hpp). Deposits
  /// exactly the value the coded overload would, so the quire state — and
  /// every later rounding — is bit-identical. Reduced significands keep the
  /// product in 64 bits, touching at most two register words per term.
  void add_product(const Unpacked& a, const Unpacked& b);

  /// Accumulates sum_i a[i]*b[i] exactly — the engine's dot-product hot
  /// path. Equivalent to `count` add_product(a[i], b[i]) calls (the final
  /// register state is bit-identical: both compute the same exact value mod
  /// 2^width), but batched: products are scattered branch-free into 32-bit
  /// carry-save limbs (positive and negative streams separate, so no borrow
  /// chains) and folded into the canonical two's-complement register once at
  /// the end.
  void accumulate_dot(const Unpacked* a, const Unpacked* b, std::size_t count);
  /// Accumulates -a*b exactly.
  void sub_product(std::uint32_t a, std::uint32_t b);
  /// Accumulates the posit value a exactly.
  void add_posit(std::uint32_t a);

  /// Rounds the accumulated value to a posit code (nearest-even by default).
  std::uint32_t to_posit(RoundMode mode = RoundMode::kNearestEven, RoundingRng* rng = nullptr) const;

  /// Exact conversion to double (may round if the value needs > 53 bits).
  double to_double() const;

  bool is_nar() const { return nar_; }
  bool is_zero() const;
  const PositSpec& spec() const { return spec_; }
  /// Total width in bits of the fixed-point register.
  int width_bits() const { return static_cast<int>(words_.size()) * 64; }

 private:
  void add_shifted(unsigned __int128 sig, long lsb_weight, bool negative);
  /// Fast two-word deposit for significands that fit 64 bits (the unpacked
  /// hot path); same exact addition as add_shifted.
  void add_shifted64(std::uint64_t sig, long lsb_weight, bool negative);
  /// Carry-propagates `limbs` (32-bit payloads at 32-bit stride) and adds or
  /// subtracts the resulting value into the register (mod 2^width).
  void fold_limbs(std::uint64_t* limbs, bool negative);

  PositSpec spec_;
  long frac_bits_;                   ///< weight of bit 0 is 2^(-frac_bits_)
  std::vector<std::uint64_t> words_; ///< little-endian two's-complement
  std::vector<std::uint64_t> limbs_; ///< accumulate_dot scratch: [pos | neg]
  mutable std::vector<std::uint64_t> mag_scratch_;  ///< to_posit/to_double magnitude buffer
  bool nar_ = false;
};

// ---------------------------------------------------------------------------
// Exact fixed-point dot products for narrow formats (Deep Positron's EMAC
// sized to the format instead of to the general quire).
//
// Every posit(n,es) value is an integer multiple of 2^min_scale (minpos)
// whose magnitude is at most 2^R, R = max_scale - min_scale. So when
// k * 2^(2R) < 2^63, k products and every partial sum of them are exact in
// an int64: converting each operand once to an int32 multiple of 2^min_scale
// (R <= 30 follows from the bound at k = 1), summing the products in int64
// and rounding once gives the quire's exact value rounded once — the code
// Quire::accumulate_dot + to_posit() produce. posit(8,0) fits up to
// k < 2^39 and posit(8,1) up to k < 2^15; posit(8,2) and every (16,es>=1)
// format never fit and stay on the quire.
// ---------------------------------------------------------------------------

/// True when a length-k dot of `spec` operands is exact in int64.
bool fixed_dot_fits(const PositSpec& spec, std::size_t k);

/// Convert `count` unpacked operands of `spec` to int32 multiples of
/// 2^min_scale (zero and NaR lanes become 0). Returns true iff a lane was
/// NaR: a dot over such a row is NaR, which the caller must return instead
/// of fixed_dot(). Requires fixed_dot_fits(spec, 1).
bool to_fixed(const Unpacked* src, std::size_t count, const PositSpec& spec, std::int32_t* out);

/// Round an exact fixed-point sum of products (units of 2^(2*min_scale)) to
/// the nearest-even posit code; saturating like every rounding here.
std::uint32_t round_fixed(std::int64_t sum, const PositSpec& spec);

/// round(sum_i a[i]*b[i]) over to_fixed() operands, nearest-even — the
/// engine's kQuire dot whenever fixed_dot_fits(spec, k). Integer sums are
/// exact, so the four-way split cannot change the result.
inline std::uint32_t fixed_dot(const std::int32_t* a, const std::int32_t* b, std::size_t k,
                               const PositSpec& spec) {
  std::int64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  std::size_t i = 0;
  for (; i + 4 <= k; i += 4) {
    s0 += static_cast<std::int64_t>(a[i]) * b[i];
    s1 += static_cast<std::int64_t>(a[i + 1]) * b[i + 1];
    s2 += static_cast<std::int64_t>(a[i + 2]) * b[i + 2];
    s3 += static_cast<std::int64_t>(a[i + 3]) * b[i + 3];
  }
  for (; i < k; ++i) s0 += static_cast<std::int64_t>(a[i]) * b[i];
  return round_fixed((s0 + s1) + (s2 + s3), spec);
}

}  // namespace pdnn::posit
