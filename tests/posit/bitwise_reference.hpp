// bitwise_reference.hpp — per-bit normalisation oracles for the posit codec
// and arithmetic.
//
// The library parses regimes and normalises sums with count-leading-zero
// builtins. These helpers state the same definitions one bit at a time: a
// regime parser that walks the run, and MSB scans that walk down from the
// top. Rounding goes through the library's round_pack, which the
// brute-force oracle tests pin separately; everything that locates bits is
// independent of the code under test, so a wrong clz shortcut cannot hide
// behind an oracle built on the same shortcut (oracle.hpp, for instance,
// builds its exact values through decode()).
#pragma once

#include <cstdint>

#include "posit/codec.hpp"

namespace pdnn::posit::testing {

/// decode() with the regime parsed bit by bit.
inline Decoded bitwise_decode(std::uint32_t code, const PositSpec& spec) {
  Decoded d;
  code &= spec.mask();
  if (code == 0) {
    d.is_zero = true;
    return d;
  }
  if (code == spec.nar_code()) {
    d.is_nar = true;
    return d;
  }
  d.neg = (code & spec.sign_bit()) != 0;
  const std::uint32_t mag = d.neg ? ((~code + 1u) & spec.mask()) : code;
  const int body_bits = spec.n - 1;
  const std::uint32_t body = mag & (spec.sign_bit() - 1u);

  // The regime is the run of bits equal to the body's MSB, ended by the
  // opposite bit or by the end of the word.
  const std::uint32_t first = (body >> (body_bits - 1)) & 1u;
  int run = 0;
  int pos = body_bits - 1;
  while (pos >= 0 && ((body >> pos) & 1u) == first) {
    ++run;
    --pos;
  }
  d.k = first != 0 ? run - 1 : -run;
  if (pos >= 0) --pos;  // skip the terminating bit

  // Up to es exponent bits (the stored ones are the high bits), then the
  // fraction.
  const int remaining = pos + 1;
  const int e_stored = remaining < spec.es ? remaining : spec.es;
  std::uint32_t e_bits = 0;
  if (e_stored > 0) e_bits = (body >> (remaining - e_stored)) & ((1u << e_stored) - 1u);
  d.e = static_cast<int>(e_bits) << (spec.es - e_stored);
  d.frac_width = remaining - e_stored;
  d.frac = d.frac_width > 0 ? (body & ((1u << d.frac_width) - 1u)) : 0u;
  d.scale = d.k * (1 << spec.es) + d.e;
  d.sig = ((1ULL << d.frac_width) | static_cast<std::uint64_t>(d.frac)) << (62 - d.frac_width);
  return d;
}

/// Index of the highest set bit of a non-zero value, scanned bit by bit.
inline int bitwise_msb(unsigned __int128 x) {
  int msb = 127;
  while (((x >> msb) & 1) == 0) --msb;
  return msb;
}

/// Signed sum of two decoded non-zero posits, rounded once (nearest-even):
/// three guard bits plus a sticky bit below the larger operand's hidden bit,
/// normalised by bitwise_msb().
inline std::uint32_t bitwise_add_decoded(const Decoded& a, const Decoded& b,
                                         const PositSpec& spec) {
  using u128 = unsigned __int128;
  const bool b_bigger = b.scale > a.scale || (b.scale == a.scale && b.sig > a.sig);
  const Decoded& hi = b_bigger ? b : a;
  const Decoded& lo = b_bigger ? a : b;
  const u128 hi_sig = static_cast<u128>(hi.sig) << 3;
  const long diff = static_cast<long>(hi.scale) - lo.scale;
  u128 lo_sig;
  if (diff >= 67) {
    lo_sig = 1;
  } else {
    const u128 full = static_cast<u128>(lo.sig) << 3;
    lo_sig = full >> diff;
    if (diff > 0 && (full & ((static_cast<u128>(1) << diff) - 1)) != 0) lo_sig |= 1;
  }
  u128 sum;
  if (hi.neg == lo.neg) {
    sum = hi_sig + lo_sig;
  } else {
    sum = hi_sig - lo_sig;
    if (sum == 0) return 0u;
  }
  const int msb = bitwise_msb(sum);
  return round_pack(spec, hi.neg, hi.scale + (msb - 65), sum, msb, false,
                    RoundMode::kNearestEven, nullptr);
}

/// round(a - b) on codes, decoded bit by bit.
inline std::uint32_t bitwise_sub(std::uint32_t a, std::uint32_t b, const PositSpec& spec) {
  const Decoded da = bitwise_decode(a, spec);
  Decoded db = bitwise_decode(b, spec);
  if (da.is_nar || db.is_nar) return spec.nar_code();
  if (db.is_zero) return a & spec.mask();
  db.neg = !db.neg;
  if (da.is_zero) return (~(b & spec.mask()) + 1u) & spec.mask();
  return bitwise_add_decoded(da, db, spec);
}

/// round(a*b + c) with the product kept exact, decoded bit by bit.
inline std::uint32_t bitwise_fma(std::uint32_t a, std::uint32_t b, std::uint32_t c,
                                 const PositSpec& spec) {
  using u128 = unsigned __int128;
  const Decoded da = bitwise_decode(a, spec);
  const Decoded db = bitwise_decode(b, spec);
  const Decoded dc = bitwise_decode(c, spec);
  if (da.is_nar || db.is_nar || dc.is_nar) return spec.nar_code();
  if (da.is_zero || db.is_zero) return c & spec.mask();
  const u128 product = static_cast<u128>(da.sig) * db.sig;
  const int msb = bitwise_msb(product);
  const long pscale = static_cast<long>(da.scale) + db.scale + (msb - 124);
  if (dc.is_zero) {
    return round_pack(spec, da.neg != db.neg, pscale, product, msb, false,
                      RoundMode::kNearestEven, nullptr);
  }
  // The operands' significands carry at most 29 fraction bits, so moving
  // the hidden bit back to 62 drops only zeros.
  Decoded dp;
  dp.neg = da.neg != db.neg;
  dp.scale = static_cast<int>(pscale);
  dp.sig = static_cast<std::uint64_t>(product >> (msb - 62));
  return bitwise_add_decoded(dp, dc, spec);
}

/// Value of a finite code as an integer multiple of 2^-frac_bits (exact when
/// the code's last bit weighs at least that much and the value fits 64 bits).
inline std::int64_t bitwise_fixed(std::uint32_t code, const PositSpec& spec, int frac_bits) {
  const Decoded d = bitwise_decode(code, spec);
  if (d.is_zero || d.is_nar) return 0;
  const int shift = d.scale - 62 + frac_bits;
  const auto mag = static_cast<std::int64_t>(shift >= 0 ? d.sig << shift : d.sig >> -shift);
  return d.neg ? -mag : mag;
}

/// Round an exact sum (units of 2^-frac_bits) to the nearest-even posit,
/// normalised by bitwise_msb().
inline std::uint32_t bitwise_round_sum(__int128 sum, int frac_bits, const PositSpec& spec) {
  if (sum == 0) return 0u;
  const bool neg = sum < 0;
  const auto mag = static_cast<unsigned __int128>(neg ? -sum : sum);
  const int msb = bitwise_msb(mag);
  return round_pack(spec, neg, static_cast<long>(msb) - frac_bits, mag, msb, false,
                    RoundMode::kNearestEven, nullptr);
}

}  // namespace pdnn::posit::testing
