#include "posit/quire.hpp"

#include <cmath>
#include <limits>

#include "posit/simd.hpp"

namespace pdnn::posit {

namespace {
using u128 = unsigned __int128;
}

Quire::Quire(const PositSpec& spec, int guard_bits) : spec_(spec) {
  spec_.validate();
  // Smallest product: minpos^2 = 2^(2*min_scale). Products are deposited with
  // the raw 128-bit significand whose bit 0 sits 124 places below the hidden
  // bit (those low bits are zero for n <= 32 operands, but the shift target
  // must still exist), so reserve 128 bits of slack below 2*min_scale.
  frac_bits_ = -2L * spec_.min_scale() + 128;
  // Largest magnitude after 2^guard_bits accumulations of maxpos^2.
  const long int_bits = 2L * spec_.max_scale() + guard_bits + 2;
  const long total = frac_bits_ + int_bits + 1;  // +1 sign
  words_.assign(static_cast<std::size_t>((total + 63) / 64), 0u);
  // accumulate_dot scratch: one 64-bit limb per 32 register bits plus two
  // spill limbs per bank, four banks — the SIMD deposit splits each sign
  // stream (positive, negative) across two banks (even/odd terms) to shorten
  // the same-limb add chains; the scalar path uses only the first bank of
  // each stream. Every bank folds into the register exactly, so the split
  // cannot change a bit.
  limbs_.assign((words_.size() * 2 + 2 + 2) * 4, 0u);
  mag_scratch_.assign(words_.size(), 0u);
}

void Quire::clear() {
  words_.assign(words_.size(), 0u);
  nar_ = false;
}

bool Quire::is_zero() const {
  if (nar_) return false;
  for (const auto w : words_)
    if (w != 0) return false;
  return true;
}

void Quire::add_shifted(u128 sig, long lsb_weight, bool negative) {
  // The value added is sig * 2^lsb_weight; bit position of sig's bit 0 inside
  // the register is frac_bits_ + lsb_weight.
  const long pos = frac_bits_ + lsb_weight;
  if (pos < 0 || sig == 0) return;  // cannot happen for valid posit products
  std::size_t word = static_cast<std::size_t>(pos / 64);
  const int bit = static_cast<int>(pos % 64);

  // Spread sig (up to 128 bits) across up to three words at offset `bit`.
  std::uint64_t chunks[3] = {static_cast<std::uint64_t>(sig << bit), 0, 0};
  if (bit != 0) {
    chunks[1] = static_cast<std::uint64_t>(sig >> (64 - bit));
    chunks[2] = static_cast<std::uint64_t>(sig >> (128 - bit));
  } else {
    chunks[1] = static_cast<std::uint64_t>(sig >> 64);
  }

  if (!negative) {
    unsigned carry = 0;
    for (int i = 0; i < 3 && word + i < words_.size(); ++i) {
      const u128 s = static_cast<u128>(words_[word + i]) + chunks[i] + carry;
      words_[word + i] = static_cast<std::uint64_t>(s);
      carry = static_cast<unsigned>(s >> 64);
    }
    for (std::size_t i = word + 3; carry && i < words_.size(); ++i) {
      const u128 s = static_cast<u128>(words_[i]) + carry;
      words_[i] = static_cast<std::uint64_t>(s);
      carry = static_cast<unsigned>(s >> 64);
    }
  } else {
    std::uint64_t borrow = 0;
    for (int i = 0; i < 3 && word + i < words_.size(); ++i) {
      const u128 sub_amount = static_cast<u128>(chunks[i]) + borrow;
      const u128 before = words_[word + i];
      words_[word + i] = static_cast<std::uint64_t>(before - sub_amount);
      borrow = before < sub_amount ? 1u : 0u;
    }
    for (std::size_t i = word + 3; borrow && i < words_.size(); ++i) {
      const std::uint64_t before = words_[i];
      words_[i] = before - borrow;
      borrow = before == 0 ? 1u : 0u;
    }
  }
}

void Quire::add_product(std::uint32_t a, std::uint32_t b) {
  const Decoded da = decode(a, spec_);
  const Decoded db = decode(b, spec_);
  if (da.is_nar || db.is_nar) {
    nar_ = true;
    return;
  }
  if (da.is_zero || db.is_zero) return;
  const u128 product = static_cast<u128>(da.sig) * db.sig;  // hidden at 124/125
  const long lsb_weight = static_cast<long>(da.scale) + db.scale - 124;
  add_shifted(product, lsb_weight, da.neg != db.neg);
}

void Quire::add_shifted64(std::uint64_t sig, long lsb_weight, bool negative) {
  const long pos = frac_bits_ + lsb_weight;
  if (pos < 0 || sig == 0) return;  // cannot happen for valid posit products
  std::size_t word = static_cast<std::size_t>(pos / 64);
  const int bit = static_cast<int>(pos % 64);
  const std::uint64_t lo = sig << bit;
  const std::uint64_t hi = bit != 0 ? sig >> (64 - bit) : 0u;

  if (!negative) {
    u128 s = static_cast<u128>(words_[word]) + lo;
    words_[word] = static_cast<std::uint64_t>(s);
    unsigned carry = static_cast<unsigned>(s >> 64);
    for (std::size_t i = word + 1; (carry || (i == word + 1 && hi)) && i < words_.size(); ++i) {
      s = static_cast<u128>(words_[i]) + (i == word + 1 ? hi : 0u) + carry;
      words_[i] = static_cast<std::uint64_t>(s);
      carry = static_cast<unsigned>(s >> 64);
    }
  } else {
    const std::uint64_t before = words_[word];
    words_[word] = before - lo;
    std::uint64_t borrow = before < lo ? 1u : 0u;
    for (std::size_t i = word + 1; (borrow || (i == word + 1 && hi)) && i < words_.size(); ++i) {
      const u128 sub_amount = static_cast<u128>(i == word + 1 ? hi : 0u) + borrow;
      const u128 w = words_[i];
      words_[i] = static_cast<std::uint64_t>(w - sub_amount);
      borrow = w < sub_amount ? 1u : 0u;
    }
  }
}

void Quire::add_product(const Unpacked& a, const Unpacked& b) {
  if ((a.flags | b.flags) != 0) {  // zero or NaR operand: no deposit
    if (a.is_nar() || b.is_nar()) nar_ = true;
    return;
  }
  const std::uint64_t product = static_cast<std::uint64_t>(a.sig) * b.sig;
  add_shifted64(product, static_cast<long>(a.lsb_weight) + b.lsb_weight, a.neg != b.neg);
}

void Quire::fold_limbs(std::uint64_t* limbs, bool negative) {
  const std::size_t nlimbs = words_.size() * 2 + 2;
  // Carry-propagate the 32-bit payloads; spill past the register width drops
  // out, matching the mod-2^width wraparound of sequential deposits.
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < nlimbs; ++i) {
    const u128 t = static_cast<u128>(limbs[i]) + carry;
    limbs[i] = static_cast<std::uint64_t>(t) & 0xFFFFFFFFu;
    carry = static_cast<std::uint64_t>(t >> 32);
  }
  if (!negative) {
    unsigned c = 0;
    for (std::size_t w = 0; w < words_.size(); ++w) {
      const std::uint64_t v = limbs[2 * w] | (limbs[2 * w + 1] << 32);
      const u128 s = static_cast<u128>(words_[w]) + v + c;
      words_[w] = static_cast<std::uint64_t>(s);
      c = static_cast<unsigned>(s >> 64);
    }
  } else {
    std::uint64_t borrow = 0;
    for (std::size_t w = 0; w < words_.size(); ++w) {
      const u128 sub_amount =
          static_cast<u128>(limbs[2 * w] | (limbs[2 * w + 1] << 32)) + borrow;
      const u128 before = words_[w];
      words_[w] = static_cast<std::uint64_t>(before - sub_amount);
      borrow = before < sub_amount ? 1u : 0u;
    }
  }
}

void Quire::accumulate_dot(const Unpacked* a, const Unpacked* b, std::size_t count) {
  const std::size_t nlimbs = words_.size() * 2 + 2;
  const std::size_t bank_stride = nlimbs + 2;  // +2 spill slack per bank
  // Bank layout: [pos0 | neg0 | pos1 | neg1]. The scalar loop (and the SIMD
  // group's even terms) deposit into bank 0 of each sign stream; the SIMD
  // group's odd terms go bank1_offset limbs further.
  std::uint64_t* pos_limbs = limbs_.data();
  std::uint64_t* neg_limbs = limbs_.data() + bank_stride;
  const std::size_t bank1_offset = bank_stride * 2;
  std::fill(limbs_.begin(), limbs_.end(), 0u);
  const long base = frac_bits_;
  bool nar = false;
  std::size_t i = 0;
  bool used_bank1 = false;
  if (simd::enabled()) {
    // Groups of 8 terms deposit vectorized; limb adds are exact, so the
    // grouping cannot change the folded register state. Scalar tail below.
    std::uint32_t flags = 0;
    i = simd::accumulate_limbs_avx2(a, b, count, base, pos_limbs, neg_limbs, bank1_offset, &flags);
    if ((flags & Unpacked::kNarFlag) != 0) nar = true;
    used_bank1 = i != 0;
  }
  for (; i < count; ++i) {
    const Unpacked ua = a[i];
    const Unpacked ub = b[i];
    // Zero operands fall through for free (sig == 0 deposits nothing); only
    // NaR needs the branch, and it never fires on real panels.
    if (((ua.flags | ub.flags) & Unpacked::kNarFlag) != 0) {
      nar = true;
      continue;
    }
    const std::uint64_t product = static_cast<std::uint64_t>(ua.sig) * ub.sig;  // <= 60 bits
    const auto pos = static_cast<std::size_t>(base + ua.lsb_weight + ub.lsb_weight);
    const std::size_t idx = pos >> 5;
    const std::uint32_t sh = pos & 31;
    std::uint64_t* dst = (ua.neg ^ ub.neg) != 0 ? neg_limbs : pos_limbs;
    // Three 32-bit chunks of product << sh, in plain 64-bit ops. The last
    // chunk's shift stays defined at sh == 0 by splitting it in two.
    dst[idx] += (product << sh) & 0xFFFFFFFFu;
    dst[idx + 1] += (product >> (32 - sh)) & 0xFFFFFFFFu;
    dst[idx + 2] += (product >> 1) >> (63 - sh);
  }
  if (nar) nar_ = true;
  fold_limbs(pos_limbs, false);
  fold_limbs(neg_limbs, true);
  if (used_bank1) {
    fold_limbs(pos_limbs + bank1_offset, false);
    fold_limbs(neg_limbs + bank1_offset, true);
  }
}

void Quire::sub_product(std::uint32_t a, std::uint32_t b) { add_product(a, neg(b, spec_)); }

void Quire::add_posit(std::uint32_t a) {
  const Decoded da = decode(a, spec_);
  if (da.is_nar) {
    nar_ = true;
    return;
  }
  if (da.is_zero) return;
  add_shifted(da.sig, static_cast<long>(da.scale) - 62, da.neg);
}

std::uint32_t Quire::to_posit(RoundMode mode, RoundingRng* rng) const {
  if (nar_) return spec_.nar_code();
  // Determine sign from the top word (two's complement).
  const bool negative = (words_.back() >> 63) != 0;
  std::vector<std::uint64_t>& mag = mag_scratch_;  // per-output hot path: no allocation
  mag = words_;
  if (negative) {
    unsigned carry = 1;
    for (auto& w : mag) {
      const u128 s = static_cast<u128>(~w) + carry;
      w = static_cast<std::uint64_t>(s);
      carry = static_cast<unsigned>(s >> 64);
    }
  }
  // Find the most significant set bit.
  int top_word = static_cast<int>(mag.size()) - 1;
  while (top_word >= 0 && mag[static_cast<std::size_t>(top_word)] == 0) --top_word;
  if (top_word < 0) return 0u;
  const int top_bit = 63 - __builtin_clzll(mag[static_cast<std::size_t>(top_word)]);
  const long msb_pos = static_cast<long>(top_word) * 64 + top_bit;

  // Extract up to 64 significand bits below (and including) the MSB; the rest
  // is sticky.
  std::uint64_t sig = 0;
  bool sticky = false;
  const long lo_pos = msb_pos - 63;  // significand occupies [lo_pos, msb_pos]
  for (long p = 0; p < lo_pos; p += 64) {
    const std::size_t w = static_cast<std::size_t>(p / 64);
    const int upto = static_cast<int>(lo_pos - p < 64 ? lo_pos - p : 64);
    const std::uint64_t mask = upto >= 64 ? ~0ULL : ((1ULL << upto) - 1);
    if (mag[w] & mask) {
      sticky = true;
      break;
    }
  }
  if (lo_pos >= 0) {
    const std::size_t w = static_cast<std::size_t>(lo_pos / 64);
    const int off = static_cast<int>(lo_pos % 64);
    sig = mag[w] >> off;
    if (off != 0 && w + 1 < mag.size()) sig |= mag[w + 1] << (64 - off);
  } else {
    sig = mag[0] << (-lo_pos);
  }
  // sig now has its MSB (the hidden bit) at position 63.
  const long scale = msb_pos - frac_bits_;
  return round_pack(spec_, negative, scale, sig, 63, sticky, mode, rng);
}

double Quire::to_double() const {
  if (nar_) return std::numeric_limits<double>::quiet_NaN();
  const bool negative = (words_.back() >> 63) != 0;
  std::vector<std::uint64_t>& mag = mag_scratch_;
  mag = words_;
  if (negative) {
    unsigned carry = 1;
    for (auto& w : mag) {
      const u128 s = static_cast<u128>(~w) + carry;
      w = static_cast<std::uint64_t>(s);
      carry = static_cast<unsigned>(s >> 64);
    }
  }
  double acc = 0.0;
  for (int i = static_cast<int>(mag.size()) - 1; i >= 0; --i) {
    acc = acc * 18446744073709551616.0 + static_cast<double>(mag[static_cast<std::size_t>(i)]);
  }
  acc = std::ldexp(acc, static_cast<int>(-frac_bits_));
  return negative ? -acc : acc;
}

bool fixed_dot_fits(const PositSpec& spec, std::size_t k) {
  const int r = spec.max_scale() - spec.min_scale();
  if (2 * r >= 63) return false;
  return k < (std::uint64_t{1} << (63 - 2 * r));
}

bool to_fixed(const Unpacked* src, std::size_t count, const PositSpec& spec, std::int32_t* out) {
  // lsb_weight >= min_scale for every finite code (and 0 for zero/NaR lanes),
  // and sig << shift <= 2^R <= 2^30: the shift is in range and the product
  // fits the int32.
  const int base = spec.min_scale();
  std::uint8_t flags = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const Unpacked u = src[i];
    flags |= u.flags;
    const auto mag = static_cast<std::int32_t>(u.sig << (u.lsb_weight - base));
    out[i] = u.neg != 0 ? -mag : mag;
  }
  return (flags & Unpacked::kNarFlag) != 0;
}

std::uint32_t round_fixed(std::int64_t sum, const PositSpec& spec) {
  if (sum == 0) return 0u;
  const bool negative = sum < 0;
  // |sum| < 2^63 under fixed_dot_fits, so the magnitude needs no wider type.
  const auto bits = static_cast<std::uint64_t>(sum);
  const std::uint64_t mag = negative ? std::uint64_t{0} - bits : bits;
  const int msb = 63 - __builtin_clzll(mag);
  return round_pack(spec, negative, static_cast<long>(msb) + 2L * spec.min_scale(), mag, msb, false,
                    RoundMode::kNearestEven, nullptr);
}

}  // namespace pdnn::posit
