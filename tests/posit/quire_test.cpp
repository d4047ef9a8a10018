// quire_test.cpp — exact accumulation invariants of the quire.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include "bitwise_reference.hpp"
#include "posit/add_lut.hpp"
#include "posit/quire.hpp"

namespace pdnn::posit {
namespace {

class QuireFormatTest : public ::testing::TestWithParam<std::pair<int, int>> {
 protected:
  PositSpec spec() const { return PositSpec{GetParam().first, GetParam().second}; }
};

TEST_P(QuireFormatTest, EmptyQuireIsZero) {
  Quire q(spec());
  EXPECT_TRUE(q.is_zero());
  EXPECT_EQ(q.to_posit(), 0u);
  EXPECT_DOUBLE_EQ(q.to_double(), 0.0);
}

TEST_P(QuireFormatTest, SingleProductRoundsLikeMul) {
  const PositSpec s = spec();
  std::mt19937_64 rng(11);
  for (int t = 0; t < 20000; ++t) {
    const std::uint32_t a = static_cast<std::uint32_t>(rng()) & s.mask();
    const std::uint32_t b = static_cast<std::uint32_t>(rng()) & s.mask();
    if (a == s.nar_code() || b == s.nar_code()) continue;
    Quire q(s);
    q.add_product(a, b);
    ASSERT_EQ(q.to_posit(), mul(a, b, s))
        << s.to_string() << " " << to_double(a, s) << "*" << to_double(b, s);
  }
}

TEST_P(QuireFormatTest, SinglePositRoundTripsExactly) {
  const PositSpec s = spec();
  std::mt19937_64 rng(13);
  for (int t = 0; t < 20000; ++t) {
    const std::uint32_t a = static_cast<std::uint32_t>(rng()) & s.mask();
    if (a == s.nar_code()) continue;
    Quire q(s);
    q.add_posit(a);
    ASSERT_EQ(q.to_posit(), a);
    ASSERT_DOUBLE_EQ(q.to_double(), to_double(a, s));
  }
}

TEST_P(QuireFormatTest, ProductMinusProductCancelsExactly) {
  const PositSpec s = spec();
  std::mt19937_64 rng(19);
  for (int t = 0; t < 5000; ++t) {
    const std::uint32_t a = static_cast<std::uint32_t>(rng()) & s.mask();
    const std::uint32_t b = static_cast<std::uint32_t>(rng()) & s.mask();
    if (a == s.nar_code() || b == s.nar_code()) continue;
    Quire q(s);
    q.add_product(a, b);
    q.sub_product(a, b);
    ASSERT_TRUE(q.is_zero()) << to_double(a, s) << " * " << to_double(b, s);
  }
}

TEST_P(QuireFormatTest, ExtremeScaleSumIsExact) {
  // maxpos^2 + minpos^2 - maxpos^2 == minpos^2 exactly: impossible with any
  // rounding accumulator, trivial for the quire.
  const PositSpec s = spec();
  Quire q(s);
  q.add_product(s.maxpos_code(), s.maxpos_code());
  q.add_product(s.minpos_code(), s.minpos_code());
  q.sub_product(s.maxpos_code(), s.maxpos_code());
  const std::uint32_t expected = mul(s.minpos_code(), s.minpos_code(), s);
  EXPECT_EQ(q.to_posit(), expected);
}

TEST_P(QuireFormatTest, DotProductMatchesDoubleReference) {
  const PositSpec s = spec();
  std::mt19937_64 rng(29);
  std::uniform_real_distribution<double> dist(-4.0, 4.0);
  for (int trial = 0; trial < 200; ++trial) {
    Quire q(s);
    double reference = 0.0;  // exact: products/sums of small posits fit double
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t a = from_double(dist(rng), s);
      const std::uint32_t b = from_double(dist(rng), s);
      q.add_product(a, b);
      reference += to_double(a, s) * to_double(b, s);
    }
    ASSERT_EQ(q.to_posit(), from_double(reference, s)) << s.to_string() << " trial " << trial;
  }
}

TEST_P(QuireFormatTest, LongAccumulationDoesNotOverflow) {
  const PositSpec s = spec();
  Quire q(s);
  const std::uint32_t one = from_double(1.0, s);
  const int kCount = 100000;
  for (int i = 0; i < kCount; ++i) q.add_product(one, one);
  EXPECT_DOUBLE_EQ(q.to_double(), static_cast<double>(kCount));
  // Rounded posit result saturates at maxpos if the count exceeds it.
  const double expected = std::min(static_cast<double>(kCount), maxpos_value(s));
  EXPECT_DOUBLE_EQ(to_double(q.to_posit(), s), to_double(from_double(expected, s), s));
}

TEST_P(QuireFormatTest, NarPoisonsTheQuire) {
  const PositSpec s = spec();
  Quire q(s);
  q.add_product(from_double(1.0, s), s.nar_code());
  EXPECT_TRUE(q.is_nar());
  EXPECT_EQ(q.to_posit(), s.nar_code());
  q.clear();
  EXPECT_FALSE(q.is_nar());
  EXPECT_TRUE(q.is_zero());
}

TEST_P(QuireFormatTest, QuireBeatsSerialRoundingOnCancellation) {
  // sum_i (x - x) interleaved as +x, +x, ..., -x, -x: serial posit
  // accumulation of large then small terms loses the small ones; the quire
  // recovers the exact answer.
  const PositSpec s = spec();
  const std::uint32_t big = from_double(maxpos_value(s) / 2, s);
  const std::uint32_t small = s.minpos_code();
  Quire q(s);
  q.add_posit(big);
  q.add_posit(small);
  q.add_posit(neg(big, s));
  EXPECT_EQ(q.to_posit(), small) << "quire preserves the small term";

  std::uint32_t serial = add(big, small, s);
  serial = add(serial, neg(big, s), s);
  EXPECT_NE(serial, small) << "serial rounding drops the small term (sanity)";
}

TEST_P(QuireFormatTest, UnpackedAddProductMatchesCodedAccumulation) {
  // Decode-once accumulation must land in exactly the same register state as
  // the coded path: same rounded posit after any mixed-sign sequence.
  const PositSpec s = spec();
  std::mt19937_64 rng(37);
  for (int trial = 0; trial < 500; ++trial) {
    Quire coded(s), unpacked(s);
    for (int i = 0; i < 48; ++i) {
      std::uint32_t a = static_cast<std::uint32_t>(rng()) & s.mask();
      std::uint32_t b = static_cast<std::uint32_t>(rng()) & s.mask();
      if (a == s.nar_code()) a = 0;
      if (b == s.nar_code()) b = 0;
      coded.add_product(a, b);
      unpacked.add_product(decode_unpacked(a, s), decode_unpacked(b, s));
    }
    ASSERT_EQ(unpacked.to_posit(), coded.to_posit()) << s.to_string() << " trial " << trial;
    ASSERT_DOUBLE_EQ(unpacked.to_double(), coded.to_double());
  }
}

TEST_P(QuireFormatTest, AccumulateDotMatchesSequentialAddProduct) {
  // The batched carry-save dot must leave the register in exactly the state
  // `count` sequential deposits would — including zeros, extreme scales, and
  // heavy cancellation.
  const PositSpec s = spec();
  std::mt19937_64 rng(43);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<Unpacked> a, b;
    Quire sequential(s);
    for (int i = 0; i < 96; ++i) {
      std::uint32_t ca = static_cast<std::uint32_t>(rng()) & s.mask();
      std::uint32_t cb = static_cast<std::uint32_t>(rng()) & s.mask();
      if (ca == s.nar_code()) ca = 0;
      if (cb == s.nar_code()) cb = 0;
      a.push_back(decode_unpacked(ca, s));
      b.push_back(decode_unpacked(cb, s));
      sequential.add_product(ca, cb);
    }
    Quire batched(s);
    batched.accumulate_dot(a.data(), b.data(), a.size());
    ASSERT_EQ(batched.to_posit(), sequential.to_posit()) << s.to_string() << " trial " << trial;
    ASSERT_DOUBLE_EQ(batched.to_double(), sequential.to_double());
  }
  // NaR operands poison the batched path too.
  const Unpacked nar = decode_unpacked(s.nar_code(), s);
  const Unpacked one = decode_unpacked(from_double(1.0, s), s);
  Quire q(s);
  q.accumulate_dot(&nar, &one, 1);
  EXPECT_TRUE(q.is_nar());
}

TEST_P(QuireFormatTest, UnpackedNarPoisonsLikeCoded) {
  const PositSpec s = spec();
  Quire q(s);
  q.add_product(decode_unpacked(from_double(1.0, s), s), decode_unpacked(s.nar_code(), s));
  EXPECT_TRUE(q.is_nar());
  EXPECT_EQ(q.to_posit(), s.nar_code());
  // NaR * zero is still NaR (matches the coded ordering of the checks).
  q.clear();
  q.add_product(decode_unpacked(s.nar_code(), s), decode_unpacked(0u, s));
  EXPECT_TRUE(q.is_nar());
}

INSTANTIATE_TEST_SUITE_P(FormatSweep, QuireFormatTest,
                         ::testing::Values(std::pair{8, 0}, std::pair{8, 1}, std::pair{8, 2}, std::pair{16, 1},
                                           std::pair{16, 2}, std::pair{32, 3}),
                         [](const auto& info) {
                           return "p" + std::to_string(info.param.first) + "_" + std::to_string(info.param.second);
                         });

// ---------------------------------------------------------------------------
// to_posit() finds the register's top bit with a leading-zero count. The
// reference sums the same products exactly in a 128-bit integer (operands
// decoded bit by bit) and normalises bit by bit.
// ---------------------------------------------------------------------------

TEST(QuireBitwise, RandomToPositMatchesPerBitReference) {
  // (16,1) over its whole range; (16,2) limited to |scale| <= 20 so that 64
  // products of two operands still fit the 128-bit reference sum.
  for (const auto& [s, max_abs_scale] :
       {std::pair{PositSpec{16, 1}, 28}, std::pair{PositSpec{16, 2}, 20}}) {
    std::vector<std::uint32_t> pool;
    int frac_bits = 0;  // operands are exact multiples of 2^-frac_bits
    for (std::uint64_t c = 1; c < s.code_count(); ++c) {
      const auto code = static_cast<std::uint32_t>(c);
      if (code == s.nar_code()) continue;
      const Decoded d = testing::bitwise_decode(code, s);
      if (d.scale > max_abs_scale || d.scale < -max_abs_scale) continue;
      pool.push_back(code);
      frac_bits = std::max(frac_bits, d.frac_width - d.scale);
    }
    ASSERT_LE(max_abs_scale + 1 + frac_bits, 60) << s.to_string();  // products < 2^120
    std::mt19937_64 rng(61);
    for (int trial = 0; trial < 2000; ++trial) {
      const int terms = 1 + static_cast<int>(rng() % 64);
      Quire q(s);
      __int128 sum = 0;
      for (int i = 0; i < terms; ++i) {
        std::uint32_t a = pool[rng() % pool.size()];
        const std::uint32_t b = pool[rng() % pool.size()];
        if (rng() % 8 == 0) a = 0;
        q.add_product(a, b);
        sum += static_cast<__int128>(testing::bitwise_fixed(a, s, frac_bits)) *
               testing::bitwise_fixed(b, s, frac_bits);
        if (rng() % 4 == 0) {  // cancel the term again, leaving a ragged residue
          q.sub_product(a, b);
          sum -= static_cast<__int128>(testing::bitwise_fixed(a, s, frac_bits)) *
                 testing::bitwise_fixed(b, s, frac_bits);
        }
      }
      ASSERT_EQ(q.to_posit(), testing::bitwise_round_sum(sum, 2 * frac_bits, s))
          << s.to_string() << " trial " << trial;
    }
  }
}

// ---------------------------------------------------------------------------
// The int64 fixed-point dot against the quire it stands in for.
// ---------------------------------------------------------------------------

std::vector<Unpacked> unpack_all(const std::vector<std::uint32_t>& codes, const PositSpec& s) {
  std::vector<Unpacked> out(codes.size());
  for (std::size_t i = 0; i < codes.size(); ++i) out[i] = decode_unpacked(codes[i], s);
  return out;
}

std::uint32_t quire_dot(const std::vector<std::uint32_t>& a, const std::vector<std::uint32_t>& b,
                        const PositSpec& s) {
  const std::vector<Unpacked> ua = unpack_all(a, s), ub = unpack_all(b, s);
  Quire q(s);
  q.accumulate_dot(ua.data(), ub.data(), ua.size());
  return q.to_posit();
}

/// The engine's fixed-point route: to_fixed both rows, NaR short-circuit,
/// then one fixed_dot.
std::uint32_t int64_dot(const std::vector<std::uint32_t>& a, const std::vector<std::uint32_t>& b,
                        const PositSpec& s) {
  const std::vector<Unpacked> ua = unpack_all(a, s), ub = unpack_all(b, s);
  std::vector<std::int32_t> fa(a.size()), fb(b.size());
  const bool nar_a = to_fixed(ua.data(), ua.size(), s, fa.data());
  const bool nar_b = to_fixed(ub.data(), ub.size(), s, fb.data());
  return nar_a || nar_b ? s.nar_code() : fixed_dot(fa.data(), fb.data(), fa.size(), s);
}

TEST(FixedDot, FitsExactlyUpToTheInt64Bound) {
  // k * 2^(2R) < 2^63, R = max_scale - min_scale.
  EXPECT_TRUE(fixed_dot_fits({8, 1}, 0));
  EXPECT_TRUE(fixed_dot_fits({8, 1}, (1u << 15) - 1));
  EXPECT_FALSE(fixed_dot_fits({8, 1}, 1u << 15));
  EXPECT_TRUE(fixed_dot_fits({8, 0}, (std::size_t{1} << 39) - 1));
  EXPECT_FALSE(fixed_dot_fits({8, 0}, std::size_t{1} << 39));
  EXPECT_TRUE(fixed_dot_fits({16, 0}, 127));  // R = 28
  EXPECT_FALSE(fixed_dot_fits({16, 0}, 128));
  for (const PositSpec s :
       {PositSpec{8, 2}, PositSpec{16, 1}, PositSpec{16, 2}, PositSpec{32, 2}}) {
    EXPECT_FALSE(fixed_dot_fits(s, 1)) << s.to_string();
  }
}

TEST(FixedDot, EveryProductPairMatchesQuire) {
  for (const PositSpec s : {PositSpec{8, 0}, PositSpec{8, 1}}) {
    std::vector<std::uint32_t> a(1), b(1);
    for (std::uint32_t ca = 0; ca < 256; ++ca) {
      for (std::uint32_t cb = 0; cb < 256; ++cb) {
        a[0] = ca;
        b[0] = cb;
        ASSERT_EQ(int64_dot(a, b, s), quire_dot(a, b, s))
            << s.to_string() << " " << ca << " * " << cb;
      }
    }
  }
}

TEST(FixedDot, RandomDotsMatchQuireAtResNetLengths) {
  std::mt19937_64 rng(67);
  for (const PositSpec s : {PositSpec{8, 0}, PositSpec{8, 1}}) {
    for (const std::size_t k : {1u, 7u, 8u, 9u, 27u, 72u, 288u}) {
      ASSERT_TRUE(fixed_dot_fits(s, k));
      for (int trial = 0; trial < 300; ++trial) {
        std::vector<std::uint32_t> a(k), b(k);
        for (std::size_t i = 0; i < k; ++i) {
          a[i] = static_cast<std::uint32_t>(rng()) & s.mask();
          b[i] = static_cast<std::uint32_t>(rng()) & s.mask();
          if (a[i] == s.nar_code()) a[i] = 0;  // zero lanes; NaR is tested below
          if (b[i] == s.nar_code()) b[i] = 0;
          if (trial % 3 == 0 && i % 2 == 1) a[i] = (~a[i - 1] + 1u) & s.mask();  // cancellation
        }
        ASSERT_EQ(int64_dot(a, b, s), quire_dot(a, b, s))
            << s.to_string() << " k " << k << " trial " << trial;
      }
    }
  }
}

TEST(FixedDot, LimitLengthOfMaxposSquaresDoesNotOverflow) {
  // posit(8,1): maxpos = 2^12 is 2^24 in fixed point, so maxpos^2 = 2^48
  // and the longest exact dot holds 2^15 - 1 of them: 2^63 - 2^48. One more
  // term could wrap the int64, so that length must go to the quire.
  const PositSpec s{8, 1};
  const std::size_t limit = (std::size_t{1} << 15) - 1;
  ASSERT_TRUE(fixed_dot_fits(s, limit));
  ASSERT_FALSE(fixed_dot_fits(s, limit + 1));
  const std::uint32_t maxpos = s.maxpos_code();
  const std::uint32_t neg_maxpos = neg(maxpos, s);
  const std::vector<std::uint32_t> pos_row(limit, maxpos), neg_row(limit, neg_maxpos);
  EXPECT_EQ(int64_dot(pos_row, pos_row, s), maxpos);
  EXPECT_EQ(int64_dot(neg_row, neg_row, s), maxpos);
  EXPECT_EQ(int64_dot(neg_row, pos_row, s), neg_maxpos);
  EXPECT_EQ(int64_dot(neg_row, pos_row, s), quire_dot(neg_row, pos_row, s));
}

TEST(FixedDot, ZeroAndNarLanes) {
  for (const PositSpec s : {PositSpec{8, 0}, PositSpec{8, 1}}) {
    const std::uint32_t one = from_double(1.0, s);
    const std::uint32_t half = from_double(0.5, s);
    const std::vector<std::uint32_t> zeros(9, 0u);
    std::vector<std::uint32_t> mixed(9, one);
    mixed[2] = 0;
    mixed[7] = 0;
    EXPECT_EQ(int64_dot(zeros, mixed, s), 0u);
    EXPECT_EQ(int64_dot(mixed, std::vector<std::uint32_t>(9, half), s),
              quire_dot(mixed, std::vector<std::uint32_t>(9, half), s));
    std::vector<std::uint32_t> nar_row = mixed;
    nar_row[4] = s.nar_code();
    EXPECT_EQ(int64_dot(nar_row, mixed, s), s.nar_code());
    EXPECT_EQ(int64_dot(mixed, nar_row, s), s.nar_code());
    EXPECT_EQ(int64_dot(nar_row, zeros, s), s.nar_code());  // NaR * 0 is NaR
    EXPECT_EQ(quire_dot(nar_row, zeros, s), s.nar_code());
  }
}

TEST(FixedDot, AddLutJoinMatchesQuireJoinOnEveryPair) {
  // The session's residual join in kQuire mode reads the add table: the
  // exact sum of two posits rounded once, which is what the quire computes.
  for (int es = 0; es <= 3; ++es) {
    const PositSpec s{8, es};
    if (!add_lut_supported(s, RoundMode::kNearestEven)) continue;
    const AddLut& lut = add_lut(s, RoundMode::kNearestEven);
    Quire q(s);
    for (std::uint32_t a = 0; a < 256; ++a) {
      for (std::uint32_t b = 0; b < 256; ++b) {
        q.clear();
        q.add_posit(a);
        q.add_posit(b);
        ASSERT_EQ(lut.at(a, b), q.to_posit()) << s.to_string() << " " << a << " + " << b;
      }
    }
  }
}

}  // namespace
}  // namespace pdnn::posit
