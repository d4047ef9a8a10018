// arith_test.cpp — exhaustive pairwise validation of posit arithmetic.
//
// Oracle strategy: operand values decode to exact doubles; for the small
// formats tested exhaustively, the exact sum/product fits in a long double
// (64-bit significand), so `from_double(exact_result)` — itself validated
// against an independent brute-force oracle in codec_test — gives the
// correctly rounded reference.
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "bitwise_reference.hpp"
#include "posit/arith.hpp"
#include "posit/unpacked.hpp"

namespace pdnn::posit {
namespace {

std::uint32_t encode_ld(long double x, const PositSpec& spec) {
  // Exact long double -> posit nearest encoding via round_pack.
  if (x == 0.0L) return 0u;
  if (std::isnan(static_cast<double>(x))) return spec.nar_code();
  const bool neg = x < 0.0L;
  int exp2 = 0;
  const long double m = std::frexp(neg ? -x : x, &exp2);
  const auto sig = static_cast<std::uint64_t>(std::ldexp(m, 63));
  return round_pack(spec, neg, exp2 - 1, sig, 62, false, RoundMode::kNearestEven, nullptr);
}

class ArithFormatTest : public ::testing::TestWithParam<std::pair<int, int>> {
 protected:
  PositSpec spec() const { return PositSpec{GetParam().first, GetParam().second}; }
};

TEST_P(ArithFormatTest, ExhaustiveAddMatchesExactOracle) {
  const PositSpec s = spec();
  for (std::uint64_t a = 0; a < s.code_count(); ++a) {
    if (a == s.nar_code()) continue;
    const long double va = to_double(static_cast<std::uint32_t>(a), s);
    for (std::uint64_t b = 0; b < s.code_count(); ++b) {
      if (b == s.nar_code()) continue;
      const long double vb = to_double(static_cast<std::uint32_t>(b), s);
      // Exact: both operands have <= 6 significant bits at scales within
      // max-min = 2*max_scale <= 48, so the sum needs <= 55 < 64 bits.
      const std::uint32_t got = add(static_cast<std::uint32_t>(a), static_cast<std::uint32_t>(b), s);
      const std::uint32_t want = encode_ld(va + vb, s);
      ASSERT_EQ(got, want) << s.to_string() << " " << va << " + " << vb;
    }
  }
}

TEST_P(ArithFormatTest, ExhaustiveMulMatchesExactOracle) {
  const PositSpec s = spec();
  for (std::uint64_t a = 0; a < s.code_count(); ++a) {
    if (a == s.nar_code()) continue;
    const long double va = to_double(static_cast<std::uint32_t>(a), s);
    for (std::uint64_t b = 0; b < s.code_count(); ++b) {
      if (b == s.nar_code()) continue;
      const long double vb = to_double(static_cast<std::uint32_t>(b), s);
      const std::uint32_t got = mul(static_cast<std::uint32_t>(a), static_cast<std::uint32_t>(b), s);
      const std::uint32_t want = encode_ld(va * vb, s);  // product exact: <= 12 bits
      ASSERT_EQ(got, want) << s.to_string() << " " << va << " * " << vb;
    }
  }
}

TEST_P(ArithFormatTest, ExhaustiveSubIsAddOfNegation) {
  const PositSpec s = spec();
  for (std::uint64_t a = 0; a < s.code_count(); ++a) {
    for (std::uint64_t b = 0; b < s.code_count(); ++b) {
      const auto ca = static_cast<std::uint32_t>(a);
      const auto cb = static_cast<std::uint32_t>(b);
      ASSERT_EQ(sub(ca, cb, s), add(ca, neg(cb, s), s));
    }
  }
}

TEST_P(ArithFormatTest, ExhaustiveDivMatchesLongDoubleOracle) {
  const PositSpec s = spec();
  for (std::uint64_t a = 0; a < s.code_count(); ++a) {
    if (a == s.nar_code()) continue;
    const long double va = to_double(static_cast<std::uint32_t>(a), s);
    for (std::uint64_t b = 1; b < s.code_count(); ++b) {  // skip b == 0
      if (b == s.nar_code()) continue;
      const long double vb = to_double(static_cast<std::uint32_t>(b), s);
      // The quotient of two dyadics with <= 6-bit significands is either
      // exact in long double or at distance >= 2^-12 ulp from any 6-bit
      // rounding boundary, so no double-rounding hazard at 64-bit precision.
      const std::uint32_t got = div(static_cast<std::uint32_t>(a), static_cast<std::uint32_t>(b), s);
      const std::uint32_t want = encode_ld(va / vb, s);
      ASSERT_EQ(got, want) << s.to_string() << " " << va << " / " << vb;
    }
  }
}

TEST_P(ArithFormatTest, NarPropagates) {
  const PositSpec s = spec();
  const std::uint32_t nar = s.nar_code();
  const std::uint32_t one = from_double(1.0, s);
  EXPECT_EQ(add(nar, one, s), nar);
  EXPECT_EQ(add(one, nar, s), nar);
  EXPECT_EQ(mul(nar, one, s), nar);
  EXPECT_EQ(div(one, nar, s), nar);
  EXPECT_EQ(div(nar, one, s), nar);
  EXPECT_EQ(div(one, 0u, s), nar) << "division by zero yields NaR";
  EXPECT_EQ(neg(nar, s), nar);
  EXPECT_EQ(abs(nar, s), nar);
}

TEST_P(ArithFormatTest, AlgebraicIdentities) {
  const PositSpec s = spec();
  for (std::uint64_t a = 0; a < s.code_count(); ++a) {
    const auto ca = static_cast<std::uint32_t>(a);
    if (ca == s.nar_code()) continue;
    const std::uint32_t one = from_double(1.0, s);
    ASSERT_EQ(add(ca, 0u, s), ca) << "a + 0 == a";
    ASSERT_EQ(mul(ca, one, s), ca) << "a * 1 == a";
    ASSERT_EQ(mul(ca, 0u, s), 0u) << "a * 0 == 0";
    ASSERT_EQ(add(ca, neg(ca, s), s), 0u) << "a + (-a) == 0";
    if (ca != 0u) {
      ASSERT_EQ(div(ca, ca, s), one) << "a / a == 1";
    }
    ASSERT_EQ(neg(neg(ca, s), s), ca) << "-(-a) == a";
  }
}

TEST_P(ArithFormatTest, AddCommutesMulCommutes) {
  const PositSpec s = spec();
  std::mt19937_64 rng(5);
  for (int t = 0; t < 20000; ++t) {
    const std::uint32_t a = static_cast<std::uint32_t>(rng()) & s.mask();
    const std::uint32_t b = static_cast<std::uint32_t>(rng()) & s.mask();
    ASSERT_EQ(add(a, b, s), add(b, a, s));
    ASSERT_EQ(mul(a, b, s), mul(b, a, s));
  }
}

TEST_P(ArithFormatTest, CompareAgreesWithDoubleCompare) {
  const PositSpec s = spec();
  for (std::uint64_t a = 0; a < s.code_count(); ++a) {
    const auto ca = static_cast<std::uint32_t>(a);
    if (ca == s.nar_code()) continue;
    const double va = to_double(ca, s);
    for (std::uint64_t b = 0; b < s.code_count(); ++b) {
      const auto cb = static_cast<std::uint32_t>(b);
      if (cb == s.nar_code()) continue;
      const double vb = to_double(cb, s);
      const int want = va < vb ? -1 : (va > vb ? 1 : 0);
      ASSERT_EQ(compare(ca, cb, s), want);
    }
  }
}

TEST_P(ArithFormatTest, FmaIsExactlyRoundedProductPlusAddend) {
  const PositSpec s = spec();
  std::mt19937_64 rng(17);
  for (int t = 0; t < 30000; ++t) {
    const std::uint32_t a = static_cast<std::uint32_t>(rng()) & s.mask();
    const std::uint32_t b = static_cast<std::uint32_t>(rng()) & s.mask();
    const std::uint32_t c = static_cast<std::uint32_t>(rng()) & s.mask();
    if (a == s.nar_code() || b == s.nar_code() || c == s.nar_code()) continue;
    const long double product = static_cast<long double>(to_double(a, s)) * to_double(b, s);
    const long double addend = to_double(c, s);
    // The long-double reference is exact only when the product and addend
    // scales are within ~50 bits (significands <= 12 bits); skip wider gaps,
    // where the reference would lose sticky information.
    if (product != 0.0L && addend != 0.0L) {
      int ep = 0, ec = 0;
      std::frexp(static_cast<double>(product), &ep);
      std::frexp(static_cast<double>(addend), &ec);
      if (std::abs(ep - ec) > 50) continue;
    }
    const long double exact = product + addend;
    ASSERT_EQ(fma(a, b, c, s), encode_ld(exact, s))
        << s.to_string() << " fma(" << to_double(a, s) << "," << to_double(b, s) << "," << to_double(c, s) << ")";
  }
}

TEST_P(ArithFormatTest, ExhaustiveUnpackedMulFmaMatchCodedPaths) {
  // The decode-once overloads must be bit-identical to the coded ones for
  // every operand pair, including zero and NaR.
  const PositSpec s = spec();
  std::mt19937_64 rng(31);
  for (std::uint64_t a = 0; a < s.code_count(); ++a) {
    const Unpacked ua = decode_unpacked(static_cast<std::uint32_t>(a), s);
    for (std::uint64_t b = 0; b < s.code_count(); ++b) {
      const Unpacked ub = decode_unpacked(static_cast<std::uint32_t>(b), s);
      ASSERT_EQ(mul(ua, ub, s), mul(static_cast<std::uint32_t>(a), static_cast<std::uint32_t>(b), s))
          << s.to_string() << " codes " << a << " * " << b;
      const std::uint32_t c = static_cast<std::uint32_t>(rng()) & s.mask();
      ASSERT_EQ(fma(ua, ub, c, s),
                fma(static_cast<std::uint32_t>(a), static_cast<std::uint32_t>(b), c, s))
          << s.to_string() << " codes " << a << " * " << b << " + " << c;
    }
  }
}

TEST_P(ArithFormatTest, UnpackedRoundTripsThroughDecoded) {
  const PositSpec s = spec();
  for (std::uint64_t a = 0; a < s.code_count(); ++a) {
    const Decoded want = decode(static_cast<std::uint32_t>(a), s);
    const Decoded got = to_decoded(decode_unpacked(static_cast<std::uint32_t>(a), s));
    ASSERT_EQ(got.is_zero, want.is_zero);
    ASSERT_EQ(got.is_nar, want.is_nar);
    if (want.is_zero || want.is_nar) continue;
    ASSERT_EQ(got.neg, want.neg) << a;
    ASSERT_EQ(got.scale, want.scale) << a;
    ASSERT_EQ(got.sig, want.sig) << a;
  }
}

INSTANTIATE_TEST_SUITE_P(FormatSweep, ArithFormatTest,
                         ::testing::Values(std::pair{5, 1}, std::pair{6, 0}, std::pair{6, 1}, std::pair{6, 2},
                                           std::pair{7, 0}, std::pair{7, 1}, std::pair{8, 0}, std::pair{8, 1},
                                           std::pair{8, 2}),
                         [](const auto& info) {
                           return "p" + std::to_string(info.param.first) + "_" + std::to_string(info.param.second);
                         });

// ---------------------------------------------------------------------------
// Randomized checks on the 16-bit formats (too large for exhaustive pairs).
// ---------------------------------------------------------------------------
class Arith16Test : public ::testing::TestWithParam<std::pair<int, int>> {
 protected:
  PositSpec spec() const { return PositSpec{GetParam().first, GetParam().second}; }
};

TEST_P(Arith16Test, RandomAddMulAgainstLongDouble) {
  const PositSpec s = spec();
  std::mt19937_64 rng(23);
  for (int t = 0; t < 200000; ++t) {
    const std::uint32_t a = static_cast<std::uint32_t>(rng()) & s.mask();
    const std::uint32_t b = static_cast<std::uint32_t>(rng()) & s.mask();
    if (a == s.nar_code() || b == s.nar_code()) continue;
    const long double va = to_double(a, s);
    const long double vb = to_double(b, s);
    // posit(16,es<=2): significands <= 14 bits, scales within 2*56; the sum
    // fits 64-bit exactly except at extreme scale gaps where the small
    // operand is pure sticky; encode_ld loses that sticky, so skip those.
    if (va != 0.0L && vb != 0.0L) {
      const int ea = std::ilogb(static_cast<double>(std::fabs(static_cast<double>(va))));
      const int eb = std::ilogb(static_cast<double>(std::fabs(static_cast<double>(vb))));
      if (std::abs(ea - eb) > 44) continue;
    }
    ASSERT_EQ(add(a, b, s), encode_ld(va + vb, s)) << va << " + " << vb;
    ASSERT_EQ(mul(a, b, s), encode_ld(va * vb, s)) << va << " * " << vb;
  }
}

TEST_P(Arith16Test, RandomUnpackedRoundTripAndMulAgainstCoded) {
  // The clz-based decode_unpacked parser vs the canonical decode(), on
  // formats too wide for the exhaustive sweep.
  const PositSpec s = spec();
  std::mt19937_64 rng(47);
  for (int t = 0; t < 200000; ++t) {
    const std::uint32_t a = static_cast<std::uint32_t>(rng()) & s.mask();
    const Decoded want = decode(a, s);
    const Decoded got = to_decoded(decode_unpacked(a, s));
    ASSERT_EQ(got.is_zero, want.is_zero) << a;
    ASSERT_EQ(got.is_nar, want.is_nar) << a;
    if (!want.is_zero && !want.is_nar) {
      ASSERT_EQ(got.neg, want.neg) << a;
      ASSERT_EQ(got.scale, want.scale) << a;
      ASSERT_EQ(got.sig, want.sig) << a;
    }
    const std::uint32_t b = static_cast<std::uint32_t>(rng()) & s.mask();
    ASSERT_EQ(mul(decode_unpacked(a, s), decode_unpacked(b, s), s), mul(a, b, s)) << a << " " << b;
  }
}

TEST_P(Arith16Test, RandomSubFmaMatchPerBitReference) {
  // sub and fma normalise their exact sums with a leading-zero count; the
  // reference decodes and normalises bit by bit. Zero and NaR operands are
  // mixed in, and the scale gaps run from full cancellation to pure sticky.
  const PositSpec s = spec();
  std::mt19937_64 rng(59);
  const auto draw = [&] {
    const std::uint64_t r = rng();
    if ((r & 63) == 0) return 0u;
    if ((r & 63) == 1) return s.nar_code();
    return static_cast<std::uint32_t>(r >> 8) & s.mask();
  };
  for (int t = 0; t < 200000; ++t) {
    const std::uint32_t a = draw();
    const std::uint32_t b = draw();
    // Every fourth trial subtracts a value near a, where the difference
    // cancels most leading bits.
    const std::uint32_t near_a = (a + (static_cast<std::uint32_t>(rng()) & 7u)) & s.mask();
    const std::uint32_t c = (t & 3) == 0 ? near_a : draw();
    ASSERT_EQ(sub(a, c, s), testing::bitwise_sub(a, c, s)) << a << " - " << c;
    ASSERT_EQ(fma(a, b, c, s), testing::bitwise_fma(a, b, c, s)) << a << " * " << b << " + " << c;
  }
}

INSTANTIATE_TEST_SUITE_P(FormatSweep, Arith16Test,
                         ::testing::Values(std::pair{16, 1}, std::pair{16, 2}),
                         [](const auto& info) {
                           return "p" + std::to_string(info.param.first) + "_" + std::to_string(info.param.second);
                         });

TEST(UnpackedWideFormats, RoundTripMatchesDecodeOnRandomCodes) {
  // Spot the widest supported formats (32-bit words, large es) where field
  // boundaries stress the clz parser the most.
  std::mt19937_64 rng(53);
  for (const auto& [n, es] : {std::pair{24, 1}, std::pair{32, 0}, std::pair{32, 2}, std::pair{32, 3},
                              std::pair{32, 6}}) {
    const PositSpec s{n, es};
    for (int t = 0; t < 50000; ++t) {
      const std::uint32_t a = static_cast<std::uint32_t>(rng()) & s.mask();
      const Decoded want = decode(a, s);
      const Decoded got = to_decoded(decode_unpacked(a, s));
      ASSERT_EQ(got.is_zero, want.is_zero) << s.to_string() << " " << a;
      ASSERT_EQ(got.is_nar, want.is_nar) << s.to_string() << " " << a;
      if (want.is_zero || want.is_nar) continue;
      ASSERT_EQ(got.neg, want.neg) << s.to_string() << " " << a;
      ASSERT_EQ(got.scale, want.scale) << s.to_string() << " " << a;
      ASSERT_EQ(got.sig, want.sig) << s.to_string() << " " << a;
    }
    // The extremes: minpos/maxpos and their negations.
    for (const std::uint32_t c : {s.minpos_code(), s.maxpos_code(), neg(s.minpos_code(), s),
                                  neg(s.maxpos_code(), s)}) {
      const Decoded want = decode(c, s);
      const Decoded got = to_decoded(decode_unpacked(c, s));
      ASSERT_EQ(got.scale, want.scale) << s.to_string() << " " << c;
      ASSERT_EQ(got.sig, want.sig) << s.to_string() << " " << c;
    }
  }
}

// ---------------------------------------------------------------------------
// Format extremes.
// ---------------------------------------------------------------------------
TEST(PositSpecExtremes, MaxposMinposMatchPaperFormula) {
  // maxpos = useed^(n-2), minpos = useed^(2-n)  (Section II-B).
  const PositSpec p81{8, 1}, p82{8, 2}, p162{16, 2};
  EXPECT_DOUBLE_EQ(to_double(p81.maxpos_code(), p81), std::pow(4.0, 6));
  EXPECT_DOUBLE_EQ(to_double(p81.minpos_code(), p81), std::pow(4.0, -6));
  EXPECT_DOUBLE_EQ(to_double(p82.maxpos_code(), p82), std::pow(16.0, 6));
  EXPECT_DOUBLE_EQ(to_double(p82.minpos_code(), p82), std::pow(16.0, -6));
  EXPECT_DOUBLE_EQ(to_double(p162.maxpos_code(), p162), std::pow(16.0, 14));
  EXPECT_DOUBLE_EQ(to_double(p162.minpos_code(), p162), std::pow(16.0, -14));
}

}  // namespace
}  // namespace pdnn::posit
