// ops_test.cpp — tensor kernels against naive reference implementations.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "tensor/ops.hpp"
#include "tensor/random.hpp"
#include "tensor/stats.hpp"

namespace pdnn::tensor {
namespace {

TEST(Shape, BasicProperties) {
  const Shape s{2, 3, 4, 5};
  EXPECT_EQ(s.rank(), 4u);
  EXPECT_EQ(s.numel(), 120u);
  EXPECT_EQ(s[2], 4u);
  EXPECT_EQ(s.to_string(), "[2,3,4,5]");
  EXPECT_TRUE((s == Shape{2, 3, 4, 5}));
  EXPECT_TRUE((s != Shape{2, 3, 4}));
  EXPECT_EQ(Shape{}.numel(), 0u);
}

TEST(Tensor, FactoriesAndAccessors) {
  Rng rng(1);
  Tensor z = Tensor::zeros({2, 2});
  EXPECT_EQ(z.numel(), 4u);
  EXPECT_FLOAT_EQ(z[3], 0.0f);
  Tensor f = Tensor::full({3}, 2.5f);
  EXPECT_FLOAT_EQ(f[1], 2.5f);
  Tensor r = Tensor::randn({64, 64}, rng);
  const auto m = moments(r);
  EXPECT_NEAR(m.mean, 0.0, 0.05);
  EXPECT_NEAR(m.stddev, 1.0, 0.05);
}

TEST(Tensor, KaimingVariance) {
  Rng rng(2);
  const std::size_t fan_in = 3 * 3 * 16;
  Tensor w = Tensor::kaiming({16, 16, 3, 3}, fan_in, rng);
  const auto m = moments(w);
  EXPECT_NEAR(m.stddev, std::sqrt(2.0 / static_cast<double>(fan_in)), 0.01);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t({2, 3});
  for (std::size_t i = 0; i < 6; ++i) t[i] = static_cast<float>(i);
  const Tensor r = t.reshaped({3, 2});
  EXPECT_FLOAT_EQ(r.at(2, 1), 5.0f);
  EXPECT_THROW(t.reshaped({4, 2}), std::invalid_argument);
}

TEST(Matmul, MatchesNaive) {
  Rng rng(3);
  const Tensor a = Tensor::randn({7, 13}, rng);
  const Tensor b = Tensor::randn({13, 9}, rng);
  const Tensor c = matmul(a, b);
  for (std::size_t i = 0; i < 7; ++i)
    for (std::size_t j = 0; j < 9; ++j) {
      float acc = 0.0f;
      for (std::size_t k = 0; k < 13; ++k) acc += a.at(i, k) * b.at(k, j);
      EXPECT_NEAR(c.at(i, j), acc, 1e-4) << i << "," << j;
    }
}

TEST(Matmul, ShapeMismatchThrows) {
  const Tensor a({2, 3}), b({4, 2});
  EXPECT_THROW(matmul(a, b), std::invalid_argument);
}

TEST(Transpose, RoundTrip) {
  Rng rng(4);
  const Tensor a = Tensor::randn({5, 8}, rng);
  const Tensor t = transpose(transpose(a));
  for (std::size_t i = 0; i < a.numel(); ++i) EXPECT_FLOAT_EQ(a[i], t[i]);
}

// Naive direct convolution as the oracle for the im2col path.
Tensor conv_naive(const Tensor& x, const Tensor& w, const Conv2dGeom& g) {
  const std::size_t n = x.shape()[0];
  Tensor out({n, g.out_c, g.out_h(), g.out_w()});
  for (std::size_t ni = 0; ni < n; ++ni)
    for (std::size_t o = 0; o < g.out_c; ++o)
      for (std::size_t y = 0; y < g.out_h(); ++y)
        for (std::size_t xx = 0; xx < g.out_w(); ++xx) {
          float acc = 0.0f;
          for (std::size_t c = 0; c < g.in_c; ++c)
            for (std::size_t ky = 0; ky < g.kernel; ++ky)
              for (std::size_t kx = 0; kx < g.kernel; ++kx) {
                const long iy = static_cast<long>(y * g.stride + ky) - static_cast<long>(g.pad);
                const long ix = static_cast<long>(xx * g.stride + kx) - static_cast<long>(g.pad);
                if (iy < 0 || ix < 0 || iy >= static_cast<long>(g.in_h) || ix >= static_cast<long>(g.in_w))
                  continue;
                acc += x.at(ni, c, static_cast<std::size_t>(iy), static_cast<std::size_t>(ix)) *
                       w.at(o, c, ky, kx);
              }
          out.at(ni, o, y, xx) = acc;
        }
  return out;
}

class ConvGeomTest : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t, std::size_t>> {};

TEST_P(ConvGeomTest, ForwardMatchesNaive) {
  const auto [kernel, stride, pad] = GetParam();
  Rng rng(5);
  Conv2dGeom g{3, 8, 8, 4, kernel, stride, pad};
  const Tensor x = Tensor::randn({2, 3, 8, 8}, rng);
  const Tensor w = Tensor::randn({4, 3, kernel, kernel}, rng);
  const Tensor got = conv2d_forward(x, w, g);
  const Tensor want = conv_naive(x, w, g);
  ASSERT_EQ(got.numel(), want.numel());
  for (std::size_t i = 0; i < got.numel(); ++i) EXPECT_NEAR(got[i], want[i], 1e-4);
}

INSTANTIATE_TEST_SUITE_P(Geometries, ConvGeomTest,
                         ::testing::Values(std::tuple{3u, 1u, 1u}, std::tuple{3u, 2u, 1u},
                                           std::tuple{1u, 1u, 0u}, std::tuple{1u, 2u, 0u},
                                           std::tuple{5u, 1u, 2u}, std::tuple{3u, 1u, 0u}));

// Numerical gradient check of conv2d_backward via central differences.
TEST(ConvBackward, GradientCheck) {
  Rng rng(6);
  Conv2dGeom g{2, 5, 5, 3, 3, 1, 1};
  Tensor x = Tensor::randn({1, 2, 5, 5}, rng);
  Tensor w = Tensor::randn({3, 2, 3, 3}, rng);

  // Loss = sum(conv(x, w) * R) for fixed random R.
  const Tensor r = Tensor::randn({1, 3, 5, 5}, rng);
  const auto loss = [&](const Tensor& xx, const Tensor& ww) {
    const Tensor y = conv2d_forward(xx, ww, g);
    double acc = 0.0;
    for (std::size_t i = 0; i < y.numel(); ++i) acc += static_cast<double>(y[i]) * r[i];
    return acc;
  };

  Tensor gw = Tensor::zeros(w.shape());
  const Tensor gx = conv2d_backward(x, w, r, g, gw);

  const double eps = 1e-3;
  for (std::size_t i = 0; i < x.numel(); i += 7) {
    Tensor xp = x, xm = x;
    xp[i] += static_cast<float>(eps);
    xm[i] -= static_cast<float>(eps);
    const double num = (loss(xp, w) - loss(xm, w)) / (2 * eps);
    EXPECT_NEAR(gx[i], num, 5e-2) << "dX[" << i << "]";
  }
  for (std::size_t i = 0; i < w.numel(); i += 5) {
    Tensor wp = w, wm = w;
    wp[i] += static_cast<float>(eps);
    wm[i] -= static_cast<float>(eps);
    const double num = (loss(x, wp) - loss(x, wm)) / (2 * eps);
    EXPECT_NEAR(gw[i], num, 5e-2) << "dW[" << i << "]";
  }
}

TEST(Im2colCol2im, AdjointProperty) {
  // <im2col(x), y> == <x, col2im(y)> for all x, y (adjoint pair).
  Rng rng(7);
  Conv2dGeom g{2, 6, 6, 1, 3, 2, 1};
  const std::size_t img_n = 2 * 6 * 6;
  const std::size_t col_n = 2 * 9 * g.out_h() * g.out_w();
  std::vector<float> x(img_n), y(col_n), cols(col_n), img(img_n, 0.0f);
  for (auto& v : x) v = static_cast<float>(rng.normal());
  for (auto& v : y) v = static_cast<float>(rng.normal());
  im2col(x.data(), g, cols.data());
  col2im(y.data(), g, img.data());
  double lhs = 0.0, rhs = 0.0;
  for (std::size_t i = 0; i < col_n; ++i) lhs += static_cast<double>(cols[i]) * y[i];
  for (std::size_t i = 0; i < img_n; ++i) rhs += static_cast<double>(x[i]) * img[i];
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(MaxPool, ForwardAndBackward) {
  Tensor x({1, 1, 4, 4});
  for (std::size_t i = 0; i < 16; ++i) x[i] = static_cast<float>(i);
  std::vector<std::size_t> argmax;
  const Tensor y = maxpool2x2_forward(x, argmax);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), 5.0f);
  EXPECT_FLOAT_EQ(y.at(0, 0, 1, 1), 15.0f);
  Tensor gy({1, 1, 2, 2});
  gy.fill(1.0f);
  const Tensor gx = maxpool2x2_backward(gy, argmax, x.shape());
  EXPECT_FLOAT_EQ(gx[5], 1.0f);
  EXPECT_FLOAT_EQ(gx[0], 0.0f);
  double total = 0.0;
  for (std::size_t i = 0; i < gx.numel(); ++i) total += gx[i];
  EXPECT_DOUBLE_EQ(total, 4.0);
}

TEST(GlobalAvgPool, ForwardBackward) {
  Tensor x({2, 3, 2, 2});
  for (std::size_t i = 0; i < x.numel(); ++i) x[i] = static_cast<float>(i);
  const Tensor y = global_avgpool_forward(x);
  EXPECT_EQ(y.shape(), (Shape{2, 3}));
  EXPECT_FLOAT_EQ(y.at(0, 0), (0 + 1 + 2 + 3) / 4.0f);
  Tensor gy({2, 3});
  gy.fill(4.0f);
  const Tensor gx = global_avgpool_backward(gy, x.shape());
  EXPECT_FLOAT_EQ(gx[0], 1.0f);  // 4 / plane(4)
}

TEST(Softmax, RowsSumToOneAndOrderPreserved) {
  Rng rng(8);
  const Tensor logits = Tensor::randn({5, 7}, rng, 3.0f);
  const Tensor p = softmax(logits);
  for (std::size_t i = 0; i < 5; ++i) {
    double sum = 0.0;
    for (std::size_t j = 0; j < 7; ++j) {
      sum += p.at(i, j);
      EXPECT_GT(p.at(i, j), 0.0f);
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(CrossEntropy, GradientCheck) {
  Rng rng(9);
  Tensor logits = Tensor::randn({4, 6}, rng);
  const std::vector<int> labels{1, 0, 5, 3};
  Tensor grad;
  cross_entropy(logits, labels, &grad);
  const double eps = 1e-3;
  for (std::size_t i = 0; i < logits.numel(); ++i) {
    Tensor lp = logits, lm = logits;
    lp[i] += static_cast<float>(eps);
    lm[i] -= static_cast<float>(eps);
    const double num =
        (cross_entropy(lp, labels, nullptr) - cross_entropy(lm, labels, nullptr)) / (2 * eps);
    EXPECT_NEAR(grad[i], num, 1e-3);
  }
}

TEST(CrossEntropy, PerfectPredictionLowLoss) {
  Tensor logits({2, 3});
  logits.at(0, 1) = 20.0f;
  logits.at(1, 2) = 20.0f;
  const float loss = cross_entropy(logits, {1, 2}, nullptr);
  EXPECT_LT(loss, 1e-3);
  EXPECT_EQ(count_correct(logits, {1, 2}), 2u);
  EXPECT_EQ(count_correct(logits, {0, 2}), 1u);
}

TEST(CrossEntropy, RejectsBadLabelsBeforeTouchingGrad) {
  Rng rng(10);
  const Tensor logits = Tensor::randn({3, 4}, rng);
  for (const std::vector<int>& labels :
       {std::vector<int>{0, 4, 1}, std::vector<int>{0, -1, 1}, std::vector<int>{0, 1},
        std::vector<int>{0, 1, 2, 3}}) {
    Tensor grad = Tensor::full({1}, 7.0f);
    EXPECT_THROW(cross_entropy(logits, labels, &grad), std::invalid_argument);
    EXPECT_EQ(grad.shape(), Shape({1}));  // untouched
    EXPECT_EQ(grad[0], 7.0f);
  }
  // count_correct only compares against the argmax, so a label outside the
  // class range is a miss, but the label count must still match the rows.
  EXPECT_EQ(count_correct(logits, {9, -3, 99}), 0u);
  EXPECT_THROW(count_correct(logits, {0, 1}), std::invalid_argument);
  EXPECT_THROW(count_correct(logits, {0, 1, 2, 3}), std::invalid_argument);
  EXPECT_NO_THROW(cross_entropy(logits, {0, 3, 2}, nullptr));
}

TEST(Stats, MomentsAndLog2Center) {
  Tensor t({4});
  t[0] = 0.25f;
  t[1] = 0.25f;
  t[2] = -0.25f;
  t[3] = 0.0f;  // zero excluded from log stats
  EXPECT_EQ(log2_center(t), -2);
  EXPECT_DOUBLE_EQ(log2_mean(t), -2.0);
  const auto m = moments(t);
  EXPECT_DOUBLE_EQ(m.min, -0.25);
  EXPECT_DOUBLE_EQ(m.max, 0.25);
}

TEST(Stats, Log2Range) {
  Tensor t({3});
  t[0] = 1.0f;   // log2 = 0
  t[1] = 8.0f;   // log2 = 3
  t[2] = 0.5f;   // log2 = -1
  EXPECT_DOUBLE_EQ(log2_range(t), 4.0);
}

TEST(BatchHelpers, StackAndExtractRoundTripBitExact) {
  Rng rng(61);
  const Tensor s0 = Tensor::randn({2, 3}, rng);
  const Tensor s1 = Tensor::randn({2, 3}, rng);
  const Tensor s2 = Tensor::randn({2, 3}, rng);
  const Tensor* samples[] = {&s0, &s1, &s2};

  Tensor batch;
  stack_samples(samples, 3, batch);
  EXPECT_EQ(batch.shape(), (Shape{3, 2, 3}));

  Tensor row;
  for (std::size_t i = 0; i < 3; ++i) {
    extract_sample(batch, i, row);
    EXPECT_EQ(row.shape(), (Shape{2, 3}));
    EXPECT_EQ(std::memcmp(row.data(), samples[i]->data(), row.numel() * sizeof(float)), 0)
        << "sample " << i;
  }
}

TEST(BatchHelpers, RankOneSamplesAndStorageReuse) {
  Rng rng(67);
  const Tensor a = Tensor::randn({5}, rng);
  const Tensor b = Tensor::randn({5}, rng);
  const Tensor* samples[] = {&a, &b};

  // Pre-grown output storage is reused, not reallocated past need.
  Tensor batch = Tensor::zeros({4, 7});
  stack_samples(samples, 2, batch);
  EXPECT_EQ(batch.shape(), (Shape{2, 5}));

  Tensor row = Tensor::zeros({9});
  extract_sample(batch, 1, row);
  EXPECT_EQ(row.shape(), (Shape{5}));
  EXPECT_EQ(std::memcmp(row.data(), b.data(), 5 * sizeof(float)), 0);

  // Rank-1 batch: each sample is one scalar slot.
  extract_sample(a, 3, row);
  EXPECT_EQ(row.shape(), (Shape{1}));
  EXPECT_FLOAT_EQ(row[0], a[3]);
}

TEST(BatchHelpers, RankFourSamplesConcatenateAlongAxisZero) {
  // NCHW mini-batches stack by axis-0 concatenation (Shape tops out at four
  // dims): two [2,3,4,4] shards -> one [4,3,4,4] batch, rows in order.
  Rng rng(73);
  const Tensor s0 = Tensor::randn({2, 3, 4, 4}, rng);
  const Tensor s1 = Tensor::randn({2, 3, 4, 4}, rng);
  const Tensor* samples[] = {&s0, &s1};

  Tensor batch;
  stack_samples(samples, 2, batch);
  EXPECT_EQ(batch.shape(), (Shape{4, 3, 4, 4}));
  EXPECT_EQ(std::memcmp(batch.data(), s0.data(), s0.numel() * sizeof(float)), 0);
  EXPECT_EQ(std::memcmp(batch.data() + s0.numel(), s1.data(), s1.numel() * sizeof(float)), 0);
}

TEST(BatchHelpers, ExtractSpanKeepsRank) {
  Rng rng(79);
  const Tensor batch4 = Tensor::randn({6, 2, 3, 3}, rng);
  const std::size_t stride = batch4.numel() / 6;

  Tensor span;
  extract_span(batch4, 2, 3, span);
  EXPECT_EQ(span.shape(), (Shape{3, 2, 3, 3}));
  EXPECT_EQ(std::memcmp(span.data(), batch4.data() + 2 * stride, span.numel() * sizeof(float)), 0);

  // Rank-2 batches keep their rank too, and an empty span is legal.
  const Tensor batch2 = Tensor::randn({5, 7}, rng);
  extract_span(batch2, 4, 1, span);
  EXPECT_EQ(span.shape(), (Shape{1, 7}));
  EXPECT_EQ(std::memcmp(span.data(), batch2.data() + 4 * 7, 7 * sizeof(float)), 0);
  extract_span(batch2, 5, 0, span);
  EXPECT_EQ(span.shape(), (Shape{0, 7}));
  EXPECT_EQ(span.numel(), 0u);
}

TEST(BatchHelpers, DegenerateInputsThrow) {
  Rng rng(71);
  const Tensor ok = Tensor::randn({4}, rng);
  const Tensor wide = Tensor::randn({5}, rng);
  const Tensor cube3 = Tensor::randn({2, 2, 2}, rng);
  const Tensor cube4 = Tensor::randn({2, 2, 2, 2}, rng);
  Tensor out;

  const Tensor* none[] = {&ok};
  EXPECT_THROW(stack_samples(none, 0, out), std::invalid_argument);
  const Tensor* mixed[] = {&ok, &wide};
  EXPECT_THROW(stack_samples(mixed, 2, out), std::invalid_argument);
  const Tensor* mixed_rank[] = {&cube4, &cube3};
  EXPECT_THROW(stack_samples(mixed_rank, 2, out), std::invalid_argument);
  const Tensor empty_sample = Tensor::zeros({0, 2, 2, 2});
  const Tensor* degenerate[] = {&empty_sample};
  EXPECT_THROW(stack_samples(degenerate, 1, out), std::invalid_argument);

  EXPECT_THROW(extract_sample(Tensor(), 0, out), std::invalid_argument);
  EXPECT_THROW(extract_sample(ok, 4, out), std::invalid_argument);

  EXPECT_THROW(extract_span(Tensor(), 0, 0, out), std::invalid_argument);
  EXPECT_THROW(extract_span(ok, 3, 2, out), std::invalid_argument);
  EXPECT_THROW(extract_span(ok, 5, 0, out), std::invalid_argument);
}

TEST(Stats, HistogramBuckets) {
  Tensor t({6});
  t[0] = -1.5f;  // underflow
  t[1] = -0.5f;
  t[2] = 0.1f;
  t[3] = 0.1f;
  t[4] = 0.9f;
  t[5] = 2.0f;  // overflow
  const Histogram h = histogram(t, -1.0, 1.0, 4);
  EXPECT_EQ(h.underflow, 1u);
  EXPECT_EQ(h.overflow, 1u);
  EXPECT_EQ(h.counts[1], 1u);  // -0.5
  EXPECT_EQ(h.counts[2], 2u);  // 0.1 x2
  EXPECT_EQ(h.counts[3], 1u);  // 0.9
  EXPECT_FALSE(render_histogram(h).empty());
}

TEST(Rng, DeterministicAndUniform) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
  Rng c(7);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) sum += c.uniform();
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

}  // namespace
}  // namespace pdnn::tensor
