#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "tensor/gemm_kernel.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace pdnn::tensor {

// Parallelization strategy: every `omp parallel for` below distributes
// *independent output slices* (matmul rows, im2col rows, conv batch samples,
// col2im channels) across threads, and each slice is computed in exactly the
// serial loop order. Results are therefore bit-identical to the serial path
// for any thread count — a property matmul_parallel_test locks in.

Tensor matmul(const Tensor& a, const Tensor& b) {
  Tensor c({a.shape()[0], b.shape()[1]});
  matmul_acc(a, b, c);
  return c;
}

void matmul_acc(const Tensor& a, const Tensor& b, Tensor& c) {
  if (a.shape().rank() != 2 || b.shape().rank() != 2 || c.shape().rank() != 2) {
    throw std::invalid_argument("matmul: rank-2 operands required, got " + a.shape().to_string() +
                                " x " + b.shape().to_string() + " -> " + c.shape().to_string());
  }
  const std::size_t m = a.shape()[0], k = a.shape()[1], n = b.shape()[1];
  if (b.shape()[0] != k) {
    throw std::invalid_argument("matmul: inner dimensions differ: A is " + a.shape().to_string() +
                                " (k = " + std::to_string(k) + ") but B is " +
                                b.shape().to_string() + " (k = " + std::to_string(b.shape()[0]) +
                                ")");
  }
  if (c.shape()[0] != m || c.shape()[1] != n) {
    throw std::invalid_argument("matmul: output must be [" + std::to_string(m) + "," +
                                std::to_string(n) + "] for " + a.shape().to_string() + " x " +
                                b.shape().to_string() + ", got " + c.shape().to_string());
  }
  // Cache-blocked packed GEMM (gemm_kernel.cpp): rows of C stay the parallel
  // axis and every element accumulates in ascending-k i-k-j order, so results
  // are bit-identical to the skip-free naive loop at any thread count. (The
  // PR-1 loop also skipped aik == 0.0f rows, which for zero×inf/NaN products
  // or -0.0 sums could differ; the blocked kernel never skips.)
  gemm_blocked(m, n, k, a.data(), k, b.data(), n, c.data(), n);
}

Tensor transpose(const Tensor& a) {
  const std::size_t m = a.shape()[0], n = a.shape()[1];
  Tensor t({n, m});
  transpose_into(a.data(), m, n, t.data());
  return t;
}

void transpose_into(const float* a, std::size_t m, std::size_t n, float* out) {
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) out[j * m + i] = a[i * n + j];
}

void stack_samples(const Tensor* const* samples, std::size_t count, Tensor& out) {
  if (count == 0) throw std::invalid_argument("stack_samples: empty batch");
  const Shape& s = samples[0]->shape();
  if (s.rank() == 0) {
    throw std::invalid_argument("stack_samples: rank-0 sample");
  }
  const std::size_t stride = s.numel();
  if (stride == 0) throw std::invalid_argument("stack_samples: empty sample");
  Shape batched;
  switch (s.rank()) {
    case 1: batched = {count, s[0]}; break;
    case 2: batched = {count, s[0], s[1]}; break;
    case 3: batched = {count, s[0], s[1], s[2]}; break;
    // Rank-4 samples are already batched NCHW — Shape holds at most four
    // dims, so stacking concatenates along axis 0 instead of adding one.
    default: batched = {count * s[0], s[1], s[2], s[3]}; break;
  }
  out.resize(batched);
  for (std::size_t i = 0; i < count; ++i) {
    if (samples[i]->shape() != s) {
      throw std::invalid_argument("stack_samples: sample " + std::to_string(i) + " shape " +
                                  samples[i]->shape().to_string() + " != " + s.to_string());
    }
    std::memcpy(out.data() + i * stride, samples[i]->data(), stride * sizeof(float));
  }
}

void extract_sample(const Tensor& batch, std::size_t i, Tensor& out) {
  const Shape& s = batch.shape();
  if (s.rank() == 0 || i >= s[0]) {
    throw std::invalid_argument("extract_sample: index " + std::to_string(i) +
                                " out of range for batch " + s.to_string());
  }
  Shape sample;
  switch (s.rank()) {
    case 1: sample = {1}; break;  // rank-1 batch: a sample is one scalar slot
    case 2: sample = {s[1]}; break;
    case 3: sample = {s[1], s[2]}; break;
    default: sample = {s[1], s[2], s[3]}; break;
  }
  const std::size_t stride = s.rank() == 1 ? 1 : sample.numel();
  out.resize(sample);
  std::memcpy(out.data(), batch.data() + i * stride, stride * sizeof(float));
}

void extract_span(const Tensor& batch, std::size_t lo, std::size_t count, Tensor& out) {
  const Shape& s = batch.shape();
  if (s.rank() == 0 || lo + count > s[0]) {
    throw std::invalid_argument("extract_span: [" + std::to_string(lo) + ", " +
                                std::to_string(lo + count) + ") out of range for batch " +
                                s.to_string());
  }
  std::size_t stride = 1;
  for (std::size_t d = 1; d < s.rank(); ++d) stride *= s[d];
  out.resize(s.with_dim0(count));
  std::memcpy(out.data(), batch.data() + lo * stride, count * stride * sizeof(float));
}

void Conv2dGeom::validate() const {
  const auto fail = [this](const char* why) {
    throw std::invalid_argument(std::string("Conv2dGeom: ") + why + " (in " +
                                std::to_string(in_c) + "x" + std::to_string(in_h) + "x" +
                                std::to_string(in_w) + ", out_c " + std::to_string(out_c) +
                                ", kernel " + std::to_string(kh()) + "x" + std::to_string(kw()) +
                                ", stride " + std::to_string(stride) + ", pad " +
                                std::to_string(pad) + ")");
  };
  if (stride == 0) fail("stride must be >= 1");
  if (kh() == 0 || kw() == 0) fail("window must be >= 1x1");
  if (in_c == 0 || out_c == 0) fail("channel counts must be >= 1");
  if (in_h + 2 * pad < kh() || in_w + 2 * pad < kw()) {
    fail("window larger than padded input");
  }
}

void im2col(const float* img, const Conv2dGeom& g, float* cols) {
  const std::size_t oh = g.out_h(), ow = g.out_w();
  const std::size_t plane = g.in_h * g.in_w;
  const std::size_t kh = g.kh(), kw = g.kw();
  const std::size_t rows = g.in_c * kh * kw;
  // Each output row is owned by exactly one (c, ky, kx) triple: flatten the
  // three loops so the rows can be distributed across threads.
#pragma omp parallel for schedule(static) if (rows > 1 && rows * oh * ow > 16384)
  for (std::size_t row = 0; row < rows; ++row) {
    const std::size_t c = row / (kh * kw);
    const std::size_t ky = (row / kw) % kh;
    const std::size_t kx = row % kw;
    float* out = cols + row * (oh * ow);
    for (std::size_t y = 0; y < oh; ++y) {
      const long iy = static_cast<long>(y * g.stride + ky) - static_cast<long>(g.pad);
      if (iy < 0 || iy >= static_cast<long>(g.in_h)) {
        std::memset(out + y * ow, 0, ow * sizeof(float));
        continue;
      }
      const float* src = img + c * plane + static_cast<std::size_t>(iy) * g.in_w;
      for (std::size_t x = 0; x < ow; ++x) {
        const long ix = static_cast<long>(x * g.stride + kx) - static_cast<long>(g.pad);
        out[y * ow + x] = (ix < 0 || ix >= static_cast<long>(g.in_w)) ? 0.0f : src[ix];
      }
    }
  }
}

void col2im(const float* cols, const Conv2dGeom& g, float* img) {
  const std::size_t oh = g.out_h(), ow = g.out_w();
  const std::size_t plane = g.in_h * g.in_w;
  const std::size_t kh = g.kh(), kw = g.kw();
  // Rows within one channel accumulate into the same image plane, so the
  // channel (not the row) is the parallel axis; per-channel accumulation
  // keeps the serial order.
#pragma omp parallel for schedule(static) if (g.in_c > 1 && g.in_c * kh * kw * oh * ow > 16384)
  for (std::size_t c = 0; c < g.in_c; ++c) {
    std::size_t row = c * kh * kw;
    for (std::size_t ky = 0; ky < kh; ++ky) {
      for (std::size_t kx = 0; kx < kw; ++kx, ++row) {
        const float* in = cols + row * (oh * ow);
        for (std::size_t y = 0; y < oh; ++y) {
          const long iy = static_cast<long>(y * g.stride + ky) - static_cast<long>(g.pad);
          if (iy < 0 || iy >= static_cast<long>(g.in_h)) continue;
          float* dst = img + c * plane + static_cast<std::size_t>(iy) * g.in_w;
          for (std::size_t x = 0; x < ow; ++x) {
            const long ix = static_cast<long>(x * g.stride + kx) - static_cast<long>(g.pad);
            if (ix >= 0 && ix < static_cast<long>(g.in_w)) dst[ix] += in[y * ow + x];
          }
        }
      }
    }
  }
}

namespace {

/// The im2col-lowered entry points take NCHW activations whose trailing dims
/// must match the geometry, and OIHW weights of exactly [out_c, in_c, kh, kw]
/// elements; failures name the offending dimensions.
void check_conv_operands(const char* who, const Tensor& input, const Tensor& weight,
                         const Conv2dGeom& g) {
  const Shape& s = input.shape();
  if (s.rank() != 4 || s[1] != g.in_c || s[2] != g.in_h || s[3] != g.in_w) {
    throw std::invalid_argument(std::string(who) + ": input " + s.to_string() +
                                " does not match geometry [N," + std::to_string(g.in_c) + "," +
                                std::to_string(g.in_h) + "," + std::to_string(g.in_w) + "]");
  }
  if (weight.numel() != g.out_c * g.patch()) {
    throw std::invalid_argument(std::string(who) + ": weight " + weight.shape().to_string() +
                                " (" + std::to_string(weight.numel()) +
                                " elements) does not match geometry [" + std::to_string(g.out_c) +
                                "," + std::to_string(g.in_c) + "," + std::to_string(g.kh()) + "," +
                                std::to_string(g.kw()) + "]");
  }
}

}  // namespace

Tensor conv2d_forward(const Tensor& input, const Tensor& weight, const Conv2dGeom& g) {
  g.validate();
  check_conv_operands("conv2d_forward", input, weight, g);
  const std::size_t batch = input.shape()[0];
  const std::size_t oh = g.out_h(), ow = g.out_w();
  const std::size_t patch = g.patch();
  Tensor out({batch, g.out_c, oh, ow});
  const Tensor w2d = weight.reshaped({g.out_c, patch});
  const std::size_t in_stride = g.in_c * g.in_h * g.in_w;
  const std::size_t out_stride = g.out_c * oh * ow;
  // One sample's lowered GEMM is self-contained, so the batch is the parallel
  // axis; cols/out2d scratch is per-thread inside the region.
  const auto conv_one = [&](std::size_t nidx, Tensor& cols, Tensor& out2d) {
    im2col(input.data() + nidx * in_stride, g, cols.data());
    out2d.fill(0.0f);
    matmul_acc(w2d, cols, out2d);
    std::memcpy(out.data() + nidx * out_stride, out2d.data(), out2d.numel() * sizeof(float));
  };
#ifdef _OPENMP
  if (batch > 1) {
    // Bound the team by the batch: surplus threads would allocate scratch
    // below yet never receive an iteration.
    const int team = static_cast<int>(
        std::min<std::size_t>(batch, static_cast<std::size_t>(omp_get_max_threads())));
#pragma omp parallel num_threads(team)
    {
      Tensor cols({patch, oh * ow});
      Tensor out2d({g.out_c, oh * ow});
#pragma omp for schedule(static)
      for (std::size_t nidx = 0; nidx < batch; ++nidx) conv_one(nidx, cols, out2d);
    }
    return out;
  }
#endif
  // Single sample (or no OpenMP): the inner im2col/matmul_acc still thread.
  Tensor cols({patch, oh * ow});
  Tensor out2d({g.out_c, oh * ow});
  for (std::size_t nidx = 0; nidx < batch; ++nidx) conv_one(nidx, cols, out2d);
  return out;
}

Tensor conv2d_backward(const Tensor& input, const Tensor& weight, const Tensor& grad_out,
                       const Conv2dGeom& g, Tensor& grad_weight) {
  g.validate();
  check_conv_operands("conv2d_backward", input, weight, g);
  const std::size_t batch = input.shape()[0];
  const std::size_t oh = g.out_h(), ow = g.out_w();
  const Shape& gs = grad_out.shape();
  if (gs.rank() != 4 || gs[0] != batch || gs[1] != g.out_c || gs[2] != oh || gs[3] != ow) {
    throw std::invalid_argument("conv2d_backward: grad_out " + gs.to_string() +
                                " does not match forward output [" + std::to_string(batch) + "," +
                                std::to_string(g.out_c) + "," + std::to_string(oh) + "," +
                                std::to_string(ow) + "]");
  }
  const std::size_t patch = g.patch();
  const Tensor w2d = weight.reshaped({g.out_c, patch});
  const Tensor w2d_t = transpose(w2d);  // [patch, out_c]

  Tensor grad_input({batch, g.in_c, g.in_h, g.in_w});
  Tensor cols({patch, oh * ow});
  Tensor cols_t({oh * ow, patch});
  Tensor grad_cols({patch, oh * ow});
  Tensor gw2d = grad_weight.reshaped({g.out_c, patch});  // accumulate here, copy back below
  Tensor gout2d({g.out_c, oh * ow});

  for (std::size_t nidx = 0; nidx < batch; ++nidx) {
    const float* go = grad_out.data() + nidx * g.out_c * oh * ow;
    std::memcpy(gout2d.data(), go, gout2d.numel() * sizeof(float));

    // dW += dY * cols^T, lowered onto the blocked GEMM so the weight gradient
    // inherits cache blocking and the threaded row distribution. The serial
    // batch loop keeps per-element accumulation order fixed.
    im2col(input.data() + nidx * g.in_c * g.in_h * g.in_w, g, cols.data());
    transpose_into(cols.data(), patch, oh * ow, cols_t.data());
    matmul_acc(gout2d, cols_t, gw2d);

    // dX = col2im(W^T * dY)
    grad_cols.fill(0.0f);
    matmul_acc(w2d_t, gout2d, grad_cols);
    col2im(grad_cols.data(), g, grad_input.data() + nidx * g.in_c * g.in_h * g.in_w);
  }
  std::memcpy(grad_weight.data(), gw2d.data(), gw2d.numel() * sizeof(float));
  return grad_input;
}

Tensor maxpool2x2_forward(const Tensor& input, std::vector<std::size_t>& argmax) {
  const std::size_t n = input.shape()[0], c = input.shape()[1], h = input.shape()[2], w = input.shape()[3];
  const std::size_t oh = h / 2, ow = w / 2;
  Tensor out({n, c, oh, ow});
  argmax.assign(out.numel(), 0);
  std::size_t oi = 0;
  for (std::size_t ni = 0; ni < n; ++ni)
    for (std::size_t ci = 0; ci < c; ++ci)
      for (std::size_t y = 0; y < oh; ++y)
        for (std::size_t x = 0; x < ow; ++x, ++oi) {
          float best = -std::numeric_limits<float>::infinity();
          std::size_t best_idx = 0;
          for (std::size_t dy = 0; dy < 2; ++dy)
            for (std::size_t dx = 0; dx < 2; ++dx) {
              const std::size_t idx = ((ni * c + ci) * h + 2 * y + dy) * w + 2 * x + dx;
              if (input[idx] > best) {
                best = input[idx];
                best_idx = idx;
              }
            }
          out[oi] = best;
          argmax[oi] = best_idx;
        }
  return out;
}

Tensor maxpool2x2_backward(const Tensor& grad_out, const std::vector<std::size_t>& argmax,
                           const Shape& input_shape) {
  Tensor grad_input(input_shape);
  for (std::size_t i = 0; i < grad_out.numel(); ++i) grad_input[argmax[i]] += grad_out[i];
  return grad_input;
}

Tensor global_avgpool_forward(const Tensor& input) {
  const std::size_t n = input.shape()[0], c = input.shape()[1];
  const std::size_t plane = input.shape()[2] * input.shape()[3];
  Tensor out({n, c});
  for (std::size_t ni = 0; ni < n; ++ni)
    for (std::size_t ci = 0; ci < c; ++ci) {
      const float* src = input.data() + (ni * c + ci) * plane;
      float acc = 0.0f;
      for (std::size_t i = 0; i < plane; ++i) acc += src[i];
      out.at(ni, ci) = acc / static_cast<float>(plane);
    }
  return out;
}

Tensor global_avgpool_backward(const Tensor& grad_out, const Shape& input_shape) {
  Tensor grad_input(input_shape);
  const std::size_t n = input_shape[0], c = input_shape[1];
  const std::size_t plane = input_shape[2] * input_shape[3];
  const float inv = 1.0f / static_cast<float>(plane);
  for (std::size_t ni = 0; ni < n; ++ni)
    for (std::size_t ci = 0; ci < c; ++ci) {
      const float g = grad_out.at(ni, ci) * inv;
      float* dst = grad_input.data() + (ni * c + ci) * plane;
      for (std::size_t i = 0; i < plane; ++i) dst[i] = g;
    }
  return grad_input;
}

Tensor softmax(const Tensor& logits) {
  const std::size_t n = logits.shape()[0], k = logits.shape()[1];
  Tensor out({n, k});
  for (std::size_t i = 0; i < n; ++i) {
    const float* row = logits.data() + i * k;
    float* orow = out.data() + i * k;
    const float mx = *std::max_element(row, row + k);
    float sum = 0.0f;
    for (std::size_t j = 0; j < k; ++j) {
      orow[j] = std::exp(row[j] - mx);
      sum += orow[j];
    }
    const float inv = 1.0f / sum;
    for (std::size_t j = 0; j < k; ++j) orow[j] *= inv;
  }
  return out;
}

namespace {

/// Throws std::invalid_argument unless there is one label per logits row.
void check_label_count(const char* what, std::size_t rows, const std::vector<int>& labels) {
  if (labels.size() != rows) {
    throw std::invalid_argument(std::string(what) + ": " + std::to_string(labels.size()) +
                                " labels for " + std::to_string(rows) + " logits rows");
  }
}

}  // namespace

float cross_entropy(const Tensor& logits, const std::vector<int>& labels, Tensor* grad_logits) {
  const std::size_t n = logits.shape()[0], k = logits.shape()[1];
  check_label_count("cross_entropy", n, labels);
  for (std::size_t i = 0; i < n; ++i) {
    if (labels[i] < 0 || static_cast<std::size_t>(labels[i]) >= k) {
      throw std::invalid_argument("cross_entropy: label " + std::to_string(labels[i]) +
                                  " at row " + std::to_string(i) + " is outside [0, " +
                                  std::to_string(k) + ")");
    }
  }
  const Tensor probs = softmax(logits);
  float loss = 0.0f;
  for (std::size_t i = 0; i < n; ++i) {
    const float p = std::max(probs[i * k + static_cast<std::size_t>(labels[i])], 1e-12f);
    loss -= std::log(p);
  }
  loss /= static_cast<float>(n);
  if (grad_logits != nullptr) {
    *grad_logits = probs;
    const float inv = 1.0f / static_cast<float>(n);
    for (std::size_t i = 0; i < n; ++i) {
      float* row = grad_logits->data() + i * k;
      row[static_cast<std::size_t>(labels[i])] -= 1.0f;
      for (std::size_t j = 0; j < k; ++j) row[j] *= inv;
    }
  }
  return loss;
}

std::size_t count_correct(const Tensor& logits, const std::vector<int>& labels) {
  const std::size_t n = logits.shape()[0], k = logits.shape()[1];
  check_label_count("count_correct", n, labels);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const float* row = logits.data() + i * k;
    const std::size_t arg = static_cast<std::size_t>(std::max_element(row, row + k) - row);
    if (static_cast<int>(arg) == labels[i]) ++correct;
  }
  return correct;
}

}  // namespace pdnn::tensor
