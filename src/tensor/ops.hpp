// ops.hpp — dense kernels: matmul, im2col convolution, pooling, softmax.
//
// Layouts follow the usual deep-learning conventions: activations are NCHW,
// convolution weights are OIHW, matrices are row-major [rows, cols].
#pragma once

#include "tensor/tensor.hpp"

namespace pdnn::tensor {

/// C[m,n] = A[m,k] * B[k,n] via the cache-blocked micro-kernel GEMM
/// (gemm_kernel.hpp); bit-identical to the naive i-k-j loop.
Tensor matmul(const Tensor& a, const Tensor& b);

/// C[m,n] += A[m,k] * B[k,n] without reallocating C. Throws
/// std::invalid_argument unless all three operands are rank-2 with
/// compatible shapes.
void matmul_acc(const Tensor& a, const Tensor& b, Tensor& c);

/// B[n,m] = A[m,n]^T.
Tensor transpose(const Tensor& a);

/// Gather `count` equally-shaped sample tensors into one batch along a new
/// leading axis: out[i, ...] = *samples[i]. Rank-4 (NCHW) samples are
/// already batched, so they concatenate along axis 0 instead
/// ({count * n, c, h, w}) — Shape holds at most four dims. Reuses out's
/// storage (grow-only via Tensor::resize), so a serving loop that stacks
/// batches of settled shapes allocates nothing. Throws
/// std::invalid_argument on shape mismatches between samples, rank-0
/// samples, or empty samples.
void stack_samples(const Tensor* const* samples, std::size_t count, Tensor& out);

/// Scatter the i-th sample of a batched tensor back out: out = batch[i, ...]
/// with the leading axis dropped. Reuses out's storage. Throws
/// std::invalid_argument when batch is rank 0 or i is out of range.
void extract_sample(const Tensor& batch, std::size_t i, Tensor& out);

/// Contiguous sub-batch keeping the rank: out = batch[lo : lo+count, ...] —
/// the micro-batch sharding primitive (train::Trainer slices each worker's
/// span of the global batch with it). count may be 0 (an empty span of the
/// batched shape). Reuses out's storage. Throws std::invalid_argument when
/// batch is rank 0 or [lo, lo+count) falls outside the leading axis.
void extract_span(const Tensor& batch, std::size_t lo, std::size_t count, Tensor& out);

/// out[n,m] = a[m,n]^T into caller-owned storage (no allocation).
void transpose_into(const float* a, std::size_t m, std::size_t n, float* out);

/// Geometry of a 2-d convolution / pooling window. `kernel` is the window
/// height; `kernel_w` is the width, with 0 (the default, so existing braced
/// initializers stay valid) meaning a square `kernel`×`kernel` window.
struct Conv2dGeom {
  std::size_t in_c = 0, in_h = 0, in_w = 0;
  std::size_t out_c = 0;
  std::size_t kernel = 3;
  std::size_t stride = 1;
  std::size_t pad = 1;
  std::size_t kernel_w = 0;
  std::size_t kh() const { return kernel; }
  std::size_t kw() const { return kernel_w != 0 ? kernel_w : kernel; }
  std::size_t patch() const { return in_c * kh() * kw(); }
  std::size_t out_h() const { return (in_h + 2 * pad - kh()) / stride + 1; }
  std::size_t out_w() const { return (in_w + 2 * pad - kw()) / stride + 1; }
  /// Throws std::invalid_argument on impossible geometry: zero stride/window/
  /// channels, or a window larger than the padded input (out_h/out_w would
  /// silently underflow size_t otherwise).
  void validate() const;
};

/// Unfold one image [C,H,W] into columns [C*KH*KW, out_h*out_w].
void im2col(const float* img, const Conv2dGeom& g, float* cols);
/// Fold columns back, accumulating overlaps (adjoint of im2col).
void col2im(const float* cols, const Conv2dGeom& g, float* img);

/// Forward convolution: input [N,C,H,W], weight [O,I,KH,KW] -> [N,O,H',W'].
Tensor conv2d_forward(const Tensor& input, const Tensor& weight, const Conv2dGeom& g);

/// Gradients of conv2d. `grad_out` is [N,O,H',W'].
/// Returns grad wrt input; accumulates weight gradient into `grad_weight`.
Tensor conv2d_backward(const Tensor& input, const Tensor& weight, const Tensor& grad_out,
                       const Conv2dGeom& g, Tensor& grad_weight);

/// 2x2 max pooling with stride 2. Records argmax indices for backward.
Tensor maxpool2x2_forward(const Tensor& input, std::vector<std::size_t>& argmax);
Tensor maxpool2x2_backward(const Tensor& grad_out, const std::vector<std::size_t>& argmax,
                           const Shape& input_shape);

/// Global average pool [N,C,H,W] -> [N,C].
Tensor global_avgpool_forward(const Tensor& input);
Tensor global_avgpool_backward(const Tensor& grad_out, const Shape& input_shape);

/// Row-wise softmax of logits [N, classes].
Tensor softmax(const Tensor& logits);

/// Mean cross-entropy of logits [N, classes] against integer labels;
/// also emits dLogits (already divided by N). Throws std::invalid_argument,
/// before touching `grad_logits`, unless there are exactly N labels and each
/// lies in [0, classes).
float cross_entropy(const Tensor& logits, const std::vector<int>& labels, Tensor* grad_logits);

/// Count of argmax(logits) == label. Throws std::invalid_argument unless
/// there are exactly N labels (an out-of-range label simply never matches).
std::size_t count_correct(const Tensor& logits, const std::vector<int>& labels);

}  // namespace pdnn::tensor
