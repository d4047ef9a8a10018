// tensor.hpp — minimal dense float32 tensor (row-major, up to 4-d).
//
// This is the numeric substrate for the NN stack. Training runs in FP32 with
// the paper's posit transformation inserted at the Fig. 3 hook points, exactly
// mirroring the authors' PyTorch emulation, so a float tensor (not a posit
// tensor) is the right primitive.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "tensor/random.hpp"

namespace pdnn::tensor {

/// Shape of a tensor: up to 4 dimensions, row-major.
class Shape {
 public:
  Shape() = default;
  Shape(std::initializer_list<std::size_t> dims) {
    if (dims.size() > 4) throw std::invalid_argument("Shape: at most 4 dimensions");
    rank_ = dims.size();
    std::size_t i = 0;
    for (const auto d : dims) dims_[i++] = d;
  }

  std::size_t rank() const { return rank_; }
  std::size_t operator[](std::size_t i) const { return dims_[i]; }
  /// The same shape with the leading (batch) dimension replaced; rank >= 1.
  Shape with_dim0(std::size_t n) const {
    Shape s = *this;
    s.dims_[0] = n;
    return s;
  }
  std::size_t numel() const {
    std::size_t n = 1;
    for (std::size_t i = 0; i < rank_; ++i) n *= dims_[i];
    return rank_ == 0 ? 0 : n;
  }

  bool operator==(const Shape& o) const {
    if (rank_ != o.rank_) return false;
    for (std::size_t i = 0; i < rank_; ++i)
      if (dims_[i] != o.dims_[i]) return false;
    return true;
  }
  bool operator!=(const Shape& o) const { return !(*this == o); }

  std::string to_string() const {
    std::string s = "[";
    for (std::size_t i = 0; i < rank_; ++i) s += (i ? "," : "") + std::to_string(dims_[i]);
    return s + "]";
  }

 private:
  std::array<std::size_t, 4> dims_ = {};
  std::size_t rank_ = 0;
};

/// Dense row-major float tensor with value semantics.
class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(Shape shape) : shape_(shape), data_(shape.numel(), 0.0f) {}
  Tensor(Shape shape, float fill) : shape_(shape), data_(shape.numel(), fill) {}

  static Tensor zeros(Shape shape) { return Tensor(shape); }
  static Tensor full(Shape shape, float v) { return Tensor(shape, v); }
  static Tensor randn(Shape shape, Rng& rng, float stddev = 1.0f) {
    Tensor t(shape);
    for (auto& v : t.data_) v = static_cast<float>(rng.normal(0.0, stddev));
    return t;
  }
  static Tensor uniform(Shape shape, Rng& rng, float lo, float hi) {
    Tensor t(shape);
    for (auto& v : t.data_) v = static_cast<float>(rng.uniform(lo, hi));
    return t;
  }
  /// Kaiming-He normal initialization for a conv/linear weight with the given
  /// fan-in (He et al., the init the paper's ResNet-18 uses).
  static Tensor kaiming(Shape shape, std::size_t fan_in, Rng& rng) {
    return randn(shape, rng, std::sqrt(2.0f / static_cast<float>(fan_in)));
  }

  const Shape& shape() const { return shape_; }
  std::size_t numel() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  std::vector<float>& vec() { return data_; }
  const std::vector<float>& vec() const { return data_; }

  float& operator[](std::size_t i) { return data_[i]; }
  float operator[](std::size_t i) const { return data_[i]; }

  // Multi-dimensional accessors (debug builds may add range checks).
  float& at(std::size_t i, std::size_t j) { return data_[i * shape_[1] + j]; }
  float at(std::size_t i, std::size_t j) const { return data_[i * shape_[1] + j]; }
  float& at(std::size_t n, std::size_t c, std::size_t h, std::size_t w) {
    return data_[((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w];
  }
  float at(std::size_t n, std::size_t c, std::size_t h, std::size_t w) const {
    return data_[((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w];
  }

  /// Reinterpret with a new shape of identical element count.
  Tensor reshaped(Shape s) const {
    if (s.numel() != numel()) throw std::invalid_argument("reshape: element count mismatch");
    Tensor t = *this;
    t.shape_ = s;
    return t;
  }

  /// Rebind to a new shape in place, reusing the existing storage. Capacity
  /// only ever grows, so once a buffer has seen its peak shape, later
  /// resizes never touch the heap — the arena/slot steady-state contract.
  /// Element values are unspecified after a resize that changes numel().
  void resize(const Shape& s) {
    shape_ = s;
    data_.resize(s.numel());
  }

  /// Elements of backing storage actually held (>= numel()).
  std::size_t capacity() const { return data_.capacity(); }

  Tensor& operator+=(const Tensor& o) { return zip(o, [](float a, float b) { return a + b; }); }
  Tensor& operator-=(const Tensor& o) { return zip(o, [](float a, float b) { return a - b; }); }
  Tensor& operator*=(float s) {
    for (auto& v : data_) v *= s;
    return *this;
  }

  template <typename Fn>
  Tensor& apply(Fn&& fn) {
    for (auto& v : data_) v = fn(v);
    return *this;
  }

  void fill(float v) {
    for (auto& x : data_) x = v;
  }

 private:
  template <typename Fn>
  Tensor& zip(const Tensor& o, Fn&& fn) {
    if (o.numel() != numel()) throw std::invalid_argument("tensor op: shape mismatch");
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] = fn(data_[i], o.data_[i]);
    return *this;
  }

  Shape shape_;
  std::vector<float> data_;
};

}  // namespace pdnn::tensor
