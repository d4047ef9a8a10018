// layers.hpp — the layer zoo: Conv2d, BatchNorm2d, ReLU, Linear, pooling,
// Sequential, and the ResNet residual block.
#pragma once

#include <cstdint>

#include "nn/module.hpp"
#include "tensor/ops.hpp"

namespace pdnn::nn {

/// 2-d convolution. Bias defaults off (the paper's ResNets put BN after every
/// conv); pass with_bias=true for a per-output-channel additive bias.
/// `kernel` is the window height; `kernel_w` selects a rectangular
/// kernel x kernel_w window, with 0 (the default) meaning square — the same
/// convention as tensor::Conv2dGeom.
class Conv2d final : public Module {
 public:
  Conv2d(std::string name, std::size_t in_c, std::size_t out_c, std::size_t kernel, std::size_t stride,
         std::size_t pad, tensor::Rng& rng, bool with_bias = false, std::size_t kernel_w = 0);

  tensor::Tensor forward(const tensor::Tensor& x, bool training) override;
  tensor::Tensor backward(const tensor::Tensor& grad_out) override;
  std::vector<Param*> params() override {
    if (with_bias_) return {&weight_, &bias_};
    return {&weight_};
  }

  Param& weight() { return weight_; }
  Param& bias() { return bias_; }
  bool has_bias() const { return with_bias_; }
  std::size_t in_channels() const { return in_c_; }
  std::size_t out_channels() const { return out_c_; }
  std::size_t kernel() const { return kernel_; }
  /// Window width; equals kernel() for square windows.
  std::size_t kernel_w() const { return kernel_w_ != 0 ? kernel_w_ : kernel_; }
  std::size_t stride() const { return stride_; }
  std::size_t pad() const { return pad_; }

 private:
  Param weight_;
  Param bias_;
  bool with_bias_ = false;
  std::size_t in_c_, out_c_, kernel_, stride_, pad_, kernel_w_;
  tensor::Tensor cached_input_;     // A^{l-1}_p
  tensor::Tensor cached_qweight_;   // W_p used in forward, reused in backward
  tensor::Conv2dGeom geom_;
};

/// Batch normalization over N,H,W per channel.
class BatchNorm2d final : public Module {
 public:
  BatchNorm2d(std::string name, std::size_t channels, float eps = 1e-5f, float momentum = 0.1f);

  tensor::Tensor forward(const tensor::Tensor& x, bool training) override;
  tensor::Tensor backward(const tensor::Tensor& grad_out) override;
  std::vector<Param*> params() override { return {&gamma_, &beta_}; }

  Param& gamma() { return gamma_; }
  Param& beta() { return beta_; }
  float eps() const { return eps_; }
  const std::vector<float>& running_mean() const { return running_mean_; }
  const std::vector<float>& running_var() const { return running_var_; }
  /// Version of the running statistics, drawn from the same monotonic
  /// counter as Param::version and bumped on every training forward (the
  /// only writer of running_mean_/running_var_). Backends that bake the
  /// stats into derived state (BN-folded conv panels, posit BN scale codes)
  /// key that state on this exactly like a Param version, so a training
  /// step between serves re-derives it.
  std::uint64_t stats_version() const { return stats_version_; }
  float momentum() const { return momentum_; }

  /// Trainer hook: fold one training batch's per-channel statistics into the
  /// running estimates with the module's EMA momentum (the same expression
  /// the eager training forward uses) and bump stats_version(). The compiled
  /// training backend computes batch stats into backend-owned state — clones
  /// must not race on the shared module — and the trainer commits them
  /// serially here, one call per micro-batch in shard order. `mean`/`var`
  /// must hold channels() values.
  void update_running_stats(const float* mean, const float* var);
  /// Checkpoint-load hook: overwrite the running estimates (`mean`/`var` hold
  /// channels() values) and bump stats_version().
  void set_running_stats(const float* mean, const float* var);
  std::size_t channels() const { return channels_; }

 private:
  Param gamma_, beta_;
  std::size_t channels_;
  float eps_, momentum_;
  std::vector<float> running_mean_, running_var_;
  std::uint64_t stats_version_ = next_param_version();
  // Forward cache.
  tensor::Tensor cached_xhat_;
  std::vector<float> cached_inv_std_;
  tensor::Shape cached_shape_;
};

class ReLU final : public Module {
 public:
  explicit ReLU(std::string name) : Module(std::move(name)) {}
  tensor::Tensor forward(const tensor::Tensor& x, bool training) override;
  tensor::Tensor backward(const tensor::Tensor& grad_out) override;

 private:
  // uint8 (not vector<bool>): distinct elements must be writable concurrently
  // from the threaded elementwise loops.
  std::vector<std::uint8_t> mask_;
};

/// Fully connected layer with bias: y = x W^T + b.
class Linear final : public Module {
 public:
  Linear(std::string name, std::size_t in_features, std::size_t out_features, tensor::Rng& rng);

  tensor::Tensor forward(const tensor::Tensor& x, bool training) override;
  tensor::Tensor backward(const tensor::Tensor& grad_out) override;
  std::vector<Param*> params() override { return {&weight_, &bias_}; }

  Param& weight() { return weight_; }
  Param& bias() { return bias_; }
  std::size_t in_features() const { return in_f_; }
  std::size_t out_features() const { return out_f_; }

 private:
  Param weight_, bias_;
  std::size_t in_f_, out_f_;
  tensor::Tensor cached_input_;
  tensor::Tensor cached_qweight_;
};

class MaxPool2x2 final : public Module {
 public:
  explicit MaxPool2x2(std::string name) : Module(std::move(name)) {}
  tensor::Tensor forward(const tensor::Tensor& x, bool training) override;
  tensor::Tensor backward(const tensor::Tensor& grad_out) override;

 private:
  std::vector<std::size_t> argmax_;
  tensor::Shape input_shape_;
};

class GlobalAvgPool final : public Module {
 public:
  explicit GlobalAvgPool(std::string name) : Module(std::move(name)) {}
  tensor::Tensor forward(const tensor::Tensor& x, bool training) override;
  tensor::Tensor backward(const tensor::Tensor& grad_out) override;

 private:
  tensor::Shape input_shape_;
};

/// Runs children in order.
class Sequential final : public Module {
 public:
  explicit Sequential(std::string name) : Module(std::move(name)) {}

  Sequential& add(ModulePtr m) {
    children_.push_back(std::move(m));
    return *this;
  }

  tensor::Tensor forward(const tensor::Tensor& x, bool training) override;
  tensor::Tensor backward(const tensor::Tensor& grad_out) override;
  std::vector<Module*> children() override;

  std::size_t size() const { return children_.size(); }
  Module& child(std::size_t i) { return *children_[i]; }

 private:
  std::vector<ModulePtr> children_;
};

/// Basic ResNet block: conv-bn-relu-conv-bn (+ optional 1x1 downsample) + add,
/// then relu. The post-add activation is quantized (it creates new values).
class ResidualBlock final : public Module {
 public:
  ResidualBlock(std::string name, std::size_t in_c, std::size_t out_c, std::size_t stride,
                tensor::Rng& rng, float bn_momentum = 0.1f);

  tensor::Tensor forward(const tensor::Tensor& x, bool training) override;
  tensor::Tensor backward(const tensor::Tensor& grad_out) override;
  /// Main path (conv1, bn1, relu1, conv2, bn2) then the downsample pair when
  /// present — the order params() has always used.
  std::vector<Module*> children() override;

  // Branch structure, exposed so graph consumers (PositSession::compile) can
  // bind the main and skip paths separately.
  Conv2d& conv1() { return conv1_; }
  BatchNorm2d& bn1() { return bn1_; }
  ReLU& relu1() { return relu1_; }
  Conv2d& conv2() { return conv2_; }
  BatchNorm2d& bn2() { return bn2_; }
  bool has_downsample() const { return down_conv_ != nullptr; }
  Conv2d* down_conv() { return down_conv_.get(); }
  BatchNorm2d* down_bn() { return down_bn_.get(); }

 private:
  Conv2d conv1_;
  BatchNorm2d bn1_;
  ReLU relu1_;
  Conv2d conv2_;
  BatchNorm2d bn2_;
  std::unique_ptr<Conv2d> down_conv_;
  std::unique_ptr<BatchNorm2d> down_bn_;
  std::vector<std::uint8_t> relu_mask_;
};

}  // namespace pdnn::nn
