// one_layer_session.hpp — a single Linear or Conv2d holding given weights,
// compiled into a PositSession: the per-layer form the engine tests compare
// bit for bit against posit_linear_reference / posit_conv2d_reference.
#pragma once

#include <memory>
#include <utility>

#include "nn/layers.hpp"
#include "quant/posit_session.hpp"

namespace pdnn::quant::testing {

/// Sequential{Linear} with weight `w` [out, in] and `bias` [out]; an empty
/// bias becomes zeros (nn::Linear always carries one, and x + 0 = x in posit).
inline std::unique_ptr<nn::Sequential> linear_net(const tensor::Tensor& w,
                                                  const tensor::Tensor& bias) {
  tensor::Rng rng(1);  // init is overwritten below
  auto fc = std::make_unique<nn::Linear>("fc", w.shape()[1], w.shape()[0], rng);
  fc->weight().value = w;
  fc->weight().mark_updated();
  if (bias.numel() > 0) {
    fc->bias().value = bias;
    fc->bias().mark_updated();
  }
  auto net = std::make_unique<nn::Sequential>("one");
  net->add(std::move(fc));
  return net;
}

/// Sequential{Conv2d} over `g` with weight `w` [O, I, KH, KW]; an empty
/// `bias` builds the conv without one.
inline std::unique_ptr<nn::Sequential> conv_net(const tensor::Conv2dGeom& g,
                                                const tensor::Tensor& w,
                                                const tensor::Tensor& bias) {
  tensor::Rng rng(1);
  const bool with_bias = bias.numel() > 0;
  auto conv = std::make_unique<nn::Conv2d>("conv", g.in_c, g.out_c, g.kernel, g.stride, g.pad,
                                           rng, with_bias, g.kernel_w);
  conv->weight().value = w;
  conv->weight().mark_updated();
  if (with_bias) {
    conv->bias().value = bias;
    conv->bias().mark_updated();
  }
  auto net = std::make_unique<nn::Sequential>("one");
  net->add(std::move(conv));
  return net;
}

/// One compile + run of `net` at a single (spec, mode); returns a copy.
inline tensor::Tensor run_session(nn::Sequential& net, const tensor::Tensor& x,
                                  const posit::PositSpec& spec, AccumMode mode) {
  PositSession session = PositSession::compile(net, SessionConfig{spec, mode});
  return session.run(x);
}

}  // namespace pdnn::quant::testing
