// train_common.hpp — shared setup for the training benches (Table III,
// Fig. 2, ablations): a laptop-scale stand-in for the paper's Cifar-10 /
// ImageNet experiments (see DESIGN.md §2 for the substitution rationale).
#pragma once

#include <cstdio>
#include <memory>
#include <string>

#include "data/synthetic.hpp"
#include "nn/resnet.hpp"
#include "quant/policy.hpp"
#include "train/trainer.hpp"

namespace bench {

using namespace pdnn;

struct TaskConfig {
  data::SynthCifarConfig data;
  nn::ResNetConfig net;
  train::TrainerConfig train;
};

/// The synth-Cifar-10 task: 10 classes, 16x16, ResNet-8 (paper: Cifar-10,
/// 32x32, Cifar-ResNet-18; scaled for a single CPU core).
inline TaskConfig synth_cifar_task(std::size_t epochs = 14) {
  TaskConfig t;
  t.data.classes = 10;
  t.data.train_per_class = 90;
  t.data.test_per_class = 50;
  t.data.height = t.data.width = 16;
  t.data.noise = 0.75f;  // hard enough that FP32 stays below ceiling
  t.data.seed = 2024;

  t.net.blocks_per_stage = 1;  // ResNet-8
  t.net.base_channels = 8;
  t.net.classes = 10;
  t.net.bn_momentum = 0.3f;  // few steps/epoch at this scale: track faster

  t.train.epochs = epochs;
  t.train.batch_size = 50;
  // Paper (Cifar-10): SGD momentum 0.9, lr 0.1, /10 at fixed epochs.
  t.train.sgd = {.lr = 0.1f, .momentum = 0.9f, .weight_decay = 1e-4f};
  t.train.schedule = {.base_lr = 0.1f,
                      .drop_epochs = {epochs * 3 / 5, epochs * 4 / 5},
                      .factor = 10.0f};
  t.train.warmup_epochs = 1;  // paper: 1 epoch for Cifar-10
  return t;
}

/// A harder 20-class task standing in for the paper's ImageNet run (posit-16
/// everywhere). Paper: ResNet-18 / ImageNet / 5 warm-up epochs.
inline TaskConfig synth_imagenet_proxy_task(std::size_t epochs = 12) {
  TaskConfig t;
  t.data.classes = 20;
  t.data.train_per_class = 60;
  t.data.test_per_class = 25;
  t.data.height = t.data.width = 16;
  t.data.noise = 0.85f;
  t.data.seed = 777;

  t.net.blocks_per_stage = 1;
  t.net.base_channels = 8;
  t.net.classes = 20;
  t.net.bn_momentum = 0.3f;

  t.train.epochs = epochs;
  t.train.batch_size = 50;
  t.train.sgd = {.lr = 0.1f, .momentum = 0.9f, .weight_decay = 1e-4f};
  t.train.schedule = {.base_lr = 0.1f, .drop_epochs = {epochs * 2 / 3}, .factor = 10.0f};
  t.train.warmup_epochs = 2;  // scaled-down analogue of the paper's 5
  return t;
}

struct RunResult {
  float best_test_acc = 0.0f;
  float final_test_acc = 0.0f;
  std::vector<train::EpochResult> history;
};

/// Trains one network on the task. If `quant_cfg` is non-null, runs the
/// paper's flow: FP32 warm-up, then posit quantization at every Fig. 3 hook.
inline RunResult run_training(const TaskConfig& task, const quant::QuantConfig* quant_cfg,
                              std::uint64_t seed = 7, bool verbose = false,
                              const std::function<void(std::size_t, nn::Module&)>& epoch_hook = {}) {
  tensor::Rng rng(seed);
  auto net = nn::cifar_resnet(task.net, rng);
  const auto data = data::make_synth_cifar(task.data);

  std::unique_ptr<quant::QuantPolicy> policy;
  train::TrainerConfig tc = task.train;
  tc.shuffle_seed = seed;
  tc.verbose = verbose;
  tc.on_epoch_end = epoch_hook;
  if (quant_cfg != nullptr) {
    policy = std::make_unique<quant::QuantPolicy>(*quant_cfg);
    quant::QuantPolicy* raw = policy.get();
    tc.policy = raw;
    tc.on_warmup_end = [raw](nn::Module& n) {
      raw->calibrate(n);
      raw->activate();
    };
  } else {
    tc.warmup_epochs = 0;  // pure FP32 baseline
  }

  train::Trainer trainer(*net, tc);
  RunResult r;
  r.history = trainer.fit(data.train.images, data.train.labels, data.test.images, data.test.labels);
  for (const auto& e : r.history) r.best_test_acc = std::max(r.best_test_acc, e.test_acc);
  r.final_test_acc = r.history.back().test_acc;
  return r;
}

/// Variant taking an arbitrary PrecisionPolicy (e.g. quant::FpPolicy for the
/// FP16/FP8 baselines). `on_warmup` should activate/calibrate the policy.
inline RunResult run_training_policy(const TaskConfig& task, nn::PrecisionPolicy* policy,
                                     const std::function<void(nn::Module&)>& on_warmup,
                                     std::uint64_t seed = 7) {
  tensor::Rng rng(seed);
  auto net = nn::cifar_resnet(task.net, rng);
  const auto data = data::make_synth_cifar(task.data);

  train::TrainerConfig tc = task.train;
  tc.shuffle_seed = seed;
  tc.policy = policy;
  tc.on_warmup_end = on_warmup;
  train::Trainer trainer(*net, tc);
  RunResult r;
  r.history = trainer.fit(data.train.images, data.train.labels, data.test.images, data.test.labels);
  for (const auto& e : r.history) r.best_test_acc = std::max(r.best_test_acc, e.test_acc);
  r.final_test_acc = r.history.back().test_acc;
  return r;
}

}  // namespace bench
