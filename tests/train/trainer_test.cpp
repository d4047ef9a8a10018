// trainer_test.cpp — train::Trainer determinism and correctness: trained
// parameters bit-identical across 1/2/4 workers at fixed micro-batch,
// single-shard steps bit-identical to the manual eager loop (in FP32 and
// under the Fig. 3 precision policies), shard-count metrics aggregation,
// fit()'s epoch loop, input-validation throws, and the persistent worker
// pool (shard exceptions propagate, steady-state steps create no threads).
#include <dirent.h>
#include <gtest/gtest.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <functional>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exec/thread_budget.hpp"
#include "nn/layers.hpp"
#include "nn/optimizer.hpp"
#include "nn/resnet.hpp"
#include "quant/float_policy.hpp"
#include "quant/policy.hpp"
#include "tensor/ops.hpp"
#include "train/trainer.hpp"

namespace pdnn::train {
namespace {

using tensor::Rng;
using tensor::Shape;
using tensor::Tensor;

bool bit_identical(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         (a.numel() == 0 || std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0);
}

bool bit_identical(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

void collect_bns(nn::Module& m, std::vector<nn::BatchNorm2d*>& out) {
  if (auto* bn = dynamic_cast<nn::BatchNorm2d*>(&m)) out.push_back(bn);
  for (nn::Module* c : m.children()) collect_bns(*c, out);
}

void expect_nets_identical(nn::Module& a, nn::Module& b, const std::string& ctx) {
  const std::vector<nn::Param*> pa = a.params();
  const std::vector<nn::Param*> pb = b.params();
  ASSERT_EQ(pa.size(), pb.size()) << ctx;
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_TRUE(bit_identical(pa[i]->value, pb[i]->value))
        << ctx << ": param " << i << " (" << pa[i]->name << ") differs";
  }
  std::vector<nn::BatchNorm2d*> ba, bb;
  collect_bns(a, ba);
  collect_bns(b, bb);
  ASSERT_EQ(ba.size(), bb.size()) << ctx;
  for (std::size_t i = 0; i < ba.size(); ++i) {
    EXPECT_TRUE(bit_identical(ba[i]->running_mean(), bb[i]->running_mean()))
        << ctx << ": bn " << i << " running_mean differs";
    EXPECT_TRUE(bit_identical(ba[i]->running_var(), bb[i]->running_var()))
        << ctx << ": bn " << i << " running_var differs";
  }
}

std::unique_ptr<nn::Sequential> seeded_cnn(std::uint64_t seed) {
  Rng rng(seed);
  nn::Sequential* net = new nn::Sequential("net");
  net->add(std::make_unique<nn::Conv2d>("conv", 2, 4, 3, 1, 1, rng, /*with_bias=*/true));
  net->add(std::make_unique<nn::BatchNorm2d>("bn", 4));
  net->add(std::make_unique<nn::ReLU>("relu"));
  net->add(std::make_unique<nn::ResidualBlock>("res", 4, 4, 1, rng));
  net->add(std::make_unique<nn::MaxPool2x2>("pool"));
  net->add(std::make_unique<nn::GlobalAvgPool>("gap"));
  net->add(std::make_unique<nn::Linear>("head", 4, 3, rng));
  return std::unique_ptr<nn::Sequential>(net);
}

TEST(TrainTrainer, ParamsBitIdenticalAcrossWorkerCounts) {
  // Three identically seeded nets; only `workers` differs. The micro-batch
  // (2 samples) defines the numerics, so the trained bits must agree.
  auto n1 = seeded_cnn(21), n2 = seeded_cnn(21), n4 = seeded_cnn(21);

  Rng data_rng(500);
  const Tensor bx = Tensor::randn({8, 2, 8, 8}, data_rng);
  const std::vector<int> by = {0, 1, 2, 0, 1, 2, 0, 1};

  const auto train_with = [&](nn::Sequential& net, std::size_t workers) {
    TrainerConfig cfg;
    cfg.batch_size = 8;
    cfg.micro_batch = 2;
    cfg.workers = workers;
    cfg.sgd.lr = 0.05f;
    Trainer t(net, cfg);
    StepStats last;
    for (int s = 0; s < 3; ++s) last = t.step(bx, by);
    return last;
  };
  const StepStats s1 = train_with(*n1, 1);
  const StepStats s2 = train_with(*n2, 2);
  const StepStats s4 = train_with(*n4, 4);

  expect_nets_identical(*n1, *n2, "1 vs 2 workers");
  expect_nets_identical(*n1, *n4, "1 vs 4 workers");
  EXPECT_EQ(s1.correct, s2.correct);
  EXPECT_EQ(s1.correct, s4.correct);
  EXPECT_DOUBLE_EQ(s1.loss_sum, s2.loss_sum);
  EXPECT_DOUBLE_EQ(s1.loss_sum, s4.loss_sum);
  EXPECT_EQ(s1.count, 8u);
}

TEST(TrainTrainer, SingleShardStepBitIdenticalToEagerLoop) {
  // micro_batch == batch_size (one shard): every expression matches the
  // manual eager loop — same loss, same gradients, same SGD update, same BN
  // running stats.
  auto eager_net = seeded_cnn(33);
  auto plan_net = seeded_cnn(33);

  Rng data_rng(600);
  const Tensor bx = Tensor::randn({4, 2, 8, 8}, data_rng);
  const std::vector<int> by = {2, 0, 1, 2};

  nn::SgdConfig sgd;
  sgd.lr = 0.1f;
  sgd.weight_decay = 5e-4f;
  nn::SgdMomentum opt(eager_net->params(), sgd);

  TrainerConfig cfg;
  cfg.batch_size = 4;
  cfg.workers = 1;
  cfg.sgd = sgd;
  Trainer trainer(*plan_net, cfg);

  for (int s = 0; s < 3; ++s) {
    opt.zero_grad();
    const Tensor logits = eager_net->forward(bx, /*training=*/true);
    Tensor dlogits;
    const float eager_loss = tensor::cross_entropy(logits, by, &dlogits);
    eager_net->backward(dlogits);
    opt.step();

    const StepStats st = trainer.step(bx, by);
    EXPECT_FLOAT_EQ(static_cast<float>(st.loss_sum / static_cast<double>(st.count)), eager_loss)
        << "step " << s;
    expect_nets_identical(*eager_net, *plan_net, "after step " + std::to_string(s));
  }
}

/// Biased conv, BN, a downsampling residual block and a linear head: every
/// hook site of Fig. 3 (conv/linear/BN, the block's join) on one net.
std::unique_ptr<nn::Sequential> downsampling_cnn(std::uint64_t seed) {
  Rng rng(seed);
  nn::Sequential* net = new nn::Sequential("net");
  net->add(std::make_unique<nn::Conv2d>("conv", 2, 4, 3, 1, 1, rng, /*with_bias=*/true));
  net->add(std::make_unique<nn::BatchNorm2d>("bn", 4));
  net->add(std::make_unique<nn::ReLU>("relu"));
  net->add(std::make_unique<nn::ResidualBlock>("res", 4, 6, /*stride=*/2, rng));
  net->add(std::make_unique<nn::GlobalAvgPool>("gap"));
  net->add(std::make_unique<nn::Linear>("head", 6, 3, rng));
  return std::unique_ptr<nn::Sequential>(net);
}

/// The three policies the compiled trainer must match eager under, each with
/// a factory so the eager and plan sides own separate instances.
std::vector<std::pair<std::string, std::function<std::unique_ptr<nn::PrecisionPolicy>()>>>
policy_cases() {
  quant::QuantConfig dynamic_tz = quant::QuantConfig::cifar8();
  dynamic_tz.scale_mode = quant::ScaleMode::kDynamic;
  dynamic_tz.round_mode = posit::RoundMode::kTowardZero;
  quant::QuantConfig calibrated_ne = quant::QuantConfig::cifar8();
  calibrated_ne.scale_mode = quant::ScaleMode::kCalibrated;
  calibrated_ne.round_mode = posit::RoundMode::kNearestEven;
  return {
      {"posit dynamic/toward-zero",
       [=] { return std::make_unique<quant::QuantPolicy>(dynamic_tz); }},
      {"posit calibrated/nearest-even",
       [=] { return std::make_unique<quant::QuantPolicy>(calibrated_ne); }},
      {"fp8", [] { return std::make_unique<quant::FpPolicy>(quant::FpPolicyConfig::fp8_training()); }},
  };
}

/// The warm-up-end action: calibrate a posit policy, then activate.
void end_warmup(nn::PrecisionPolicy& policy, nn::Module& net) {
  if (auto* q = dynamic_cast<quant::QuantPolicy*>(&policy)) {
    q->calibrate(net);
    q->activate();
  } else {
    dynamic_cast<quant::FpPolicy&>(policy).activate();
  }
}

TEST(TrainTrainer, PolicyStepsBitIdenticalToEagerLoopAcrossWarmupFlip) {
  // One FP32 warm-up step, the warm-up-end flip, then three policy steps: the
  // single-shard plan must track the manual eager loop (set_policy +
  // SgdMomentum with the policy) bit for bit, BN running stats included.
  Rng data_rng(650);
  const Tensor bx = Tensor::randn({4, 2, 8, 8}, data_rng);
  const std::vector<int> by = {1, 0, 2, 1};
  nn::SgdConfig sgd;
  sgd.lr = 0.1f;
  sgd.weight_decay = 5e-4f;

  for (const auto& [name, make_policy] : policy_cases()) {
    auto eager_net = downsampling_cnn(77);
    auto plan_net = downsampling_cnn(77);
    auto eager_policy = make_policy();
    auto plan_policy = make_policy();
    eager_net->set_policy(eager_policy.get());
    nn::SgdMomentum opt(eager_net->params(), sgd, eager_policy.get());

    TrainerConfig cfg;
    cfg.batch_size = 4;
    cfg.sgd = sgd;
    cfg.policy = plan_policy.get();
    Trainer trainer(*plan_net, cfg);

    for (int s = 0; s < 4; ++s) {
      if (s == 1) {
        end_warmup(*eager_policy, *eager_net);
        end_warmup(*plan_policy, *plan_net);
      }
      opt.zero_grad();
      const Tensor logits = eager_net->forward(bx, /*training=*/true);
      Tensor dlogits;
      const float eager_loss = tensor::cross_entropy(logits, by, &dlogits);
      eager_net->backward(dlogits);
      opt.step();

      const StepStats st = trainer.step(bx, by);
      const std::string ctx = name + ", step " + std::to_string(s);
      EXPECT_EQ(static_cast<float>(st.loss_sum / static_cast<double>(st.count)), eager_loss) << ctx;
      expect_nets_identical(*eager_net, *plan_net, ctx);
    }
    // evaluate() runs the compiled eval forward under the same hooks.
    const Tensor eager_eval = eager_net->forward(bx, /*training=*/false);
    EXPECT_EQ(trainer.evaluate(bx, by),
              static_cast<float>(tensor::count_correct(eager_eval, by)) / 4.0f)
        << name;
  }
}

TEST(TrainTrainer, PolicyNeedsOneWorkerAndOneShard) {
  Rng rng(68);
  auto net = nn::mlp(4, 8, 2, 1, rng);
  quant::QuantPolicy policy;
  TrainerConfig cfg;
  cfg.batch_size = 8;
  cfg.policy = &policy;

  TrainerConfig two_workers = cfg;
  two_workers.workers = 2;
  EXPECT_THROW(Trainer(*net, two_workers), std::invalid_argument);
  TrainerConfig sharded = cfg;
  sharded.micro_batch = 4;
  EXPECT_THROW(Trainer(*net, sharded), std::invalid_argument);

  TrainerConfig one_shard = cfg;
  one_shard.micro_batch = 8;
  EXPECT_NO_THROW(Trainer(*net, one_shard));
  EXPECT_NO_THROW(Trainer(*net, cfg));
}

TEST(TrainTrainer, UnevenTailShardAndMlpInputs) {
  // 5 samples at micro_batch 2 -> shards of 2, 2, 1; rank-2 (MLP) batches
  // shard through the same extract_span path.
  Rng rng(44);
  auto n1 = nn::mlp(6, 10, 3, 2, rng);
  Rng rng2(44);
  auto n2 = nn::mlp(6, 10, 3, 2, rng2);

  Rng data_rng(700);
  const Tensor bx = Tensor::randn({5, 6}, data_rng);
  const std::vector<int> by = {0, 1, 2, 1, 0};

  const auto train_with = [&](nn::Sequential& net, std::size_t workers) {
    TrainerConfig cfg;
    cfg.batch_size = 6;
    cfg.micro_batch = 2;
    cfg.workers = workers;
    Trainer t(net, cfg);
    for (int s = 0; s < 2; ++s) t.step(bx, by);
  };
  train_with(*n1, 1);
  train_with(*n2, 3);
  expect_nets_identical(*n1, *n2, "1 vs 3 workers, uneven tail");
}

TEST(TrainTrainer, FitRunsEpochsAndEvaluates) {
  Rng rng(55);
  auto net = nn::mlp(4, 8, 2, 2, rng);

  Rng data_rng(800);
  const std::size_t n = 24;
  Tensor xs({n, 4});
  std::vector<int> ys(n);
  for (std::size_t i = 0; i < n; ++i) {
    const int cls = static_cast<int>(i % 2);
    for (std::size_t j = 0; j < 4; ++j) {
      xs.at(i, j) = static_cast<float>(data_rng.normal(cls == 0 ? -1.0 : 1.0, 0.25));
    }
    ys[i] = cls;
  }

  TrainerConfig cfg;
  cfg.epochs = 4;
  cfg.batch_size = 8;
  cfg.micro_batch = 4;
  cfg.workers = 2;
  cfg.sgd.lr = 0.1f;
  cfg.schedule.base_lr = 0.1f;
  cfg.schedule.drop_epochs = {3};
  Trainer trainer(*net, cfg);
  const std::vector<EpochResult> history = trainer.fit(xs, ys, xs, ys);

  ASSERT_EQ(history.size(), 4u);
  EXPECT_FLOAT_EQ(history[0].lr, 0.1f);
  EXPECT_FLOAT_EQ(history[3].lr, 0.01f);
  // A linearly separable toy set: training must reach high accuracy.
  EXPECT_GE(history.back().test_acc, 0.9f);
  EXPECT_GE(trainer.evaluate(xs, ys), 0.9f);
  EXPECT_GT(trainer.arena_bytes(), 0u);
  EXPECT_EQ(trainer.workers(), 2u);
}

TEST(TrainTrainer, DegenerateBatchesThrow) {
  Rng rng(66);
  auto net = nn::mlp(4, 8, 2, 2, rng);
  TrainerConfig cfg;
  cfg.batch_size = 4;
  Trainer t(*net, cfg);

  EXPECT_THROW(t.step(Tensor(), {}), std::invalid_argument);
  EXPECT_THROW(t.step(Tensor::zeros({0, 4}), {}), std::invalid_argument);
  EXPECT_THROW(t.step(Tensor::zeros({2, 4}), {0}), std::invalid_argument);
  EXPECT_THROW(t.step(Tensor::zeros({8, 4}), std::vector<int>(8, 0)), std::invalid_argument);

  TrainerConfig bad;
  bad.batch_size = 0;
  EXPECT_THROW(Trainer(*net, bad), std::invalid_argument);
}

TEST(TrainTrainer, FitKeepsInputRank) {
  // A rank-3 set must gather rank-3 batches (whole rows of numel/N floats),
  // which the MLP's plan then rejects by shape — not [count, shape[1]]
  // batches filled past their end.
  Rng rng(69);
  auto net = nn::mlp(2, 8, 2, 1, rng);
  TrainerConfig cfg;
  cfg.epochs = 1;
  cfg.batch_size = 4;
  Trainer t(*net, cfg);
  const Tensor x = Tensor::zeros({8, 2, 3});
  const std::vector<int> y(8, 0);
  EXPECT_THROW(t.fit(x, y, x, y), std::invalid_argument);
}

TEST(TrainTrainer, FitAndEvaluateRejectEmptySets) {
  Rng rng(70);
  auto net = nn::mlp(4, 8, 2, 1, rng);
  TrainerConfig cfg;
  cfg.epochs = 1;
  cfg.batch_size = 4;
  Trainer t(*net, cfg);
  const Tensor x = Tensor::zeros({8, 4});
  const std::vector<int> y(8, 0);
  const Tensor empty = Tensor::zeros({0, 4});
  EXPECT_THROW(t.fit(empty, {}, x, y), std::invalid_argument);
  EXPECT_THROW(t.fit(Tensor(), {}, x, y), std::invalid_argument);
  EXPECT_THROW(t.fit(x, y, empty, {}), std::invalid_argument);
  EXPECT_THROW(t.evaluate(empty, {}), std::invalid_argument);
}

TEST(TrainTrainer, FitAndEvaluateRejectLabelCountMismatch) {
  Rng rng(71);
  auto net = nn::mlp(4, 8, 2, 1, rng);
  TrainerConfig cfg;
  cfg.epochs = 1;
  cfg.batch_size = 4;
  Trainer t(*net, cfg);
  const Tensor x = Tensor::zeros({8, 4});
  const std::vector<int> y(8, 0);
  const std::vector<int> short_y(5, 0);
  EXPECT_THROW(t.fit(x, short_y, x, y), std::invalid_argument);
  EXPECT_THROW(t.fit(x, y, x, short_y), std::invalid_argument);
  EXPECT_THROW(t.evaluate(x, short_y), std::invalid_argument);
}

TEST(TrainTrainer, StepErrorOnAnyWorkerThrowsAndTrainerStaysUsable) {
  // Every shard of a batch the plan rejects throws on its worker; step()
  // must rethrow (not abort) and leave nothing half-applied, so the next
  // good step matches a fresh trainer's first step bit for bit.
  const auto check = [](nn::Sequential& net, nn::Sequential& fresh_net, const Tensor& bad_x,
                        const Tensor& good_x, const std::vector<int>& y,
                        const std::string& ctx) {
    TrainerConfig cfg;
    cfg.batch_size = 8;
    cfg.micro_batch = 4;
    cfg.workers = 2;
    Trainer t(net, cfg);
    EXPECT_THROW(t.step(bad_x, y), std::invalid_argument) << ctx;
    t.step(good_x, y);
    Trainer fresh(fresh_net, cfg);
    fresh.step(good_x, y);
    expect_nets_identical(net, fresh_net, ctx);
  };
  Rng rng(72), rng2(72);
  auto mlp = nn::mlp(4, 8, 2, 2, rng);
  auto fresh_mlp = nn::mlp(4, 8, 2, 2, rng2);
  Rng data_rng(900);
  check(*mlp, *fresh_mlp, Tensor::zeros({8, 5}), Tensor::randn({8, 4}, data_rng),
        std::vector<int>(8, 0), "mlp");
  // A CNN with BatchNorm: running stats must not fold a failed step.
  auto cnn = seeded_cnn(23), fresh_cnn = seeded_cnn(23);
  check(*cnn, *fresh_cnn, Tensor::zeros({8, 3, 8, 8}), Tensor::randn({8, 2, 8, 8}, data_rng),
        {0, 1, 2, 0, 1, 2, 0, 1}, "cnn");

  // Teardown joins cleanly with no step run, and after a throwing last step.
  TrainerConfig pool;
  pool.batch_size = 8;
  pool.micro_batch = 2;
  pool.workers = 4;
  { Trainer idle(*mlp, pool); }
  {
    Trainer t(*mlp, pool);
    EXPECT_THROW(t.step(Tensor::zeros({8, 5}), std::vector<int>(8, 0)), std::invalid_argument);
  }
}

TEST(TrainTrainer, OutOfRangeLabelThrowsAndTrainerStaysUsable) {
  // Labels are validated against the logits width inside each shard's loss:
  // a bad label on either worker's shard (micro-batch 4: rows 0-3 run on the
  // caller, rows 4-7 on the pool thread) throws from step(), and nothing of
  // the failed step is applied.
  TrainerConfig cfg;
  cfg.batch_size = 8;
  cfg.micro_batch = 4;
  cfg.workers = 2;
  Rng rng(74), rng2(74);
  auto net = nn::mlp(4, 8, 3, 1, rng);
  auto fresh_net = nn::mlp(4, 8, 3, 1, rng2);
  Rng data_rng(901);
  const Tensor x = Tensor::randn({8, 4}, data_rng);
  const std::vector<int> good{0, 1, 2, 0, 1, 2, 0, 1};
  Trainer t(*net, cfg);
  std::vector<int> bad = good;
  bad[6] = 3;  // == classes, on the pool thread's shard
  EXPECT_THROW(t.step(x, bad), std::invalid_argument);
  bad = good;
  bad[1] = -1;  // on the caller's shard
  EXPECT_THROW(t.step(x, bad), std::invalid_argument);
  t.step(x, good);
  Trainer fresh(*fresh_net, cfg);
  fresh.step(x, good);
  expect_nets_identical(*net, *fresh_net, "after rejected labels");
}

/// The kernel thread ids of this process; empty when /proc is absent.
std::set<long> task_ids() {
  std::set<long> ids;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return ids;
  while (const dirent* e = readdir(dir)) {
    if (e->d_name[0] != '.') ids.insert(std::strtol(e->d_name, nullptr, 10));
  }
  closedir(dir);
  return ids;
}

TEST(TrainTrainer, SteadyStateStepCreatesNoThreads) {
  if (task_ids().empty()) GTEST_SKIP() << "/proc/self/task is not available";
  // Pin the caller's team so the worker share (4 / 2) differs from it.
  exec::ScopedOmpThreads team(4);
  auto net = seeded_cnn(24);
  TrainerConfig cfg;
  cfg.batch_size = 8;
  cfg.micro_batch = 2;
  cfg.workers = 2;
  Trainer t(*net, cfg);
  Rng data_rng(910);
  const Tensor bx = Tensor::randn({8, 2, 8, 8}, data_rng);
  const std::vector<int> by = {0, 1, 2, 0, 1, 2, 0, 1};

  t.step(bx, by);  // first step: worker and OpenMP pools settle
  const std::set<long> settled = task_ids();

  // Sample the thread list while the steps run: a thread that a step
  // creates and joins again would not show in the counts after it.
  std::atomic<bool> done{false};
  std::set<long> seen;
  std::thread sampler([&] {
    const long self = static_cast<long>(syscall(SYS_gettid));
    while (!done.load()) {
      for (long id : task_ids()) {
        if (id != self) seen.insert(id);
      }
    }
  });
  for (int s = 0; s < 10; ++s) {
    const int before = exec::omp_max_threads();
    t.step(bx, by);
    EXPECT_EQ(exec::omp_max_threads(), before) << "step " << s;
  }
  done.store(true);
  sampler.join();

  EXPECT_EQ(task_ids().size(), settled.size());
  for (long id : seen) EXPECT_EQ(settled.count(id), 1u) << "thread " << id << " appeared";
}

}  // namespace
}  // namespace pdnn::train
