// trainer.hpp — deterministic data-parallel training on the compiled ExecPlan.
//
// train::Trainer drives exec::FloatBackend's training mode
// (compile_training / train_forward / run_backward) instead of the eager
// Module::forward/backward chain, and shards each batch across worker
// threads. The determinism contract:
//
//   * The NUMERICS ARE DEFINED BY THE MICRO-BATCH, NOT THE WORKER COUNT.
//     A batch of N samples is cut into fixed contiguous shards of
//     `micro_batch` samples ([0,m), [m,2m), ...); shard s is processed by
//     worker s % workers on that worker's private backend (own arena, own
//     gradient accumulators), so shard results are bitwise independent of
//     which worker ran them or when.
//   * Per-shard logit gradients are scaled by n_s / N, making the summed
//     shard gradients the same mean-over-batch loss the eager loop
//     differentiates.
//   * After the join, shard gradients merge by a serial fixed-order tree
//     reduce (G[i] += G[i + stride] for stride = 1, 2, 4, ...) and BN batch
//     statistics fold into the modules' running estimates in shard order —
//     both independent of the worker assignment.
//
//   => Trained parameters are BIT-IDENTICAL for any `workers` value at
//      fixed micro_batch. And with micro_batch == batch_size (one shard,
//      scale n_s/N == 1), the whole step is bit-identical to the manual
//      eager loop (Module::forward/backward + SgdMomentum) on the same
//      batches.
//
// Threads: the constructor starts `workers - 1` persistent threads; the
// caller of step() is worker 0. Workers share one OpenMP budget, the
// constructing thread's omp_get_max_threads(): each opens teams of
// exec::omp_share(budget, workers) threads (see exec/thread_budget.hpp).
// The pool threads set that share once; the caller sets it only while it
// runs its own shards and then restores its previous bound, so evaluate()
// and user code keep the full team. A shard that throws on any worker is
// rethrown from step() after every worker finished — before the merge, so
// the model, BN running stats and optimizer stay untouched.
//
// fit() also runs the paper's phase structure: `warmup_epochs` of FP32
// training, then on_warmup_end (wire it to QuantPolicy::calibrate +
// activate), after which the policy's Fig. 3 hooks fire in the compiled
// forward/backward and in SgdMomentum's updated-weight P(W). Policy training
// is single-worker, single-shard: the policies' rounding RNG and transform
// counter are not thread-safe, and a per-shard P(dW) is not the paper's
// P(dW) of the batch gradient.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "exec/float_backend.hpp"
#include "nn/module.hpp"
#include "nn/optimizer.hpp"

namespace pdnn::train {

struct TrainerConfig {
  std::size_t epochs = 10;
  std::size_t batch_size = 64;
  /// Shard size defining the numerics; 0 means batch_size (single shard,
  /// bit-identical to the eager loop).
  std::size_t micro_batch = 0;
  /// Workers taking the shards round-robin (worker 0 is the caller of
  /// step()) and splitting one OpenMP thread budget. Any value yields the
  /// same trained bits; more workers only changes wall-clock.
  std::size_t workers = 1;
  nn::SgdConfig sgd;
  nn::StepSchedule schedule;
  std::uint64_t shuffle_seed = 1;
  bool verbose = false;
  /// Fig. 3 precision policy (not owned); null trains in plain FP32. Needs
  /// workers == 1 and a single shard.
  nn::PrecisionPolicy* policy = nullptr;
  /// FP32 epochs before on_warmup_end fires (0 fires it before epoch 0).
  std::size_t warmup_epochs = 1;
  /// Called once when warm-up finishes, e.g. QuantPolicy::calibrate(net) +
  /// activate(). May be empty.
  std::function<void(nn::Module&)> on_warmup_end;
  /// Called after every epoch (e.g. the Fig. 2 weight-stats collector).
  std::function<void(std::size_t epoch, nn::Module&)> on_epoch_end;
};

/// Aggregates of one optimizer step, weighted like the eager loop's epoch
/// accumulation (loss_sum is loss * samples).
struct StepStats {
  double loss_sum = 0.0;
  std::size_t correct = 0;
  std::size_t count = 0;
};

struct EpochResult {
  std::size_t epoch = 0;
  float lr = 0.0f;
  float train_loss = 0.0f;
  float train_acc = 0.0f;
  float test_acc = 0.0f;
  bool quantized = false;  ///< the policy was active during this epoch
};

class Trainer {
 public:
  /// Compiles one training backend per worker over `net` (which must outlive
  /// the trainer). The module graph is shared read-only during a step; all
  /// mutation (gradient merge, BN running stats, SGD update) happens serially
  /// on the calling thread after the workers join. Throws
  /// std::invalid_argument on batch_size 0, or on a policy with more than
  /// one worker or shard.
  Trainer(nn::Module& net, TrainerConfig cfg);
  /// Stops and joins the worker threads.
  ~Trainer();
  Trainer(const Trainer&) = delete;
  Trainer& operator=(const Trainer&) = delete;

  /// One optimizer step on batch (bx, by): shard, forward/backward on the
  /// workers, merge, SGD update. Throws std::invalid_argument on an empty
  /// batch or a label count mismatch. An exception from a shard on any
  /// worker (e.g. an input shape the plan rejects) is rethrown once every
  /// worker has finished, the lowest worker id's first; the model, BN
  /// running stats and optimizer state are then unchanged.
  StepStats step(const tensor::Tensor& bx, const std::vector<int>& by);

  /// Full training run: warm-up phase, Fisher-Yates shuffle per epoch from
  /// shuffle_seed, lr from the step schedule, one EpochResult per epoch.
  /// Inputs are [N, ...] of any rank. Throws std::invalid_argument on an
  /// empty set or a label count that differs from N (train or test).
  std::vector<EpochResult> fit(const tensor::Tensor& train_x, const std::vector<int>& train_y,
                               const tensor::Tensor& test_x, const std::vector<int>& test_y);

  /// Accuracy in eval mode (compiled forward, running BN stats, the policy's
  /// forward hooks when active). Same input checks as fit().
  float evaluate(const tensor::Tensor& x, const std::vector<int>& y, std::size_t batch = 128);

  std::size_t workers() const { return backends_.size(); }
  /// Arena bytes across all worker backends (bench reporting).
  std::size_t arena_bytes() const;

 private:
  void run_worker(std::size_t w, std::size_t n_shards, const tensor::Tensor& bx,
                  const std::vector<int>& by);
  /// Body of pool thread `w` (1 <= w < workers): waits for each new job
  /// generation, runs its shards, reports completion.
  void pool_loop(std::size_t w);
  void stop_pool();
  tensor::Tensor gather(const tensor::Tensor& x, const std::vector<std::size_t>& idx,
                        std::size_t lo, std::size_t hi) const;

  nn::Module& net_;
  TrainerConfig cfg_;
  std::vector<exec::FloatBackend> backends_;  // one per worker
  std::vector<nn::Param*> params_;            // net.params() order
  nn::SgdMomentum opt_;

  // Per-worker scratch (indexed by worker id).
  std::vector<tensor::Tensor> worker_x_;
  std::vector<std::vector<int>> worker_y_;
  std::vector<tensor::Tensor> worker_dlogits_;

  // Per-shard results (indexed by shard id — worker-assignment independent).
  std::vector<std::vector<tensor::Tensor>> shard_grads_;
  struct ShardBnStats {
    std::vector<float> mean, var;
  };
  std::vector<std::vector<ShardBnStats>> shard_bn_;
  std::vector<double> shard_loss_;
  std::vector<std::size_t> shard_correct_;
  std::vector<std::size_t> shard_count_;

  int omp_share_ = 1;  // OpenMP team bound of every worker during its shards

  // Job handoff to the pool threads. step() publishes the job and bumps
  // generation_; each pool thread runs it once and decrements pending_.
  std::mutex mu_;
  std::condition_variable job_cv_;   // a new generation_ or stopping_
  std::condition_variable done_cv_;  // pending_ reached 0
  std::uint64_t generation_ = 0;
  std::size_t pending_ = 0;
  bool stopping_ = false;
  const tensor::Tensor* job_x_ = nullptr;
  const std::vector<int>* job_y_ = nullptr;
  std::size_t job_shards_ = 0;
  // The job's exception per worker id; written by its worker before the
  // pending_ decrement, read and cleared by step() after the wait.
  std::vector<std::exception_ptr> worker_error_;

  std::vector<std::thread> threads_;  // workers 1..W-1; declared last
};

}  // namespace pdnn::train
