// workloads.hpp — the benchmark workloads and what they share: the model and
// data recipe, seed derivation, and the result they report.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/synthetic.hpp"
#include "nn/resnet.hpp"
#include "train/trainer.hpp"
#include "trace.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::vector<Metric> end_to_end;  ///< always measured
  std::vector<Metric> per_layer;   ///< measured only when a tracer is given
  std::uint64_t attempted = 0;     ///< steps, requests and correctness checks
  std::uint64_t failed = 0;        ///< thrown operations plus wrong answers
  /// False when the run cannot be compared (the open-loop generator fell
  /// behind by more than the latency limit, or the hypervisor stole CPU time
  /// in most of the run); not a correctness failure.
  bool valid = true;
  std::string invalid_reason;
  /// The share of the run's units (serve slices, training epochs) the
  /// figures come from; the rest had more stolen CPU than kMaxStealShare.
  double kept_share = 1.0;
  /// The stolen CPU share of each unit, in time order.
  std::vector<double> unit_steal;
  /// The headline throughput; the traced run's overhead is judged on it.
  double samples_per_s = 0.0;

  void e2e(std::string name, double value, std::string unit) {
    end_to_end.push_back({std::move(name), value, std::move(unit)});
  }
  void layer(std::string name, double value, std::string unit) {
    per_layer.push_back({std::move(name), value, std::move(unit)});
  }
};

/// setup_s is the median of at least this many set-ups in one run.
constexpr std::size_t kSetups = 15;

struct RunArgs {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  Tracer* tracer = nullptr;  ///< null: untraced run
};

/// Independent sub-seeds (shuffle, schedule, request picks) from one seed,
/// via splitmix64.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// The task and the starting weights are fixed, like a dataset and a
/// checkpoint: their seed is this constant, so test accuracy compares across
/// runs. --seed draws what a run varies: the batch order on train, the
/// arrival schedule and request picks on serve.
constexpr std::uint64_t kTaskSeed = 2024;

/// 16x16x3 synth-CIFAR, 10 classes, 128 train and 40 test samples per class.
pdnn::data::SynthCifarConfig data_config();
/// ResNet-8, base_channels 8, BN momentum 0.3, initialised from kTaskSeed.
std::unique_ptr<pdnn::nn::Sequential> build_model();
/// Batches of 64, micro_batch 16, 2 workers, SGD momentum 0.9, lr 0.1; the
/// batch order is drawn from `seed`.
pdnn::train::TrainerConfig trainer_config(std::uint64_t seed);

/// Peak resident set of this process since start or since the last
/// reset_peak_rss(), in MiB (VmHWM).
double peak_rss_mb();
/// Restarts the peak at the current resident set, so work done before (such
/// as the harness's own model preparation) does not count. Linux only; a
/// no-op where /proc/self/clear_refs is not writable.
void reset_peak_rss();

Result run_train(const RunArgs& args);
Result run_serve_posit(const RunArgs& args);

}  // namespace perfbench
