// train-resnet8: one caller thread drives train::Trainer in a closed loop.
//
// Each repetition sets up from scratch (data, model, Trainer), then runs
// kEpochs epochs of Trainer::step over seeded-shuffled batches with
// Trainer::evaluate after each epoch. Repetitions continue until the time
// budget is spent, so a faster program measures more steps. Every repetition
// starts from the same bits and must end at the same test accuracy. The seed
// draws the batch order; the data and starting weights are fixed (kTaskSeed).
// The figures come from the epochs in which the hypervisor stole at most
// kMaxStealShare of CPU time (clean_units).
#include <algorithm>
#include <cstring>
#include <numeric>
#include <stdexcept>

#include "exec/float_backend.hpp"
#include "host.hpp"
#include "nn/optimizer.hpp"
#include "stats.hpp"
#include "tensor/ops.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using pdnn::tensor::Tensor;

constexpr std::size_t kEpochs = 5;
/// Step latency limit for slo_met_share: about twice the step time measured
/// on a 4-CPU Xeon.
constexpr double kStepLimitMs = 150.0;
constexpr std::size_t kProbeIters = 30;

Tensor gather(const Tensor& x, const std::vector<std::size_t>& order, std::size_t lo,
              std::size_t hi) {
  const auto& s = x.shape();
  const std::size_t row = x.numel() / s[0];
  Tensor out(pdnn::tensor::Shape{hi - lo, s[1], s[2], s[3]});
  for (std::size_t i = lo; i < hi; ++i) {
    std::memcpy(out.data() + (i - lo) * row, x.data() + order[i] * row, row * sizeof(float));
  }
  return out;
}

bool same_params(pdnn::nn::Module& a, pdnn::nn::Module& b) {
  const auto pa = a.params();
  const auto pb = b.params();
  if (pa.size() != pb.size()) return false;
  for (std::size_t i = 0; i < pa.size(); ++i) {
    const Tensor& va = pa[i]->value;
    const Tensor& vb = pb[i]->value;
    if (va.shape() != vb.shape() ||
        std::memcmp(va.data(), vb.data(), va.numel() * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

/// The Trainer's determinism contract: at a fixed micro_batch, 2 workers and
/// 1 worker train bit-identical parameters. Two steps, so the second step
/// also sees momentum and updated BN statistics.
bool workers_agree(std::uint64_t seed, const pdnn::data::Dataset& train) {
  auto one = build_model();
  auto two = build_model();
  auto cfg1 = trainer_config(seed);
  cfg1.workers = 1;
  auto cfg2 = trainer_config(seed);
  cfg2.workers = 2;
  pdnn::train::Trainer t1(*one, cfg1);
  pdnn::train::Trainer t2(*two, cfg2);
  std::vector<std::size_t> order(train.size());
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t step = 0; step < 2; ++step) {
    const std::size_t lo = step * cfg1.batch_size, hi = lo + cfg1.batch_size;
    const Tensor bx = gather(train.images, order, lo, hi);
    const std::vector<int> by(train.labels.begin() + static_cast<long>(lo),
                              train.labels.begin() + static_cast<long>(hi));
    t1.step(bx, by);
    t2.step(bx, by);
  }
  return same_params(*one, *two);
}

/// Single-shard probe (traced runs only): the exec training plan and the
/// optimizer step on one micro-batch, outside the Trainer's worker threads.
/// Returns the median forward+backward shard time in ms.
double probe_shard(const RunArgs& args, const pdnn::data::Dataset& train, Result& r) {
  Tracer* tr = args.tracer;
  auto net = build_model();
  const auto tcfg = trainer_config(args.seed);
  Scope compile(tr, "exec.FloatBackend.compile_training");
  auto backend = pdnn::exec::FloatBackend::compile_training(*net);
  compile.end();
  pdnn::nn::SgdMomentum opt(net->params(), tcfg.sgd);

  std::vector<std::size_t> order(train.size());
  std::iota(order.begin(), order.end(), 0);
  const Tensor x = gather(train.images, order, 0, tcfg.micro_batch);
  const std::vector<int> y(train.labels.begin(),
                           train.labels.begin() + static_cast<long>(tcfg.micro_batch));
  Tensor dlogits;
  std::vector<double> fwd, bwd, sgd, shard;
  for (std::size_t it = 0; it < kProbeIters + 3; ++it) {
    const bool keep = it >= 3;  // the first iterations size the arena
    backend.zero_grad();
    Scope f(keep ? tr : nullptr, "exec.FloatBackend.train_forward");
    const Tensor& logits = backend.train_forward(x);
    const double tf = f.end();
    pdnn::tensor::cross_entropy(logits, y, &dlogits);
    Scope b(keep ? tr : nullptr, "exec.FloatBackend.run_backward");
    backend.run_backward(dlogits);
    const double tb = b.end();
    const auto& grads = backend.param_grads();
    const auto& params = backend.trained_params();
    for (std::size_t p = 0; p < params.size(); ++p) {
      std::memcpy(params[p]->grad.data(), grads[p].data(), grads[p].numel() * sizeof(float));
    }
    Scope s(keep ? tr : nullptr, "nn.SgdMomentum.step");
    opt.step();
    const double ts = s.end();
    if (!keep) continue;
    fwd.push_back(tf * 1e3);
    bwd.push_back(tb * 1e3);
    sgd.push_back(ts * 1e3);
    shard.push_back((tf + tb) * 1e3);
  }
  r.layer("exec.train_forward_ms", median(fwd), "ms");
  // Kernel proxy for the float GEMM/im2col path: plan MACs over forward time.
  const double macs = static_cast<double>(plan_macs(backend.plan(), x.shape()));
  r.layer("exec.gflops", 2.0 * macs / median(fwd) * 1e-6, "GFLOP/s");
  r.layer("exec.backward_ms", median(bwd), "ms");
  r.layer("nn.sgd_step_ms", median(sgd), "ms");
  return median(shard);
}

}  // namespace

Result run_train(const RunArgs& args) {
  Tracer* tr = args.tracer;
  Result r;
  const auto t_begin = Clock::now();
  const auto elapsed = [&] { return std::chrono::duration<double>(Clock::now() - t_begin).count(); };
  const auto tcfg = trainer_config(args.seed);

  std::vector<double> setup_s;
  // Per epoch, in time order: step times, limit hits, throughput, stolen CPU.
  std::vector<std::vector<double>> epoch_steps, epoch_met;
  std::vector<double> epoch_rate, epoch_steal;
  std::size_t arena_bytes = 0;
  float first_acc = -1.0f;
  double rss_mb = 0.0;  // peak through the first repetition
  pdnn::data::TrainTest data;
  std::unique_ptr<pdnn::nn::Sequential> net;
  std::unique_ptr<pdnn::train::Trainer> trainer;
  const auto set_up = [&] {
    // Release the previous set-up first, so peak memory is one set-up's.
    trainer.reset();
    net.reset();
    data = {};
    Scope setup(tr, "bench.setup");
    Scope gen(tr, "data.make_synth_cifar", setup.id());
    data = pdnn::data::make_synth_cifar(data_config());
    gen.end();
    Scope build(tr, "nn.cifar_resnet", setup.id());
    net = build_model();
    build.end();
    Scope compile(tr, "train.Trainer", setup.id());
    trainer = std::make_unique<pdnn::train::Trainer>(*net, tcfg);
    compile.end();
    setup_s.push_back(setup.end());
  };

  set_up();
  for (std::size_t rep = 0; rep == 0 || elapsed() < args.seconds; ++rep) {
    if (rep > 0) set_up();
    const std::size_t n = data.train.size();
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    pdnn::tensor::Rng shuffle(tcfg.shuffle_seed);
    float acc = 0.0f;
    for (std::size_t epoch = 0; epoch < kEpochs; ++epoch) {
      const HostSample host_before = sample_host();
      Scope loop(tr, "bench.epoch");
      std::vector<double>& step_ms = epoch_steps.emplace_back();
      std::vector<double>& met = epoch_met.emplace_back();
      std::size_t samples = 0;
      for (std::size_t i = n - 1; i > 0; --i) std::swap(order[i], order[shuffle.uniform_int(i + 1)]);
      for (std::size_t lo = 0; lo < n; lo += tcfg.batch_size) {
        const std::size_t hi = std::min(n, lo + tcfg.batch_size);
        const Tensor bx = gather(data.train.images, order, lo, hi);
        std::vector<int> by(hi - lo);
        for (std::size_t i = lo; i < hi; ++i) by[i - lo] = data.train.labels[order[i]];
        ++r.attempted;
        Scope step(tr, "train.step", loop.id());
        try {
          trainer->step(bx, by);
        } catch (const std::exception&) {
          ++r.failed;
          met.push_back(0.0);  // a step that threw misses the limit
          continue;
        }
        const double ms = step.end() * 1e3;
        step_ms.push_back(ms);
        met.push_back(ms <= kStepLimitMs ? 1.0 : 0.0);
        samples += hi - lo;
      }
      epoch_rate.push_back(static_cast<double>(samples) / loop.end());
      epoch_steal.push_back(steal_share(host_before, sample_host()));
      Scope eval(tr, "train.evaluate");
      acc = trainer->evaluate(data.test.images, data.test.labels);
      eval.end();
    }
    arena_bytes = trainer->arena_bytes();  // sized by the steps just run
    // Same seed, same bits: every repetition must reach the first one's accuracy.
    if (rep == 0) {
      first_acc = acc;
      // Later repetitions only repeat the work; the allocator's layout after
      // many set-ups is not the workload's footprint.
      rss_mb = peak_rss_mb();
      ++r.attempted;
      if (!workers_agree(args.seed, data.train)) ++r.failed;
    } else {
      ++r.attempted;
      if (acc != first_acc) ++r.failed;
    }
  }
  while (setup_s.size() < kSetups) set_up();

  // The figures come from the epochs in which the hypervisor left the CPUs
  // alone.
  bool enough = true;
  const std::vector<char> keep = clean_units(epoch_steal, kMaxStealShare, &enough);
  if (!enough) {
    r.valid = false;
    r.invalid_reason = "the hypervisor stole more than " + std::to_string(kMaxStealShare) +
                       " of CPU time in more than half the epochs";
  }
  std::vector<double> step_ms, met, rate;  // kept epochs, in time order
  for (std::size_t e = 0; e < keep.size(); ++e) {
    if (!keep[e]) continue;
    step_ms.insert(step_ms.end(), epoch_steps[e].begin(), epoch_steps[e].end());
    met.insert(met.end(), epoch_met[e].begin(), epoch_met[e].end());
    rate.push_back(epoch_rate[e]);
  }
  r.kept_share = static_cast<double>(rate.size()) / static_cast<double>(keep.size());
  r.unit_steal = epoch_steal;

  r.samples_per_s = median(rate);
  r.e2e("setup_s", median(setup_s), "s");
  r.e2e("samples_per_s", r.samples_per_s, "1/s");
  r.e2e("latency_p50_ms", windowed(step_ms, 0.50), "ms");
  r.e2e("slo_met_share", windowed(met, -1.0), "share");
  r.e2e("ok_share", 1.0 - static_cast<double>(r.failed) / static_cast<double>(r.attempted), "share");
  r.e2e("test_acc", first_acc, "share");
  r.e2e("peak_rss_mb", rss_mb, "MiB");

  if (tr != nullptr) {
    const double shard_ms = probe_shard(args, data.train, r);
    const double step_p50 = median(tr->durations_ms("train.step"));
    const std::size_t shards = tcfg.batch_size / tcfg.micro_batch;
    r.layer("data.gen_s", median(tr->durations_ms("data.make_synth_cifar")) * 1e-3, "s");
    r.layer("train.compile_s", median(tr->durations_ms("train.Trainer")) * 1e-3, "s");
    r.layer("train.step_ms_p50", step_p50, "ms");
    r.layer("train.step_ms_p90", windowed(step_ms, 0.90), "ms");
    r.layer("train.eval_ms", median(tr->durations_ms("train.evaluate")), "ms");
    r.layer("train.worker_efficiency",
            static_cast<double>(shards) * shard_ms /
                (static_cast<double>(tcfg.workers) * step_p50),
            "ratio");
    r.layer("train.arena_bytes", static_cast<double>(arena_bytes), "bytes");
  }
  return r;
}

}  // namespace perfbench
