// serve-resnet8-posit: serve::Engine (1 worker, max_batch 8, default
// batch_timeout) over quant::PositSession in the paper's Cifar-10 formats,
// serving a ResNet-8 trained at set-up.
//
// Two phases on one engine, alternating in kSlices slices after a checked
// warm-up:
//   * open loop: seeded Poisson arrivals from one generator thread, harvested
//     by one completion thread; each request is timed from its due time to
//     the moment its own future is ready;
//   * saturation: one thread keeps kInFlight requests in flight.
// Every answer must be bit-identical to its sample's solo answer, computed at
// set-up on the prototype backend. The figures come from the slices in which
// the hypervisor stole at most kMaxStealShare of CPU time (clean_units).
#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <exception>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "host.hpp"
#include "quant/posit_session.hpp"
#include "serve/engine.hpp"
#include "stats.hpp"
#include "tensor/ops.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using pdnn::tensor::Tensor;

constexpr std::size_t kMaxBatch = 8;
constexpr std::size_t kInFlight = 16;
constexpr std::size_t kPrepEpochs = 3;
/// The share of the time budget given to the open-loop phase, and the number
/// of slices each phase is cut into.
constexpr double kOpenShare = 0.6;
constexpr std::size_t kSlices = 20;
constexpr double kWarmupS = 0.5;
/// How long the completion thread blocks on the oldest request before it
/// re-checks the younger ones: the most a request that completes before an
/// older one can be over-timed. Kept coarse so the poll does not compete with
/// the backend's OpenMP team for the CPUs.
constexpr auto kPollSlice = std::chrono::milliseconds(1);

/// Open-loop arrival rate and latency limit. A run costs ~11 ms per sample of
/// posit decode and quire work, so 10 req/s loads the engine to about an
/// eighth of its capacity on a quiet 4-CPU host, and latency stays bounded
/// when a busy host cuts capacity several-fold.
constexpr double kRatePerS = 10.0;
constexpr double kLimitMs = 50.0;

pdnn::quant::SessionConfig posit_config() {
  return pdnn::quant::SessionConfig::from_quant(pdnn::quant::QuantConfig::cifar8(),
                                                pdnn::quant::AccumMode::kQuire);
}

struct RunRecord {
  Clock::time_point start, end;
  std::size_t rows = 0;
};

/// Backend runs seen by every TimingBackend clone of one engine.
class RunLog {
 public:
  void add(const RunRecord& rec, std::size_t arena_bytes) {
    const std::lock_guard<std::mutex> lock(mu_);
    runs_.push_back(rec);
    max_arena_ = std::max(max_arena_, arena_bytes);
  }
  std::vector<RunRecord> take() {
    const std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(runs_, {});
  }
  std::size_t max_arena_bytes() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return max_arena_;
  }

 private:
  mutable std::mutex mu_;  // guards runs_ and max_arena_
  std::vector<RunRecord> runs_;
  std::size_t max_arena_ = 0;
};

/// Times each run of the inner backend, the way exec::FaultInjectingBackend
/// decorates one. Used only in traced runs.
class TimingBackend final : public pdnn::exec::Backend {
 public:
  TimingBackend(std::unique_ptr<pdnn::exec::Backend> inner, std::shared_ptr<RunLog> log)
      : inner_(std::move(inner)), log_(std::move(log)) {}

  std::unique_ptr<pdnn::exec::Backend> clone() const override {
    return std::make_unique<TimingBackend>(inner_->clone(), log_);
  }
  const pdnn::exec::ExecPlan& plan() const override { return inner_->plan(); }
  std::size_t arena_bytes() const override { return inner_->arena_bytes(); }

 protected:
  const Tensor& run_impl(const Tensor& x) override {
    const auto start = Clock::now();
    const Tensor& y = inner_->run(x);
    log_->add({start, Clock::now(), x.shape()[0]}, inner_->arena_bytes());
    return y;
  }

 private:
  std::unique_ptr<pdnn::exec::Backend> inner_;
  std::shared_ptr<RunLog> log_;
};

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

double us(Clock::duration d) { return std::chrono::duration<double, std::micro>(d).count(); }

struct OpenLoop {
  std::vector<Clock::time_point> due, sent, submitted, ready;
  std::vector<char> ok;  ///< answered, and bit-identical to the solo answer
  Clock::time_point start;
};

OpenLoop run_open_loop(pdnn::serve::Engine& engine, const std::vector<Tensor>& samples,
                       const std::vector<Tensor>& solo, const std::vector<double>& due_s,
                       const std::vector<std::size_t>& pick) {
  const std::size_t n = due_s.size();
  OpenLoop o;
  o.due.resize(n);
  o.sent.resize(n);
  o.submitted.resize(n);
  o.ready.resize(n);
  o.ok.assign(n, 0);
  std::vector<std::future<Tensor>> fut(n);

  std::mutex mu;  // guards published
  std::condition_variable cv;
  std::size_t published = 0;

  // Harvest whichever request is ready, not the oldest first: block briefly
  // on the oldest, then sweep every outstanding future.
  std::exception_ptr completer_error;
  std::thread completer([&] {
    try {
      std::vector<std::size_t> pending;
      std::size_t next = 0, done = 0;
      while (done < n) {
        {
          std::unique_lock<std::mutex> lock(mu);
          if (pending.empty()) cv.wait(lock, [&] { return published > next; });
          for (; next < published; ++next) pending.push_back(next);
        }
        if (fut[pending.front()].valid()) fut[pending.front()].wait_for(kPollSlice);
        std::size_t keep = 0;
        for (const std::size_t i : pending) {
          if (fut[i].valid() &&
              fut[i].wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
            pending[keep++] = i;
            continue;
          }
          o.ready[i] = Clock::now();
          if (fut[i].valid()) {
            try {
              o.ok[i] = same_bits(fut[i].get(), solo[pick[i]]) ? 1 : 0;
            } catch (const std::exception&) {
              o.ok[i] = 0;
            }
          }
          ++done;
        }
        pending.resize(keep);
      }
    } catch (...) {
      completer_error = std::current_exception();
    }
  });

  const auto publish = [&](std::size_t count) {
    {
      const std::lock_guard<std::mutex> lock(mu);
      published = count;
    }
    cv.notify_one();
  };
  o.start = Clock::now() + std::chrono::milliseconds(2);
  try {
    for (std::size_t i = 0; i < n; ++i) {
      o.due[i] = o.start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(due_s[i]));
      std::this_thread::sleep_until(o.due[i]);
      o.sent[i] = Clock::now();
      try {
        fut[i] = engine.submit(samples[pick[i]]);
      } catch (const std::exception&) {
        // Refused: the future stays invalid and the request counts as failed.
      }
      o.submitted[i] = Clock::now();
      publish(i + 1);
    }
  } catch (...) {
    publish(n);  // the unsent requests read as refused, so the completer exits
    completer.join();
    throw;
  }
  completer.join();
  if (completer_error) std::rethrow_exception(completer_error);
  return o;
}

struct Saturation {
  std::uint64_t sent = 0, failed = 0;
  double seconds = 0.0;
  std::vector<double> done_s;  ///< completion times from the phase start
};

Saturation run_saturation(pdnn::serve::Engine& engine, const std::vector<Tensor>& samples,
                          const std::vector<Tensor>& solo, std::uint64_t seed, double seconds) {
  Saturation s;
  pdnn::tensor::Rng rng(seed);
  std::deque<std::pair<std::size_t, std::future<Tensor>>> inflight;
  const auto send = [&] {
    const auto idx = static_cast<std::size_t>(rng.uniform_int(samples.size()));
    ++s.sent;
    try {
      inflight.emplace_back(idx, engine.submit(samples[idx]));
    } catch (const std::exception&) {
      ++s.failed;
    }
  };
  const auto t0 = Clock::now();
  const auto stop = t0 + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(seconds));
  auto last = t0;
  for (std::size_t k = 0; k < kInFlight; ++k) send();
  while (!inflight.empty()) {
    auto [idx, fut] = std::move(inflight.front());
    inflight.pop_front();
    try {
      if (!same_bits(fut.get(), solo[idx])) ++s.failed;
    } catch (const std::exception&) {
      ++s.failed;
    }
    last = Clock::now();
    s.done_s.push_back(std::chrono::duration<double>(last - t0).count());
    if (last < stop) send();
  }
  s.seconds = std::chrono::duration<double>(last - t0).count();
  return s;
}

/// One open-loop phase and the saturation phase after it, measured apart so
/// a slice the hypervisor disturbed can be left out.
struct Slice {
  std::vector<double> lat_ms, met;  ///< per open-loop request, in send order
  std::vector<double> submit_us, wait_us, complete_us;  ///< traced runs only
  std::vector<std::uint64_t> open_hist;  ///< batch_hist growth in the open loop
  std::vector<RunRecord> open_runs, sat_runs;  ///< traced runs only
  std::vector<double> sat_done_s;  ///< completion times from the phase start
  double open_wall_s = 0.0, sat_s = 0.0;
};

}  // namespace

Result run_serve_posit(const RunArgs& args) {
  Tracer* tr = args.tracer;
  Result r;

  // Model preparation, outside setup_s: train the served net for a few epochs
  // so test_acc measures posit serving of a real model.
  // The served model is fixed, batch order included: --seed draws only the
  // traffic.
  auto data = pdnn::data::make_synth_cifar(data_config());
  auto net = build_model();
  {
    auto tcfg = trainer_config(kTaskSeed);
    tcfg.epochs = kPrepEpochs;
    pdnn::train::Trainer trainer(*net, tcfg);
    trainer.fit(data.train.images, data.train.labels, data.test.images, data.test.labels);
  }
  reset_peak_rss();  // peak_rss_mb is the serving peak, preparation excluded

  pdnn::serve::EngineConfig ecfg;
  ecfg.workers = 1;
  ecfg.max_batch = kMaxBatch;
  auto log = std::make_shared<RunLog>();

  // Set up kSetups times and keep the last; setup_s is the median.
  std::vector<double> setup_s;
  std::unique_ptr<pdnn::exec::Backend> proto;
  std::unique_ptr<pdnn::serve::Engine> engine;
  for (std::size_t k = 0; k < kSetups; ++k) {
    engine.reset();
    proto.reset();
    Scope setup(tr, "bench.setup");
    Scope gen(tr, "data.make_synth_cifar", setup.id());
    data = pdnn::data::make_synth_cifar(data_config());
    gen.end();
    Scope build(tr, "nn.cifar_resnet", setup.id());
    auto fresh = build_model();  // built like the served net
    build.end();
    Scope compile(tr, "quant.PositSession.compile_backend", setup.id());
    proto = pdnn::quant::PositSession::compile_backend(*net, posit_config());
    compile.end();
    Scope start(tr, "serve.Engine", setup.id());
    if (tr != nullptr) {
      engine = std::make_unique<pdnn::serve::Engine>(TimingBackend(proto->clone(), log), ecfg);
    } else {
      engine = std::make_unique<pdnn::serve::Engine>(*proto, ecfg);
    }
    start.end();
    setup_s.push_back(setup.end());
  }

  // Reference answers: each test sample run alone through the prototype.
  const std::size_t n_test = data.test.size();
  std::vector<Tensor> samples(n_test), solo(n_test);
  std::size_t correct = 0;
  Tensor x1;
  for (std::size_t i = 0; i < n_test; ++i) {
    pdnn::tensor::extract_sample(data.test.images, i, samples[i]);
    pdnn::tensor::extract_span(data.test.images, i, 1, x1);
    solo[i] = proto->run(x1);
    correct += pdnn::tensor::count_correct(solo[i], {data.test.labels[i]});
  }

  // The phases alternate in kSlices slices, so a noisy stretch of a shared
  // host lands in both phases instead of in one. Each slice keeps its own
  // figures; slices in which the hypervisor stole CPU time are left out.
  const double open_slice_s = args.seconds * kOpenShare / kSlices;
  const double sat_slice_s = args.seconds * (1.0 - kOpenShare) / kSlices;
  pdnn::tensor::Rng pick_rng(derive_seed(args.seed, 5));
  std::vector<Slice> slices(kSlices);
  std::vector<double> steal(kSlices), lag_ms;
  std::uint64_t sent = 0, failed = 0;
  bool mapped = true;
  // Warm-up, checked but not timed: the worker's arena and the OpenMP team
  // reach steady state before the first slice.
  const Saturation warm = run_saturation(*engine, samples, solo, derive_seed(args.seed, 7), kWarmupS);
  sent += warm.sent;
  failed += warm.failed;
  log->take();
  for (std::size_t slice = 0; slice < kSlices; ++slice) {
    Slice& sl = slices[slice];
    const HostSample host_before = sample_host();
    const pdnn::serve::EngineStats before = engine->stats();
    const std::vector<double> due_s =
        poisson_schedule(derive_seed(args.seed, 100 + slice), kRatePerS, open_slice_s);
    std::vector<std::size_t> pick(due_s.size());
    for (auto& p : pick) p = static_cast<std::size_t>(pick_rng.uniform_int(n_test));
    const OpenLoop o = run_open_loop(*engine, samples, solo, due_s, pick);
    // batch_hist counts a batch when it is taken, before any of its futures
    // is ready, so every open-loop batch is in it once run_open_loop returns.
    const pdnn::serve::EngineStats after = engine->stats();
    sl.open_hist.resize(after.batch_hist.size());
    for (std::size_t b = 0; b < after.batch_hist.size(); ++b) {
      sl.open_hist[b] = after.batch_hist[b] - (b < before.batch_hist.size() ? before.batch_hist[b] : 0);
    }
    sl.open_runs = log->take();

    const std::size_t n = due_s.size();
    sent += n;
    Clock::time_point end = o.start;
    for (std::size_t i = 0; i < n; ++i) {
      lag_ms.push_back(us(o.sent[i] - o.due[i]) * 1e-3);
      end = std::max(end, o.ready[i]);
      if (!o.ok[i]) {
        ++failed;
        sl.met.push_back(0.0);  // a failed request misses the limit
        continue;
      }
      const double ms = us(o.ready[i] - o.due[i]) * 1e-3;
      sl.lat_ms.push_back(ms);
      sl.met.push_back(ms <= kLimitMs ? 1.0 : 0.0);
    }
    sl.open_wall_s = std::chrono::duration<double>(end - o.start).count();

    if (tr != nullptr) {
      // One worker takes FIFO batches of contiguous requests, so the runs map
      // onto the requests in submission order.
      std::size_t rows = 0;
      for (const RunRecord& run : sl.open_runs) rows += run.rows;
      mapped = mapped && rows == n;
      for (std::size_t i = 0, b = 0, used = 0; mapped && i < n; ++i, ++used) {
        if (used == sl.open_runs[b].rows) {
          ++b;
          used = 0;
        }
        const RunRecord& run = sl.open_runs[b];
        sl.submit_us.push_back(us(o.submitted[i] - o.sent[i]));
        sl.wait_us.push_back(us(run.start - o.due[i]));
        sl.complete_us.push_back(us(o.ready[i] - run.end));
        const std::uint64_t req = sent - n + i + 1;
        const std::uint64_t root = tr->record("serve.request", o.due[i], o.ready[i], 0, req);
        tr->record("serve.Engine.submit", o.sent[i], o.submitted[i], root, req);
        tr->record("serve.queue_wait", o.due[i], run.start, root, req);
        tr->record("serve.complete", run.end, o.ready[i], root, req);
      }
    }

    Saturation sat = run_saturation(*engine, samples, solo, derive_seed(args.seed, 200 + slice),
                                    sat_slice_s);
    sent += sat.sent;
    failed += sat.failed;
    sl.sat_done_s = std::move(sat.done_s);
    sl.sat_s = sat.seconds;
    sl.sat_runs = log->take();
    steal[slice] = steal_share(host_before, sample_host());
  }
  engine->shutdown();
  const pdnn::serve::EngineStats end_stats = engine->stats();

  // Latency counts from the due time, so a late send still charges its wait;
  // but a generator late on more than 1% of sends no longer offers the
  // schedule's load, and the run is not comparable.
  const double lag_p99 = percentile(lag_ms, 0.99);
  if (lag_p99 > kLimitMs) {
    r.valid = false;
    r.invalid_reason = "open-loop generator lag p99 " + std::to_string(lag_p99) +
                       " ms exceeds the latency limit of " + std::to_string(kLimitMs) + " ms";
  }
  bool enough = true;
  const std::vector<char> keep = clean_units(steal, kMaxStealShare, &enough);
  if (!enough) {
    r.valid = false;
    r.invalid_reason = "the hypervisor stole more than " + std::to_string(kMaxStealShare) +
                       " of CPU time in more than half the slices";
  }

  // The figures of the kept slices, in time order.
  std::vector<double> lat_ms, met, done_s, submit_us, wait_us, complete_us;
  std::vector<RunRecord> open_runs, sat_runs;
  std::vector<std::uint64_t> open_hist(kMaxBatch + 1, 0);
  double sat_s = 0.0, open_wall_s = 0.0;
  std::size_t kept = 0;
  for (std::size_t k = 0; k < kSlices; ++k) {
    if (!keep[k]) continue;
    const Slice& sl = slices[k];
    ++kept;
    const auto append = [](std::vector<double>& to, const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(lat_ms, sl.lat_ms);
    append(met, sl.met);
    append(submit_us, sl.submit_us);
    append(wait_us, sl.wait_us);
    append(complete_us, sl.complete_us);
    for (const double t : sl.sat_done_s) done_s.push_back(sat_s + t);
    sat_s += sl.sat_s;
    open_wall_s += sl.open_wall_s;
    open_runs.insert(open_runs.end(), sl.open_runs.begin(), sl.open_runs.end());
    sat_runs.insert(sat_runs.end(), sl.sat_runs.begin(), sl.sat_runs.end());
    for (std::size_t b = 0; b < open_hist.size() && b < sl.open_hist.size(); ++b) {
      open_hist[b] += sl.open_hist[b];
    }
  }

  r.attempted = sent;
  r.failed = failed;
  r.samples_per_s = windowed_rate(done_s, sat_s);
  r.e2e("setup_s", median(setup_s), "s");
  r.e2e("samples_per_s", r.samples_per_s, "1/s");
  r.e2e("latency_p50_ms", windowed(lat_ms, 0.50), "ms");
  r.e2e("slo_met_share", windowed(met, -1.0), "share");
  r.e2e("ok_share", 1.0 - static_cast<double>(r.failed) / static_cast<double>(r.attempted), "share");
  r.e2e("test_acc", static_cast<double>(correct) / static_cast<double>(n_test), "share");
  r.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
  r.kept_share = static_cast<double>(kept) / static_cast<double>(kSlices);
  r.unit_steal = steal;
  if (tr == nullptr) return r;

  // Per-layer metrics from the traced run.
  if (!mapped) {
    ++r.attempted;  // the request -> run mapping is checked
    ++r.failed;
  }
  const std::uint64_t macs = plan_macs(proto->plan(), pdnn::tensor::Shape{1, 3, 16, 16});
  const int worker = tr->new_track("serve::Engine worker");
  for (const Slice& sl : slices) {
    for (const RunRecord& run : sl.open_runs) tr->record("quant.run", run.start, run.end, 0, 0, worker);
    for (const RunRecord& run : sl.sat_runs) tr->record("quant.run", run.start, run.end, 0, 0, worker);
  }

  double sat_run_s = 0.0, open_run_s = 0.0;
  std::size_t sat_rows = 0;
  std::vector<double> batch_us;
  for (const RunRecord& run : sat_runs) {
    batch_us.push_back(us(run.end - run.start));
    sat_run_s += us(run.end - run.start) * 1e-6;
    sat_rows += run.rows;
  }
  for (const RunRecord& run : open_runs) open_run_s += us(run.end - run.start) * 1e-6;
  const double macs_done = static_cast<double>(macs) * static_cast<double>(sat_rows);
  // Batch sizes from the histogram alone: Σ s·count[s] ÷ Σ count[s].
  double open_batches = 0.0, open_rows = 0.0;
  for (std::size_t b = 0; b < open_hist.size(); ++b) {
    open_batches += static_cast<double>(open_hist[b]);
    open_rows += static_cast<double>(b * open_hist[b]);
  }

  r.layer("data.gen_s", median(tr->durations_ms("data.make_synth_cifar")) * 1e-3, "s");
  r.layer("quant.compile_ms", median(tr->durations_ms("quant.PositSession.compile_backend")), "ms");
  r.layer("exec.arena_bytes", static_cast<double>(log->max_arena_bytes()), "bytes");
  r.layer("quant.panel_bytes",
          static_cast<double>(pdnn::quant::PositSession::compile(*net, posit_config()).panel_bytes()),
          "bytes");
  r.layer("quant.run_us_per_batch", median(batch_us), "us");
  r.layer("quant.run_us_per_sample", sat_run_s * 1e6 / static_cast<double>(sat_rows), "us");
  r.layer("quant.mmac_per_s", macs_done / sat_run_s * 1e-6, "MMAC/s");
  r.layer("serve.submit_us_p50", median(submit_us), "us");
  r.layer("serve.queue_wait_us_p50", median(wait_us), "us");
  r.layer("serve.complete_us_p50", median(complete_us), "us");
  r.layer("serve.batch_mean", open_rows / open_batches, "samples");
  r.layer("serve.full_batch_share", static_cast<double>(open_hist[kMaxBatch]) / open_batches,
          "share");
  r.layer("serve.busy_share",
          open_run_s / (static_cast<double>(ecfg.workers) * open_wall_s), "share");
  r.layer("serve.latency_p90_ms", windowed(lat_ms, 0.90), "ms");
  r.layer("serve.latency_p99_ms", percentile(lat_ms, 0.99), "ms");
  r.layer("serve.latency_p999_ms", percentile(lat_ms, 0.999), "ms");
  r.layer("serve.rejected", static_cast<double>(end_stats.rejected), "count");
  r.layer("serve.shed", static_cast<double>(end_stats.shed), "count");
  r.layer("serve.deadline_expired", static_cast<double>(end_stats.deadline_expired), "count");
  r.layer("serve.retries", static_cast<double>(end_stats.retries), "count");
  r.layer("serve.quarantines", static_cast<double>(end_stats.quarantines), "count");
  r.layer("serve.generator_lag_ms_max", percentile(lag_ms, 1.0), "ms");
  return r;
}

}  // namespace perfbench
