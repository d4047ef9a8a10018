#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>
#include <stdexcept>

namespace perfbench {

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t i = rank <= 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(i, values.size() - 1)];
}

double median(const std::vector<double>& values) { return percentile(values, 0.5); }

std::size_t window_count(std::size_t n) { return std::clamp<std::size_t>(n / 100, 1, 25); }

double windowed(const std::vector<double>& values, double q) {
  const std::size_t w = window_count(values.size());
  std::vector<double> per_window;
  for (std::size_t k = 0; k < w; ++k) {
    const auto lo = values.begin() + static_cast<long>(values.size() * k / w);
    const auto hi = values.begin() + static_cast<long>(values.size() * (k + 1) / w);
    const std::vector<double> part(lo, hi);
    if (q >= 0.0) {
      per_window.push_back(percentile(part, q));
    } else {
      double sum = 0.0;
      for (const double v : part) sum += v;
      per_window.push_back(part.empty() ? 0.0 : sum / static_cast<double>(part.size()));
    }
  }
  return median(per_window);
}

double windowed_rate(const std::vector<double>& done_s, double seconds) {
  const std::size_t w = window_count(done_s.size());
  std::vector<double> rate(w, 0.0);
  const double slice = seconds / static_cast<double>(w);
  for (const double t : done_s) {
    rate[std::min(w - 1, static_cast<std::size_t>(t / slice))] += 1.0 / slice;
  }
  return median(rate);
}

std::vector<char> clean_units(const std::vector<double>& steal, double max_steal, bool* enough) {
  std::vector<char> keep(steal.size());
  std::size_t clean = 0;
  for (std::size_t i = 0; i < steal.size(); ++i) {
    keep[i] = steal[i] <= max_steal ? 1 : 0;
    clean += keep[i];
  }
  *enough = 2 * clean >= steal.size();
  if (!*enough) {
    std::vector<std::size_t> order(steal.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) { return steal[a] < steal[b]; });
    keep.assign(steal.size(), 0);
    for (std::size_t i = 0; i < (steal.size() + 1) / 2; ++i) keep[order[i]] = 1;
  }
  return keep;
}

std::vector<double> poisson_schedule(std::uint64_t seed, double rate_per_s, double duration_s) {
  if (!(rate_per_s > 0.0)) throw std::invalid_argument("poisson_schedule: rate must be > 0");
  std::mt19937_64 rng(seed);
  std::vector<double> due;
  double t = 0.0;
  for (;;) {
    // u in [0, 1) from the top 53 bits; -log1p(-u) is the unit exponential.
    const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;
    t += -std::log1p(-u) / rate_per_s;
    if (t >= duration_s) break;
    due.push_back(t);
  }
  return due;
}

std::uint64_t plan_macs(const pdnn::exec::ExecPlan& plan, const pdnn::tensor::Shape& input) {
  using pdnn::exec::OpKind;
  std::vector<pdnn::tensor::Shape> shape(plan.slots.size());
  shape[static_cast<std::size_t>(plan.input_slot)] = input;
  std::uint64_t macs = 0;
  for (const auto& step : plan.steps) {
    const pdnn::tensor::Shape& in = shape[static_cast<std::size_t>(step.in0)];
    const pdnn::tensor::Shape* skip =
        step.in1 >= 0 ? &shape[static_cast<std::size_t>(step.in1)] : nullptr;
    const pdnn::tensor::Shape out = pdnn::exec::infer_out_shape(step, in, skip, "plan_macs");
    if (step.op == OpKind::kLinear) {
      macs += static_cast<std::uint64_t>(out[0]) * step.in_c * step.out_c;
    } else if (step.op == OpKind::kConv2d) {
      macs += static_cast<std::uint64_t>(out.numel()) * step.in_c * step.kernel * step.kernel_w;
    }
    shape[static_cast<std::size_t>(step.out)] = out;
  }
  return macs;
}

}  // namespace perfbench
