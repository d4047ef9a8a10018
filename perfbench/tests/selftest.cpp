// selftest — checks the benchmark's own arithmetic: the percentile index
// rule, the medians over windows, the stolen-CPU gate, span self time, the
// seeded Poisson schedule, and the ResNet-8 MAC count computed from a compiled plan against
// a hand count.
#include <cmath>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "exec/float_backend.hpp"
#include "nn/resnet.hpp"
#include "quant/posit_session.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    ++failures;
  }
}

void percentile_rule() {
  // Nearest rank on 1..10: the q-th percentile is the ceil(q*10)-th value.
  std::vector<double> v{10, 9, 8, 7, 6, 5, 4, 3, 2, 1};
  check(perfbench::percentile(v, 0.50) == 5, "p50 of 1..10 is 5");
  check(perfbench::percentile(v, 0.90) == 9, "p90 of 1..10 is 9");
  check(perfbench::percentile(v, 0.91) == 10, "p91 of 1..10 is 10");
  check(perfbench::percentile(v, 0.99) == 10, "p99 of 1..10 is 10");
  check(perfbench::percentile(v, 0.0) == 1, "p0 is the minimum");
  check(perfbench::percentile(v, 1.0) == 10, "p100 is the maximum");
  check(perfbench::percentile({}, 0.5) == 0, "empty sample reads 0");
  check(perfbench::median({4.0}) == 4.0, "median of one value");
  std::vector<double> thousand;
  for (int i = 1000; i >= 1; --i) thousand.push_back(i);
  check(perfbench::percentile(thousand, 0.999) == 999, "p99.9 of 1..1000 is 999");
}

void windows() {
  check(perfbench::window_count(0) == 1 && perfbench::window_count(199) == 1,
        "fewer than 200 values make one window");
  check(perfbench::window_count(300) == 3, "100 values per window");
  check(perfbench::window_count(100000) == 25, "at most 25 windows");
  // 1..300 in three windows of 100: window medians 50, 150, 250 (nearest
  // rank), window means 50.5, 150.5, 250.5.
  std::vector<double> v;
  for (int i = 1; i <= 300; ++i) v.push_back(i);
  check(perfbench::windowed(v, 0.5) == 150, "median of window medians");
  check(perfbench::windowed(v, 0.9) == 190, "median of window p90s");
  check(perfbench::windowed(v, -1.0) == 150.5, "median of window means");
  // A stall that slows one window of three leaves a steady figure alone.
  std::vector<double> steady(300, 7.0);
  for (int i = 0; i < 100; ++i) steady[static_cast<std::size_t>(i)] = 1e6;
  check(perfbench::windowed(steady, 0.9) == 7.0, "one slow window does not move the median");
  // 300 completions, 100 in each second of [0, 3): 100 per second; a
  // stalled second (its completions late) leaves the median at 100.
  std::vector<double> done;
  for (int i = 0; i < 300; ++i) done.push_back(i * 0.01);
  check(perfbench::windowed_rate(done, 3.0) == 100, "windowed rate");
  for (int i = 0; i < 100; ++i) done[static_cast<std::size_t>(i)] = 1.5;
  check(perfbench::windowed_rate(done, 3.0) == 100, "one stalled second does not move the rate");
}

void steal_gate() {
  bool enough = false;
  const auto keep = perfbench::clean_units({0.01, 0.05, 0.02, 0.0}, 0.02, &enough);
  check(enough && keep == std::vector<char>{1, 0, 1, 1}, "units above the limit are left out");
  const auto half = perfbench::clean_units({0.01, 0.05, 0.03, 0.04, 0.03}, 0.02, &enough);
  check(!enough && half == std::vector<char>{1, 0, 1, 0, 1},
        "fewer than half clean: the least disturbed half (rounded up), run not comparable");
  perfbench::clean_units({0.01, 0.05}, 0.02, &enough);
  check(enough, "half the units clean is enough");
}

void self_time() {
  using perfbench::Span;
  // Parent [0,100]; children overlap each other and one runs past the
  // parent's end: covered = [10,40] + [90,100] = 40, so self = 60. The
  // grandchild is inside a child and does not count against the parent.
  std::vector<Span> spans(5);
  spans[0] = {"a.parent", 0, 100, 1, 0, 0, 1};
  spans[1] = {"b.child", 10, 30, 2, 1, 0, 1};
  spans[2] = {"b.child", 20, 40, 3, 1, 0, 1};
  spans[3] = {"b.child", 90, 120, 4, 1, 0, 1};
  spans[4] = {"c.grandchild", 12, 28, 5, 2, 0, 1};
  const auto self = perfbench::self_times_ns(spans);
  check(self[0] == 60, "parent self time is 60, got " + std::to_string(self[0]));
  check(self[1] == 4, "child self time is 20 - 16, got " + std::to_string(self[1]));
  check(self[2] == 20 && self[3] == 30 && self[4] == 16, "leaf self time is its duration");
}

void poisson() {
  const auto a = perfbench::poisson_schedule(7, 1000.0, 10.0);
  const auto b = perfbench::poisson_schedule(7, 1000.0, 10.0);
  const auto c = perfbench::poisson_schedule(8, 1000.0, 10.0);
  check(a == b, "same seed gives the same schedule");
  check(a != c, "another seed gives another schedule");
  // 10000 expected arrivals; sd 100.
  check(std::fabs(static_cast<double>(a.size()) - 10000.0) < 500.0,
        "arrival count near rate*duration, got " + std::to_string(a.size()));
  bool sorted = true;
  for (std::size_t i = 0; i < a.size(); ++i) {
    sorted = sorted && a[i] >= 0.0 && a[i] < 10.0 && (i == 0 || a[i] >= a[i - 1]);
  }
  check(sorted, "due times increase within [0, duration)");
  // The first gap is fixed by mt19937_64(7): any library gives the same one.
  std::mt19937_64 rng(7);
  const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;
  check(a.front() == -std::log1p(-u) / 1000.0, "first gap is the inverse-CDF draw");
}

void resnet8_macs() {
  // ResNet-8, base 8 channels, 16x16x3 input (o = output pixels):
  //   conv1            3->8  3x3, o=256:  256*8*3*9   =  55296
  //   stage1 2 convs   8->8  3x3, o=256:  2*256*8*8*9 = 294912
  //   stage2 conv1     8->16 3x3 s2 o=64:  64*16*8*9  =  73728
  //          conv2    16->16 3x3    o=64:  64*16*16*9 = 147456
  //          down      8->16 1x1 s2 o=64:  64*16*8    =   8192
  //   stage3 conv1    16->32 3x3 s2 o=16:  16*32*16*9 =  73728
  //          conv2    32->32 3x3    o=16:  16*32*32*9 = 147456
  //          down     16->32 1x1 s2 o=16:  16*32*16   =   8192
  //   fc              32->10:                           320
  const std::uint64_t hand = 55296 + 294912 + 73728 + 147456 + 8192 + 73728 + 147456 + 8192 + 320;
  pdnn::nn::ResNetConfig cfg;
  cfg.base_channels = 8;
  pdnn::tensor::Rng rng(1);
  auto net = pdnn::nn::cifar_resnet(cfg, rng);
  const auto fb = pdnn::exec::FloatBackend::compile(*net);
  check(perfbench::plan_macs(fb.plan(), {1, 3, 16, 16}) == hand,
        "float plan MACs match the hand count " + std::to_string(hand) + ", got " +
            std::to_string(perfbench::plan_macs(fb.plan(), {1, 3, 16, 16})));
  check(perfbench::plan_macs(fb.plan(), {8, 3, 16, 16}) == 8 * hand, "MACs scale with batch");
  const auto ps = pdnn::quant::PositSession::compile_backend(
      *net, pdnn::quant::SessionConfig::from_quant(pdnn::quant::QuantConfig::cifar8(),
                                                   pdnn::quant::AccumMode::kQuire));
  check(perfbench::plan_macs(ps->plan(), {1, 3, 16, 16}) == hand, "posit plan MACs match");
}

}  // namespace

int main() {
  percentile_rule();
  windows();
  steal_gate();
  self_time();
  poisson();
  resnet8_macs();
  if (failures == 0) std::puts("perfbench selftest: all checks passed");
  return failures == 0 ? 0 : 1;
}
