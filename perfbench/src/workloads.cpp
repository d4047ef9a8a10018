#include "workloads.hpp"

#include <sys/resource.h>

#include <fstream>
#include <limits>
#include <string>

namespace perfbench {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + stream * 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

pdnn::data::SynthCifarConfig data_config() {
  pdnn::data::SynthCifarConfig c;
  c.classes = 10;
  c.train_per_class = 128;
  c.test_per_class = 40;
  c.height = 16;
  c.width = 16;
  c.noise = 0.75f;
  c.seed = derive_seed(kTaskSeed, 1);
  return c;
}

std::unique_ptr<pdnn::nn::Sequential> build_model() {
  pdnn::nn::ResNetConfig c;
  c.blocks_per_stage = 1;
  c.base_channels = 8;
  c.classes = 10;
  c.bn_momentum = 0.3f;
  pdnn::tensor::Rng rng(derive_seed(kTaskSeed, 2));
  return pdnn::nn::cifar_resnet(c, rng);
}

pdnn::train::TrainerConfig trainer_config(std::uint64_t seed) {
  pdnn::train::TrainerConfig c;
  c.batch_size = 64;
  c.micro_batch = 16;
  c.workers = 2;
  c.sgd.lr = 0.1f;
  c.sgd.momentum = 0.9f;
  c.schedule.base_lr = 0.1f;
  c.shuffle_seed = derive_seed(seed, 3);
  return c;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  double kib = 0.0;
  while (status >> key) {
    if (key == "VmHWM:") {
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  rusage ru{};  // no /proc: the peak since start
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

void reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";  // 5: reset the peak resident set size to the current one
}

}  // namespace perfbench
