#include "host.hpp"

#include <sched.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "posit/simd.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace perfbench {

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string env_or(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? v : fallback;
}

}  // namespace

HostSample sample_host() {
  HostSample h;
  std::ifstream load("/proc/loadavg");
  if (!(load >> h.load_1m)) h.load_1m = -1.0;
  // "cpu  user nice system idle iowait irq softirq steal ..."
  std::ifstream stat("/proc/stat");
  std::string cpu;
  std::uint64_t v[8] = {};
  if (stat >> cpu && cpu == "cpu") {
    for (auto& x : v) stat >> x;
    if (stat) {
      h.steal = v[7];
      for (const auto x : v) h.total += x;
    }
  }
  return h;
}

double steal_share(const HostSample& start, const HostSample& end) {
  return end.total > start.total ? static_cast<double>(end.steal - start.steal) /
                                       static_cast<double>(end.total - start.total)
                                 : 0.0;
}

std::string host_json(const HostSample& start, const HostSample& end) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int nproc = sched_getaffinity(0, sizeof set, &set) == 0
                        ? CPU_COUNT(&set)
                        : static_cast<int>(std::thread::hardware_concurrency());
#ifdef _OPENMP
  const int omp_threads = omp_get_max_threads();
#else
  const int omp_threads = 1;
#endif
  std::ostringstream o;
  o << "{\"cpu_model\":" << quoted(cpu_model()) << ",\"nproc\":" << nproc
    << ",\"omp_max_threads\":" << omp_threads
    << ",\"omp_num_threads_env\":" << quoted(env_or("OMP_NUM_THREADS", ""))
    << ",\"compiler\":" << quoted(PERFBENCH_COMPILER)
    << ",\"build_type\":" << quoted(PERFBENCH_BUILD_TYPE)
    << ",\"avx2_dispatch\":" << (pdnn::posit::simd::available() ? "true" : "false")
    << ",\"pdnn_no_avx2_env\":" << quoted(env_or("PDNN_NO_AVX2", ""))
    << ",\"load_avg_1m_start\":" << start.load_1m << ",\"load_avg_1m_end\":" << end.load_1m
    << ",\"cpu_steal_share\":" << steal_share(start, end) << "}";
  return o.str();
}

}  // namespace perfbench
