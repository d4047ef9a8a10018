// bench_util.hpp — helpers shared by the perf-tracking benches
// (bench_gemm, bench_posit, bench_train): best-of timing and the minimal
// JSON readback used by --check-regression. The scanners only parse the flat
// one-object-per-line results arrays these benches themselves write; a
// structural change to that format must update every bench through this
// single header. OpenMP thread control is exec/thread_budget.hpp.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <string>

namespace pdnn::benchutil {

template <typename Fn>
double time_best(Fn&& fn, int reps) {
  using clock = std::chrono::steady_clock;
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = clock::now();
    fn();
    const auto t1 = clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

/// Scan `"key": <number>` inside one serialized result object.
inline bool scan_number(const std::string& obj, const std::string& key, double* out) {
  const auto pos = obj.find("\"" + key + "\":");
  if (pos == std::string::npos) return false;
  *out = std::strtod(obj.c_str() + pos + key.size() + 3, nullptr);
  return true;
}

/// Scan `"key": "<value>"` inside one serialized result object.
inline std::string scan_string(const std::string& obj, const std::string& key) {
  const auto pos = obj.find("\"" + key + "\": \"");
  if (pos == std::string::npos) return "";
  const auto start = pos + key.size() + 5;
  const auto end = obj.find('"', start);
  return end == std::string::npos ? "" : obj.substr(start, end - start);
}

}  // namespace pdnn::benchutil
