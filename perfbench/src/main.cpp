// perfbench — runs one benchmark workload and prints one JSON result line.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
//
// --trace 0 measures the end-to-end metrics untraced. --trace 1 runs the
// workload twice on the same seed, half the time budget each: untraced, then
// with spans recorded, reporting the per-layer metrics of the traced half and
// the throughput lost to tracing (trace.overhead_share); the spans go to
// --trace-out as Chrome trace-event JSON.
//
// Exit codes: 0 result printed (check "failed" for wrong answers); 2 usage.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "host.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Result;

/// The workloads by name; BENCHMARK.json lists the same names.
const std::map<std::string, Result (*)(const perfbench::RunArgs&)> kWorkloads = {
    {"train-resnet8", perfbench::run_train},
    {"serve-resnet8-posit", perfbench::run_serve_posit},
};

int usage(const char* msg) {
  std::cerr << "perfbench: " << msg << "\nusage: perfbench --workload <";
  for (auto it = kWorkloads.begin(); it != kWorkloads.end(); ++it) {
    std::cerr << (it == kWorkloads.begin() ? "" : "|") << it->first;
  }
  std::cerr << "> --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]\n";
  return 2;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Where the traced run's time went: per span name, the count, the total
/// time and the self time (time not covered by child spans), to stderr.
void print_self_times(const perfbench::Tracer& tracer) {
  const std::vector<perfbench::Span> spans = tracer.spans();
  const std::vector<std::int64_t> self = perfbench::self_times_ns(spans);
  std::map<std::string, std::tuple<std::size_t, double, double>> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& [count, total_ms, self_ms] = by_name[spans[i].name];
    ++count;
    total_ms += static_cast<double>(spans[i].end_ns - spans[i].start_ns) * 1e-6;
    self_ms += static_cast<double>(self[i]) * 1e-6;
  }
  std::fprintf(stderr, "%-40s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms");
  for (const auto& [name, row] : by_name) {
    std::fprintf(stderr, "%-40s %8zu %12.3f %12.3f\n", name.c_str(), std::get<0>(row),
                 std::get<1>(row), std::get<2>(row));
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, trace_out;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    if (key == "--workload") {
      workload = val;
    } else if (key == "--seed") {
      seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      trace = val == "1" ? 1 : val == "0" ? 0 : -1;
    } else if (key == "--trace-out") {
      trace_out = val;
    } else {
      return usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 != 1) return usage("arguments come in --key value pairs");
  if (!(seconds > 0.0)) return usage("--seconds must be > 0");
  if (trace < 0) return usage("--trace must be 0 or 1");

  const auto found = kWorkloads.find(workload);
  if (found == kWorkloads.end()) return usage("unknown workload");
  const auto run = found->second;

  const perfbench::HostSample host_start = perfbench::sample_host();
  Result shown;
  std::uint64_t attempted = 0, failed = 0;
  if (trace == 0) {
    shown = run({seed, seconds, nullptr});
    attempted = shown.attempted;
    failed = shown.failed;
  } else {
    const Result plain = run({seed, seconds / 2, nullptr});
    perfbench::Tracer tracer;
    tracer.name_thread("main");
    shown = run({seed, seconds / 2, &tracer});
    shown.layer("trace.overhead_share", 1.0 - shown.samples_per_s / plain.samples_per_s, "share");
    attempted = plain.attempted + shown.attempted;
    failed = plain.failed + shown.failed;
    shown.valid = shown.valid && plain.valid;
    if (shown.invalid_reason.empty()) shown.invalid_reason = plain.invalid_reason;
    print_self_times(tracer);
    if (!trace_out.empty() &&
        !tracer.write_chrome(trace_out, perfbench::host_json(host_start, perfbench::sample_host()))) {
      std::cerr << "perfbench: cannot write trace file " << trace_out << "\n";
      return 2;
    }
  }

  std::ostringstream o;
  o << "{\"workload\":\"" << workload << "\",\"seed\":" << seed << ",\"trace\":" << trace
    << ",\"valid\":" << (shown.valid ? "true" : "false") << ",\"invalid_reason\":\""
    << shown.invalid_reason << "\",\"kept_share\":" << number(shown.kept_share)
    << ",\"unit_steal_share\":[";
  for (std::size_t i = 0; i < shown.unit_steal.size(); ++i) {
    o << (i == 0 ? "" : ",") << number(shown.unit_steal[i]);
  }
  o << "],\"host\":"
    << perfbench::host_json(host_start, perfbench::sample_host()) << ",\"attempted\":" << attempted
    << ",\"failed\":" << failed << ",\"metrics\":{";
  const auto& metrics = trace == 0 ? shown.end_to_end : shown.per_layer;
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    o << (i == 0 ? "" : ",") << "\"" << metrics[i].name << "\":{\"value\":"
      << number(metrics[i].value) << ",\"unit\":\"" << metrics[i].unit << "\"}";
  }
  o << "}}";
  std::cout << o.str() << std::endl;
  return 0;
}
