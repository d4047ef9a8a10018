// host.hpp — the host block recorded with every result: a baseline from
// another host carries no signal, so every number travels with its machine.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

/// Host load at one instant: the 1-minute load average and the CPU time
/// counters of /proc/stat (zeros when unreadable).
struct HostSample {
  double load_1m = -1.0;
  std::uint64_t steal = 0;  ///< time the hypervisor ran someone else
  std::uint64_t total = 0;
};

HostSample sample_host();

/// Share of CPU time the hypervisor stole between two samples (0 when
/// /proc/stat is unreadable).
double steal_share(const HostSample& start, const HostSample& end);

/// A stretch of a run (a serve slice, a training epoch) in which the
/// hypervisor stole more than this share of CPU time is left out of the
/// figures. The backend's OpenMP team waits for its slowest CPU, so stolen
/// time is amplified: on a 4-CPU guest, 5% stolen cost posit serving ~30% of
/// its throughput. Runs on a quiet host stole 0.2-2%.
constexpr double kMaxStealShare = 0.02;

/// JSON object: CPU model, nproc, OpenMP default threads, compiler, build
/// type, AVX2 dispatch, the thread/AVX2 environment overrides, the load
/// average at start and end, and the share of CPU time stolen in between.
std::string host_json(const HostSample& start, const HostSample& end);

}  // namespace perfbench
