// stats.hpp — the benchmark's own arithmetic: percentiles, the seeded
// arrival schedule, and MAC counts computed from a compiled plan. Each rule
// is checked by perfbench_selftest.
#pragma once

#include <cstdint>
#include <vector>

#include "exec/plan.hpp"
#include "tensor/tensor.hpp"

namespace perfbench {

/// Nearest-rank percentile: the smallest value with at least q·n values at or
/// below it, i.e. sorted[ceil(q·n) - 1] (sorted[0] for q·n <= 1). q in
/// [0, 1]. Returns 0 for an empty sample. Takes a copy so callers keep order.
double percentile(std::vector<double> values, double q);

double median(const std::vector<double>& values);

/// How many contiguous windows to cut `n` time-ordered values into: as many
/// as leave each window at least 100 values (so a window's p90 has ten values
/// beyond it), at most 25, at least 1. End-to-end figures are medians over
/// windows, so a noisy stretch of a shared host moves a few windows instead
/// of the whole figure.
std::size_t window_count(std::size_t n);

/// Median over window_count(n) contiguous windows of each window's q-th
/// percentile (q = -1: each window's mean). `values` are in time order.
double windowed(const std::vector<double>& values, double q);

/// Completions per second: the median over window_count(n) equal slices of
/// [0, seconds) of each slice's count over its length. `done_s` holds the
/// completion times in seconds from the phase start.
double windowed_rate(const std::vector<double>& done_s, double seconds);

/// Which units of a run (serve slices, training epochs) the figures are
/// taken from, given each unit's stolen CPU share: the units at or below
/// `max_steal` when they are at least half of all units; otherwise the half
/// with the least stolen time (ties to the earlier unit), and `*enough` is
/// set to false (the run is then not comparable).
std::vector<char> clean_units(const std::vector<double>& steal, double max_steal, bool* enough);

/// Due times, in seconds from the phase start, of a Poisson arrival process
/// at `rate_per_s` over [0, duration_s). Gaps are inverse-CDF exponential
/// draws from mt19937_64(seed), so the same seed gives the same schedule on
/// every standard library.
std::vector<double> poisson_schedule(std::uint64_t seed, double rate_per_s, double duration_s);

/// Multiply-accumulates of one forward pass of `plan` on `input` (batch axis
/// included): Σ over kLinear steps of batch·in·out and over kConv2d steps of
/// output elements · in_c · kernel · kernel_w. Other steps count zero. Shapes
/// propagate through exec::infer_out_shape, the rule every backend uses.
std::uint64_t plan_macs(const pdnn::exec::ExecPlan& plan, const pdnn::tensor::Shape& input);

}  // namespace perfbench
