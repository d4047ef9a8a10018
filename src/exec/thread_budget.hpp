// thread_budget.hpp — one OpenMP thread budget shared by a pool of workers.
//
// A pool of W worker threads (train::Trainer shards, serve::Engine batches)
// whose kernels each open an OpenMP team of omp_get_max_threads() threads
// runs W times the budget on the cores: oversubscription that costs far
// more in context switches and cache thrash than it gains. The rule both
// pools follow: the budget is the constructing thread's
// omp_get_max_threads() (so OMP_NUM_THREADS stays the only control), and
// each worker opens teams of omp_share(budget, W) threads, so
// W x share <= budget. Team size never changes results: every OpenMP
// kernel in this library is bit-identical at any thread count.
#pragma once

#include <cstddef>

#ifdef _OPENMP
#include <omp.h>
#endif

namespace pdnn::exec {

/// The calling thread's OpenMP team bound; 1 without OpenMP.
inline int omp_max_threads() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

/// Sets the calling thread's OpenMP team bound (a per-thread setting; other
/// threads keep theirs). No-op without OpenMP.
inline void set_omp_threads(int n) {
#ifdef _OPENMP
  omp_set_num_threads(n);
#else
  (void)n;
#endif
}

/// The team each of `workers` concurrent workers may open so that
/// workers x share <= budget. Never below 1: more workers than the budget
/// each still run single-threaded kernels.
inline int omp_share(int budget, std::size_t workers) {
  if (budget < 1) return 1;
  if (workers <= 1) return budget;
  const std::size_t share = static_cast<std::size_t>(budget) / workers;
  return share == 0 ? 1 : static_cast<int>(share);
}

/// Sets the calling thread's OpenMP team bound for the guard's lifetime and
/// restores the previous bound on destruction (exceptions included).
class ScopedOmpThreads {
 public:
  explicit ScopedOmpThreads(int n) : prev_(omp_max_threads()) { set_omp_threads(n); }
  ~ScopedOmpThreads() { set_omp_threads(prev_); }
  ScopedOmpThreads(const ScopedOmpThreads&) = delete;
  ScopedOmpThreads& operator=(const ScopedOmpThreads&) = delete;

 private:
  int prev_;
};

}  // namespace pdnn::exec
