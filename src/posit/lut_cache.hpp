// lut_cache.hpp — process-wide LUT caches: LutCache for mul_lut/add_lut/
// fma_lut, PairLutCache for the two-format hand-off tables (handoff_lut.hpp).
//
// Steady-state engine code resolves its LUT pointers once at compile/plan
// time (quant::detail::resolve_luts, PositSession::compile), but ad-hoc
// callers — tests and benches — hit the cache per call. Under a serving
// worker pool those lookups used to contend on one global std::mutex for
// every call; the fast path below is a plain
// acquire load from a fixed table of atomic pointers, so a constructed LUT
// is reached without any lock. The mutex now guards only first-touch
// construction (and the overflow map for specs outside the fast-path index
// range, which mul/add/fma_lut_supported() formats never are).
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>

#include "posit/rounding.hpp"
#include "posit/spec.hpp"

namespace pdnn::posit::detail {

/// Fast-path index bounds: LUTs exist only for n <= 8 (so es <= 6 per
/// PositSpec::validate) and the three RoundModes.
constexpr int kLutCacheMaxN = 8;
constexpr int kLutCacheMaxEs = 7;
constexpr int kLutCacheModes = 3;

template <typename Lut>
class LutCache {
 public:
  const Lut& get(const PositSpec& spec, RoundMode mode) {
    const int m = static_cast<int>(mode);
    std::atomic<const Lut*>* slot = nullptr;
    if (spec.n >= 0 && spec.n <= kLutCacheMaxN && spec.es >= 0 && spec.es < kLutCacheMaxEs &&
        m >= 0 && m < kLutCacheModes) {
      slot = &fast_[spec.n][spec.es][m];
      const Lut* hit = slot->load(std::memory_order_acquire);
      if (hit != nullptr) return *hit;
    }
    // Miss: construct under the lock (the Lut constructor throws for
    // unsupported formats before anything is cached), then publish.
    std::lock_guard<std::mutex> lock(mu_);
    const auto key = std::make_tuple(spec.n, spec.es, m);
    auto it = owned_.find(key);
    if (it == owned_.end()) {
      it = owned_.emplace(key, std::make_unique<Lut>(spec, mode)).first;
      if (slot != nullptr) slot->store(it->second.get(), std::memory_order_release);
    }
    return *it->second;
  }

 private:
  std::atomic<const Lut*> fast_[kLutCacheMaxN + 1][kLutCacheMaxEs][kLutCacheModes] = {};
  std::mutex mu_;
  std::map<std::tuple<int, int, int>, std::unique_ptr<Lut>> owned_;
};

/// Tables keyed by a (from, to) format pair plus rounding mode. They are
/// resolved once per session compile and never per element, so a plain
/// mutex is all the synchronization they need (and all TSan has to see).
template <typename Lut>
class PairLutCache {
 public:
  const Lut& get(const PositSpec& from, const PositSpec& to, RoundMode mode) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto key = std::make_tuple(from.n, from.es, to.n, to.es, static_cast<int>(mode));
    auto it = owned_.find(key);
    if (it == owned_.end()) it = owned_.emplace(key, std::make_unique<Lut>(from, to, mode)).first;
    return *it->second;
  }

 private:
  std::mutex mu_;
  std::map<std::tuple<int, int, int, int, int>, std::unique_ptr<Lut>> owned_;
};

}  // namespace pdnn::posit::detail
