// trace.hpp — in-memory spans recorded by the benchmark around its calls
// into the library, written at exit as Chrome trace-event JSON (opens in
// Perfetto and chrome://tracing).
//
// A span has a name ("<layer>.<call>"), start, end, the id of the span that
// caused it (0 for a root) and, for serving, the id of the request it belongs
// to, so every span of one request shares that id. Recording takes a lock;
// the benchmark records a few thousand spans per second at most.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  std::int64_t start_ns = 0;  ///< since the tracer's epoch
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0: root
  std::uint64_t req = 0;     ///< 0: not part of a request
  int tid = 0;
};

class Tracer {
 public:
  explicit Tracer(Clock::time_point epoch = Clock::now()) : epoch_(epoch) {}

  std::uint64_t new_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  /// Record a finished span under a reserved id (see new_id()). Thread-safe.
  /// `tid` 0 files it under the calling thread; a track from new_track()
  /// files work recorded after the fact under the thread that did it.
  void record(std::uint64_t id, std::string name, Clock::time_point start, Clock::time_point end,
              std::uint64_t parent = 0, std::uint64_t req = 0, int tid = 0);
  /// Record a finished span under a fresh id; returns the id.
  std::uint64_t record(std::string name, Clock::time_point start, Clock::time_point end,
                       std::uint64_t parent = 0, std::uint64_t req = 0, int tid = 0);

  /// Label the calling thread in the trace file.
  void name_thread(const std::string& name);
  /// A labelled track for spans recorded on another thread's behalf.
  int new_track(const std::string& name);

  std::vector<Span> spans() const;
  /// Durations in milliseconds of every span called `name`, in record order.
  std::vector<double> durations_ms(const std::string& name) const;

  /// Write {"traceEvents": [...], "otherData": <other_json>}: request spans
  /// (req != 0) as async events keyed by the request id, so the overlapping
  /// requests nest per request; the rest as complete events on their thread.
  /// Returns false when the file cannot be written.
  bool write_chrome(const std::string& path, const std::string& other_json) const;

 private:
  Clock::time_point epoch_;
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<int> next_track_{1000};
  mutable std::mutex mu_;  // guards spans_ and thread_names_
  std::vector<Span> spans_;
  std::vector<std::pair<int, std::string>> thread_names_;
};

/// Times [construction, end()) and records it when `tracer` is non-null.
/// The timestamps are taken either way, so untraced runs measure the same
/// interval without recording it.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, std::uint64_t parent = 0, std::uint64_t req = 0)
      : tracer_(tracer), name_(name), parent_(parent), req_(req),
        id_(tracer != nullptr ? tracer->new_id() : 0), start_(Clock::now()) {}
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  ~Scope() {
    if (!ended_) end();
  }

  /// Close the span; returns its duration in seconds.
  double end() {
    const Clock::time_point stop = Clock::now();
    ended_ = true;
    if (tracer_ != nullptr) tracer_->record(id_, name_, start_, stop, parent_, req_);
    return std::chrono::duration<double>(stop - start_).count();
  }
  std::uint64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  const char* name_;
  std::uint64_t parent_, req_, id_;
  Clock::time_point start_;
  bool ended_ = false;
};

/// Self time of each span: its duration minus the part of its interval that
/// the union of its direct children covers. Aligned with `spans`.
std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans);

}  // namespace perfbench
