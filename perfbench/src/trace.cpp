#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <unordered_map>

namespace perfbench {

namespace {

int thread_index() {
  static std::atomic<int> next{1};
  thread_local const int index = next.fetch_add(1);
  return index;
}

}  // namespace

void Tracer::record(std::uint64_t id, std::string name, Clock::time_point start,
                    Clock::time_point end, std::uint64_t parent, std::uint64_t req, int tid) {
  Span s;
  s.name = std::move(name);
  s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(start - epoch_).count();
  s.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(end - epoch_).count();
  s.id = id;
  s.parent = parent;
  s.req = req;
  s.tid = tid != 0 ? tid : thread_index();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
}

std::uint64_t Tracer::record(std::string name, Clock::time_point start, Clock::time_point end,
                             std::uint64_t parent, std::uint64_t req, int tid) {
  const std::uint64_t id = new_id();
  record(id, std::move(name), start, end, parent, req, tid);
  return id;
}

int Tracer::new_track(const std::string& name) {
  const int tid = next_track_.fetch_add(1);
  const std::lock_guard<std::mutex> lock(mu_);
  thread_names_.emplace_back(tid, name);
  return tid;
}

void Tracer::name_thread(const std::string& name) {
  const int tid = thread_index();
  const std::lock_guard<std::mutex> lock(mu_);
  thread_names_.emplace_back(tid, name);
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<double> Tracer::durations_ms(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-6);
  }
  return out;
}

bool Tracer::write_chrome(const std::string& path, const std::string& other_json) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::lock_guard<std::mutex> lock(mu_);
  out << "{\"displayTimeUnit\":\"ms\",\"otherData\":" << other_json << ",\"traceEvents\":[\n";
  bool first = true;
  const auto sep = [&] {
    if (!first) out << ",\n";
    first = false;
  };
  for (const auto& [tid, name] : thread_names_) {
    sep();
    out << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":" << tid
        << ",\"args\":{\"name\":\"" << name << "\"}}";
  }
  const auto us = [](std::int64_t ns) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(ns) * 1e-3);
    return std::string(buf);
  };
  for (const Span& s : spans_) {
    const std::string head = "{\"name\":\"" + s.name + "\",\"cat\":\"" +
                             s.name.substr(0, s.name.find('.')) +
                             "\",\"pid\":1,\"tid\":" + std::to_string(s.tid);
    const std::string args = ",\"args\":{\"id\":" + std::to_string(s.id) + ",\"parent\":" +
                             std::to_string(s.parent) + ",\"req\":" + std::to_string(s.req) + "}}";
    sep();
    if (s.req == 0) {
      out << head << ",\"ph\":\"X\",\"ts\":" << us(s.start_ns)
          << ",\"dur\":" << us(s.end_ns - s.start_ns) << args;
    } else {
      out << head << ",\"ph\":\"b\",\"id\":" << s.req << ",\"ts\":" << us(s.start_ns) << args;
      sep();
      out << head << ",\"ph\":\"e\",\"id\":" << s.req << ",\"ts\":" << us(s.end_ns) << "}";
    }
  }
  out << "\n]}\n";
  out.flush();
  return static_cast<bool>(out);
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index.emplace(spans[i].id, i);
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(spans.size());
  for (const Span& s : spans) {
    const auto it = s.parent == 0 ? index.end() : index.find(s.parent);
    if (it != index.end()) kids[it->second].emplace_back(s.start_ns, s.end_ns);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t lo = spans[i].start_ns, hi = spans[i].end_ns;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (auto [a, b] : iv) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (a >= b) continue;
      if (open && a <= cur_hi) {
        cur_hi = std::max(cur_hi, b);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = a;
      cur_hi = b;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = (hi - lo) - covered;
  }
  return self;
}

}  // namespace perfbench
