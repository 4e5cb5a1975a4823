#pragma once

// In-memory span log for the ledger's traced runs: spans are recorded
// from the driver around its calls into each layer, kept in memory, and
// written once at the end as Chrome trace-event JSON (loads in Perfetto
// and chrome://tracing). The self-time table attributes each span's
// duration minus the union of its children's intervals.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace ledger {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Small dense id of the calling thread (0 = first thread to ask), so
/// trace tracks stay readable and stable within a run.
inline std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t mine = next.fetch_add(1);
  return mine;
}

struct Span {
  const char* name = "";  ///< a string literal
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = root
  std::uint32_t tid = 0;
  Clock::time_point start;
  Clock::time_point end;
};

/// Thread-safe span sink. Ids are handed out before a span closes so
/// children can name their parent while it is still open.
class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}

  std::uint32_t reserve() { return next_id_.fetch_add(1); }

  void record(std::uint32_t id, std::uint32_t parent, const char* name,
              Clock::time_point start, Clock::time_point end) {
    const Span s{name, id, parent, thread_index(), start, end};
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(s);
  }

  /// Copy of every span recorded so far (call after worker threads end).
  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  Clock::time_point origin() const { return origin_; }

 private:
  const Clock::time_point origin_;
  std::atomic<std::uint32_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span: opens at construction, records at destruction. A null log
/// makes it a no-op, so untraced paths pay two branches.
class Scope {
 public:
  Scope(SpanLog* log, std::uint32_t parent, const char* name)
      : log_(log), parent_(parent), name_(name) {
    if (log_ != nullptr) {
      id_ = log_->reserve();
      start_ = Clock::now();
    }
  }
  ~Scope() {
    if (log_ != nullptr) log_->record(id_, parent_, name_, start_, Clock::now());
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::uint32_t id() const { return id_; }

 private:
  SpanLog* log_;
  std::uint32_t parent_;
  const char* name_;
  std::uint32_t id_ = 0;
  Clock::time_point start_;
};

struct SelfTimeRow {
  std::uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

/// Per span name: count, summed duration, and summed self time (duration
/// minus the union of the child intervals, clipped to the parent). Union,
/// not sum: trials on worker threads overlap inside their engine run.
inline std::map<std::string, SelfTimeRow> self_times(
    const std::vector<Span>& spans) {
  std::map<std::uint32_t, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, SelfTimeRow> rows;
  for (const Span& s : spans) {
    double covered = 0.0;
    const auto it = children.find(s.id);
    if (it != children.end()) {
      std::vector<std::pair<Clock::time_point, Clock::time_point>> iv;
      for (const Span* c : it->second) {
        iv.emplace_back(std::max(c->start, s.start), std::min(c->end, s.end));
      }
      std::sort(iv.begin(), iv.end());
      Clock::time_point cur_a{}, cur_b{};
      bool open = false;
      for (const auto& [a, b] : iv) {
        if (b <= a) continue;
        if (open && a <= cur_b) {
          cur_b = std::max(cur_b, b);
          continue;
        }
        if (open) covered += seconds_between(cur_a, cur_b);
        cur_a = a;
        cur_b = b;
        open = true;
      }
      if (open) covered += seconds_between(cur_a, cur_b);
    }
    SelfTimeRow& r = rows[s.name];
    const double dur = seconds_between(s.start, s.end);
    ++r.count;
    r.total_s += dur;
    r.self_s += dur - covered;
  }
  return rows;
}

/// Writes the spans as Chrome trace-event JSON: one complete ("X") event
/// per span on its thread's track, with the span and parent ids as args.
/// `metadata` is a JSON object literal stored under "otherData".
inline bool write_chrome_json(const std::string& path,
                              const std::vector<Span>& spans,
                              Clock::time_point origin,
                              const std::string& metadata) {
  std::ofstream f(path);
  if (!f) return false;
  std::vector<std::uint32_t> tids;
  for (const Span& s : spans) tids.push_back(s.tid);
  std::sort(tids.begin(), tids.end());
  tids.erase(std::unique(tids.begin(), tids.end()), tids.end());

  f << "{\n  \"displayTimeUnit\": \"ms\",\n  \"otherData\": " << metadata
    << ",\n  \"traceEvents\": [\n";
  f << "    {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
       "\"args\": {\"name\": \"perfledger\"}}";
  char buf[320];
  for (const std::uint32_t t : tids) {
    std::snprintf(buf, sizeof buf,
                  ",\n    {\"name\": \"thread_name\", \"ph\": \"M\", "
                  "\"pid\": 1, \"tid\": %u, \"args\": {\"name\": \"%s%u\"}}",
                  t, t == 0 ? "main" : "worker", t);
    f << buf;
  }
  for (const Span& s : spans) {
    const double ts = seconds_between(origin, s.start) * 1e6;
    const double dur = seconds_between(s.start, s.end) * 1e6;
    std::snprintf(buf, sizeof buf,
                  ",\n    {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                  "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                  "\"args\": {\"id\": %u, \"parent\": %u}}",
                  s.name, s.tid, ts, dur, s.id, s.parent);
    f << buf;
  }
  f << "\n  ]\n}\n";
  return static_cast<bool>(f);
}

}  // namespace ledger
