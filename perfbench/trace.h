#pragma once

/// \file trace.h
/// In-memory span recorder of the traced run. Spans are recorded from the
/// benchmark's own code around each call into a layer (name, start, end,
/// parent span, request id), kept in memory and written out at exit as
/// JSON lines. A disabled tracer records nothing.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  // static string
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = root
  uint64_t request = 0;  // 0 = not part of a request
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Records [start, end) of one call.
  void Record(const char* name, int64_t start_ns, int64_t end_ns,
              uint64_t parent = 0, uint64_t request = 0);

  /// Reserves a span id before the span ends, so children recorded while
  /// it runs can name it as parent; RecordWithId closes it.
  uint64_t NextId();
  void RecordWithId(uint64_t id, const char* name, int64_t start_ns,
                    int64_t end_ns, uint64_t parent = 0, uint64_t request = 0);

  /// Per span name: total self seconds (duration minus the part of the
  /// interval that its child spans cover) and span count.
  struct NameTotals {
    double self_s = 0;
    uint64_t count = 0;
  };
  std::map<std::string, NameTotals> SelfTimes() const;

  size_t size() const;

  /// Writes one JSON object per span; times are microseconds since the
  /// first recorded span.
  bool WriteJsonLines(const std::string& path) const;

 private:
  const bool enabled_;
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// RAII span around one call: records on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t parent = 0,
             uint64_t request = 0)
      : tracer_(tracer),
        name_(name),
        parent_(parent),
        request_(request),
        id_(tracer->enabled() ? tracer->NextId() : 0),
        start_ns_(NowNs()) {}
  ~ScopedSpan() {
    if (id_ != 0) {
      tracer_->RecordWithId(id_, name_, start_ns_, NowNs(), parent_, request_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  const char* name_;
  uint64_t parent_;
  uint64_t request_;
  uint64_t id_;
  int64_t start_ns_;
};

}  // namespace perfbench
