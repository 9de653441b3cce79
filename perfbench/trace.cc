#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

uint64_t Tracer::NextId() {
  return enabled_ ? next_id_.fetch_add(1, std::memory_order_relaxed) : 0;
}

void Tracer::Record(const char* name, int64_t start_ns, int64_t end_ns,
                    uint64_t parent, uint64_t request) {
  const uint64_t id = NextId();
  if (id != 0) RecordWithId(id, name, start_ns, end_ns, parent, request);
}

void Tracer::RecordWithId(uint64_t id, const char* name, int64_t start_ns,
                          int64_t end_ns, uint64_t parent, uint64_t request) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, start_ns, end_ns, id, parent, request});
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<std::string, Tracer::NameTotals> Tracer::SelfTimes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<uint64_t, std::vector<const Span*>> children;
  for (const Span& span : spans_) {
    if (span.parent != 0) children[span.parent].push_back(&span);
  }
  std::map<std::string, NameTotals> totals;
  for (const Span& span : spans_) {
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<int64_t, int64_t>> covered;
    auto it = children.find(span.id);
    if (it != children.end()) {
      for (const Span* child : it->second) {
        const int64_t lo = std::max(child->start_ns, span.start_ns);
        const int64_t hi = std::min(child->end_ns, span.end_ns);
        if (hi > lo) covered.emplace_back(lo, hi);
      }
    }
    std::sort(covered.begin(), covered.end());
    int64_t covered_ns = 0;
    int64_t reach = INT64_MIN;
    for (const auto& [lo, hi] : covered) {
      const int64_t from = std::max(lo, reach);
      if (hi > from) covered_ns += hi - from;
      reach = std::max(reach, hi);
    }
    NameTotals& t = totals[span.name];
    t.self_s += static_cast<double>(span.end_ns - span.start_ns - covered_ns) *
                1e-9;
    ++t.count;
  }
  return totals;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t origin = INT64_MAX;
  for (const Span& span : spans_) origin = std::min(origin, span.start_ns);
  for (const Span& span : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,"
                 "\"id\":%llu,\"parent\":%llu,\"request\":%llu}\n",
                 span.name, static_cast<double>(span.start_ns - origin) * 1e-3,
                 static_cast<double>(span.end_ns - origin) * 1e-3,
                 static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent),
                 static_cast<unsigned long long>(span.request));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
