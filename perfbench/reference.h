#pragma once

/// \file reference.h
/// The benchmark's own answer checkers. None of them calls into src/: each
/// recomputes what the engine should have returned from the inputs alone.
/// Each check returns an empty string when the answer is right and a
/// one-line description of the first fault otherwise.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "api/types.h"
#include "inputs.h"

namespace perfbench {

// --- Points ------------------------------------------------------------------

/// Exact Euclidean distance, accumulated in double.
double ExactL2(std::span<const float> a, std::span<const float> b);

/// Exact k nearest neighbours of `query` by L2 (ids, nearest first).
std::vector<uint32_t> ExactKnn(const genie::data::PointMatrix& points,
                               std::span<const float> query, uint32_t k);

/// One query's hits of a re-ranked points engine: exactly k distinct ids,
/// sorted by descending score, each score equal to -L2 recomputed here.
std::string CheckPointHits(const genie::data::PointMatrix& points,
                           std::span<const float> query,
                           const genie::QueryHits& hits, uint32_t k);

/// |engine ∩ exact| / |exact|.
double Recall(const genie::QueryHits& hits, std::span<const uint32_t> exact);

// --- Documents ---------------------------------------------------------------

/// The document with duplicate tokens removed, sorted (the binary model).
Doc Dedup(const Doc& doc);

/// |a ∩ b| of two sorted, deduplicated token sets.
uint32_t Overlap(const Doc& a, const Doc& b);

/// The live set as the benchmark knows it: every id's deduplicated content
/// (base documents and the documents Insert returned ids for) and, for
/// removed ids, when their Remove returned.
class LiveSetModel {
 public:
  explicit LiveSetModel(const std::vector<Doc>& base);

  /// Maps an id Insert returned to the document it was given.
  void Insert(uint32_t id, const Doc& doc);
  /// Records that Remove(id) returned at steady-clock `when_ns`.
  void Remove(uint32_t id, int64_t when_ns);

  bool known(uint32_t id) const { return id < content_.size(); }
  bool live(uint32_t id) const { return removed_ns_[id] == kLive; }
  const Doc& content(uint32_t id) const { return content_[id]; }
  uint32_t size() const { return static_cast<uint32_t>(content_.size()); }

  /// One query's hits: distinct known ids, descending match counts, each
  /// equal to |dedup(query) ∩ dedup(doc)|, and no id whose Remove returned
  /// before the request was submitted at `submit_ns`.
  std::string CheckHits(const Doc& dedup_query, const genie::QueryHits& hits,
                        int64_t submit_ns) const;

 private:
  static constexpr int64_t kLive = INT64_MAX;
  std::vector<Doc> content_;
  std::vector<int64_t> removed_ns_;
};

/// The k best match counts of a brute-force overlap scan over the live set
/// (descending) and the k-th count, 0 when fewer than k documents overlap.
struct TopKCounts {
  std::vector<uint32_t> counts;
  uint32_t threshold = 0;
};
TopKCounts BruteForceTopK(const LiveSetModel& model, const Doc& dedup_query,
                          uint32_t k);

/// The engine's top-k count multiset and threshold against brute force.
std::string CheckTopK(const genie::QueryHits& hits, const TopKCounts& expect);

/// Feeds every checker a right answer and a deliberately wrong one (a
/// shifted score, a wrong match count, a removed id, a dropped top-k hit)
/// and returns the faults: a checker that accepts a wrong answer or rejects
/// a right one. Empty when every checker behaves.
std::vector<std::string> SelfTestCheckers();

}  // namespace perfbench
