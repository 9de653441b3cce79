#include "reference.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <queue>
#include <unordered_set>

namespace perfbench {

namespace {

std::string Describe(const char* what, size_t rank, uint32_t id) {
  return std::string(what) + " (rank " + std::to_string(rank) + ", id " +
         std::to_string(id) + ")";
}

}  // namespace

double ExactL2(std::span<const float> a, std::span<const float> b) {
  double acc = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    acc += d * d;
  }
  return std::sqrt(acc);
}

std::vector<uint32_t> ExactKnn(const genie::data::PointMatrix& points,
                               std::span<const float> query, uint32_t k) {
  // Max-heap of the k best (distance, id) so far; ties broken by id.
  std::priority_queue<std::pair<double, uint32_t>> best;
  for (uint32_t i = 0; i < points.num_points(); ++i) {
    const std::pair<double, uint32_t> entry(ExactL2(points.row(i), query), i);
    if (best.size() < k) {
      best.push(entry);
    } else if (entry < best.top()) {
      best.pop();
      best.push(entry);
    }
  }
  std::vector<uint32_t> ids(best.size());
  for (size_t i = ids.size(); i-- > 0;) {
    ids[i] = best.top().second;
    best.pop();
  }
  return ids;
}

std::string CheckPointHits(const genie::data::PointMatrix& points,
                           std::span<const float> query,
                           const genie::QueryHits& hits, uint32_t k) {
  if (hits.hits.size() != k) {
    return "expected " + std::to_string(k) + " hits, got " +
           std::to_string(hits.hits.size());
  }
  std::unordered_set<uint32_t> seen;
  for (size_t r = 0; r < hits.hits.size(); ++r) {
    const genie::Hit& hit = hits.hits[r];
    if (hit.id >= points.num_points()) {
      return Describe("id out of range", r, hit.id);
    }
    if (!seen.insert(hit.id).second) return Describe("duplicate id", r, hit.id);
    const double expect = -ExactL2(points.row(hit.id), query);
    if (std::abs(hit.score - expect) > 1e-9 * (1.0 + std::abs(expect))) {
      return Describe("score is not -L2", r, hit.id) + ": " +
             std::to_string(hit.score) + " vs " + std::to_string(expect);
    }
    if (r > 0 && hit.score > hits.hits[r - 1].score) {
      return Describe("hits not sorted by score", r, hit.id);
    }
  }
  return "";
}

double Recall(const genie::QueryHits& hits, std::span<const uint32_t> exact) {
  if (exact.empty()) return 1.0;
  size_t found = 0;
  for (uint32_t id : exact) {
    for (const genie::Hit& hit : hits.hits) {
      if (hit.id == id) {
        ++found;
        break;
      }
    }
  }
  return static_cast<double>(found) / static_cast<double>(exact.size());
}

Doc Dedup(const Doc& doc) {
  Doc out = doc;
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

uint32_t Overlap(const Doc& a, const Doc& b) {
  uint32_t count = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

LiveSetModel::LiveSetModel(const std::vector<Doc>& base) {
  content_.reserve(base.size());
  for (const Doc& doc : base) content_.push_back(Dedup(doc));
  removed_ns_.assign(content_.size(), kLive);
}

void LiveSetModel::Insert(uint32_t id, const Doc& doc) {
  if (id >= content_.size()) {
    content_.resize(id + 1);
    removed_ns_.resize(id + 1, kLive);
  }
  content_[id] = Dedup(doc);
}

void LiveSetModel::Remove(uint32_t id, int64_t when_ns) {
  if (id < removed_ns_.size()) removed_ns_[id] = when_ns;
}

std::string LiveSetModel::CheckHits(const Doc& dedup_query,
                                    const genie::QueryHits& hits,
                                    int64_t submit_ns) const {
  std::unordered_set<uint32_t> seen;
  for (size_t r = 0; r < hits.hits.size(); ++r) {
    const genie::Hit& hit = hits.hits[r];
    if (!known(hit.id)) return Describe("id never inserted", r, hit.id);
    if (!seen.insert(hit.id).second) return Describe("duplicate id", r, hit.id);
    if (removed_ns_[hit.id] < submit_ns) {
      return Describe("id removed before the request", r, hit.id);
    }
    const uint32_t expect = Overlap(dedup_query, content_[hit.id]);
    if (hit.match_count != expect) {
      return Describe("wrong match count", r, hit.id) + ": " +
             std::to_string(hit.match_count) + " vs " + std::to_string(expect);
    }
    if (r > 0 && hit.match_count > hits.hits[r - 1].match_count) {
      return Describe("hits not sorted by match count", r, hit.id);
    }
  }
  return "";
}

TopKCounts BruteForceTopK(const LiveSetModel& model, const Doc& dedup_query,
                          uint32_t k) {
  uint32_t max_token = 0;
  for (uint32_t t : dedup_query) max_token = std::max(max_token, t);
  std::vector<uint8_t> in_query(static_cast<size_t>(max_token) + 1, 0);
  for (uint32_t t : dedup_query) in_query[t] = 1;

  std::vector<uint32_t> counts;
  for (uint32_t id = 0; id < model.size(); ++id) {
    if (!model.live(id)) continue;
    uint32_t count = 0;
    for (uint32_t t : model.content(id)) {
      if (t <= max_token) count += in_query[t];
    }
    if (count > 0) counts.push_back(count);
  }
  TopKCounts out;
  const size_t keep = std::min<size_t>(k, counts.size());
  std::partial_sort(counts.begin(), counts.begin() + keep, counts.end(),
                    std::greater<uint32_t>());
  out.counts.assign(counts.begin(), counts.begin() + keep);
  out.threshold = counts.size() >= k && k > 0 ? out.counts[k - 1] : 0;
  return out;
}

std::string CheckTopK(const genie::QueryHits& hits, const TopKCounts& expect) {
  std::vector<uint32_t> got;
  for (const genie::Hit& hit : hits.hits) got.push_back(hit.match_count);
  std::sort(got.begin(), got.end(), std::greater<uint32_t>());
  if (got != expect.counts) {
    std::string msg = "top-k counts differ from brute force: got";
    for (uint32_t c : got) msg += " " + std::to_string(c);
    msg += ", expected";
    for (uint32_t c : expect.counts) msg += " " + std::to_string(c);
    return msg;
  }
  if (hits.threshold != expect.threshold) {
    return "threshold " + std::to_string(hits.threshold) + " vs brute force " +
           std::to_string(expect.threshold);
  }
  return "";
}

std::vector<std::string> SelfTestCheckers() {
  std::vector<std::string> faults;
  auto expect = [&faults](bool ok_expected, const std::string& verdict,
                          const char* name) {
    if (ok_expected && !verdict.empty()) {
      faults.push_back(std::string(name) + " rejected a right answer: " +
                       verdict);
    } else if (!ok_expected && verdict.empty()) {
      faults.push_back(std::string(name) + " accepted a wrong answer");
    }
  };

  // Points: a right answer comes from ExactKnn; the wrong one shifts one
  // score by 1e-3.
  genie::data::PointMatrix points(64, 4);
  for (uint32_t i = 0; i < points.num_points(); ++i) {
    auto row = points.mutable_row(i);
    for (uint32_t j = 0; j < 4; ++j) {
      row[j] = static_cast<float>((i * 7 + j * 3) % 11);
    }
  }
  const std::vector<float> query = {1.0f, 2.0f, 3.0f, 4.0f};
  genie::QueryHits right;
  for (uint32_t id : ExactKnn(points, query, 5)) {
    right.hits.push_back({id, 0, -ExactL2(points.row(id), query)});
  }
  expect(true, CheckPointHits(points, query, right, 5), "point check");
  genie::QueryHits shifted = right;
  shifted.hits[2].score += 1e-3;
  expect(false, CheckPointHits(points, query, shifted, 5),
         "point check (shifted score)");

  // Documents: a tiny live set with one inserted and one removed id.
  const std::vector<Doc> base = {{1, 2, 3}, {2, 3, 3, 4}, {5, 6}, {1, 4, 6}};
  LiveSetModel model(base);
  model.Insert(4, {1, 2, 4, 4});
  model.Remove(2, /*when_ns=*/100);
  const Doc q = Dedup({4, 2, 1, 2});
  const TopKCounts top = BruteForceTopK(model, q, 2);
  genie::QueryHits docs_right;
  docs_right.hits = {{4, 3, 3.0}, {0, 2, 2.0}};
  docs_right.threshold = 2;
  expect(true, model.CheckHits(q, docs_right, /*submit_ns=*/200),
         "match-count check");
  expect(true, CheckTopK(docs_right, top), "top-k check");

  genie::QueryHits wrong_count = docs_right;
  wrong_count.hits[1].match_count = 3;
  expect(false, model.CheckHits(q, wrong_count, 200),
         "match-count check (wrong match count)");

  // Id 2 overlaps {5, 7} once and was removed at t=100: a request
  // submitted at t=50 may see it, one submitted at t=200 may not.
  genie::QueryHits removed;
  removed.hits = {{2, 1, 1.0}};
  expect(true, model.CheckHits(Dedup({5, 7}), removed, 50), "live-set check");
  expect(false, model.CheckHits(Dedup({5, 7}), removed, 200),
         "live-set check (removed id)");

  genie::QueryHits dropped = docs_right;
  dropped.hits.pop_back();
  expect(false, CheckTopK(dropped, top), "top-k check (dropped hit)");
  return faults;
}

}  // namespace perfbench
