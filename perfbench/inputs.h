#pragma once

/// \file inputs.h
/// Seeded input generators of the benchmark. They use only their own
/// random-number code, so a change under src/ cannot move a workload's
/// inputs: the same seed gives the same points, documents, query pools and
/// writer schedule on every commit.

#include <cstdint>
#include <vector>

#include "data/points.h"

namespace perfbench {

/// splitmix64-seeded xoshiro256**: small, fast and fully specified, so the
/// inputs do not depend on the standard library's distributions.
class Random {
 public:
  explicit Random(uint64_t seed);
  uint64_t Next();
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n);
  /// Uniform in [0, 1).
  double Unit();
  /// Standard normal (Box-Muller).
  double Normal();

 private:
  uint64_t s_[4];
};

/// Inverse-CDF sampler of a Zipf(exponent) law over ranks [0, n).
class ZipfSampler {
 public:
  ZipfSampler(uint32_t n, double exponent);
  uint32_t Draw(Random* random) const;

 private:
  std::vector<double> cdf_;
};

using Doc = std::vector<uint32_t>;

// --- ann_stream --------------------------------------------------------------

struct PointsInputs {
  static constexpr uint32_t kNumPoints = 200000;
  static constexpr uint32_t kDim = 32;
  static constexpr uint32_t kClusters = 1000;
  static constexpr double kCenterRange = 10.0;   // centers ~ U[-r, r]^dim
  static constexpr double kClusterStddev = 0.5;  // per coordinate
  static constexpr double kQueryNoise = 0.1;     // per coordinate
  static constexpr uint32_t kQueries = 6144;     // distinct query pool
  /// Every kExactCopyEvery-th query is an exact copy of a data point.
  static constexpr uint32_t kExactCopyEvery = 16;

  genie::data::PointMatrix points;
  genie::data::PointMatrix queries;
  /// For exact-copy queries, the data point they copy; else UINT32_MAX.
  std::vector<uint32_t> copy_of;
};

PointsInputs MakePointsInputs(uint64_t seed);

// --- serve_mixed / remote_scatter -------------------------------------------

struct DocsInputs {
  static constexpr uint32_t kNumDocs = 200000;
  static constexpr uint32_t kVocabulary = 20000;
  static constexpr double kZipfExponent = 1.05;
  static constexpr uint32_t kMinTokens = 5;
  static constexpr uint32_t kMaxTokens = 16;
  static constexpr uint32_t kPoolSize = 4096;  // distinct queries
  /// Tokens of a pool query replaced by fresh Zipf draws (of those taken
  /// from a sampled document).
  static constexpr double kReplaceRate = 0.3;

  std::vector<Doc> docs;
  std::vector<Doc> pool;
};

DocsInputs MakeDocsInputs(uint64_t seed);

/// The serve_mixed writer's fixed open-loop schedule: step s is due at
/// s * kPeriodS after the timed phase starts, inserts inserts[s] and removes
/// kRemovesPerStep ids. The ids to remove come from base_victims (a seeded
/// permutation prefix of the initial ids) and from the documents the writer
/// itself inserted kRecycleLag steps earlier.
struct WriterSchedule {
  static constexpr double kPeriodS = 0.02;  // 50 steps/s
  static constexpr uint32_t kInsertsPerStep = 8;
  static constexpr uint32_t kRemovesPerStep = 8;
  static constexpr uint32_t kRecycleLag = 16;
  static constexpr uint32_t kRecyclePerStep = 4;
  static constexpr uint32_t kMaxSteps = 4000;

  std::vector<std::vector<Doc>> inserts;  // per step
  std::vector<uint32_t> base_victims;     // consumed in order
};

WriterSchedule MakeWriterSchedule(uint64_t seed);

/// Skewed reader draws over the query pool: Zipf(kReaderSkew) ranks mapped
/// through a seeded permutation, so hot queries repeat.
struct ReaderSchedule {
  static constexpr double kReaderSkew = 0.9;
  static constexpr uint32_t kDrawsPerReader = 1 << 17;
  std::vector<std::vector<uint32_t>> draws;  // per reader thread
};

ReaderSchedule MakeReaderSchedule(uint64_t seed, uint32_t readers,
                                  uint32_t pool_size);

/// Seeded permutation of [0, n).
std::vector<uint32_t> SeededPermutation(uint64_t seed, uint32_t n);

}  // namespace perfbench
