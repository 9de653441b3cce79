#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace perfbench {

namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

/// Distinct streams per purpose, so adding a draw to one generator does
/// not shift another's inputs.
uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  uint64_t state = seed * 0x100000001b3ULL + stream;
  return SplitMix64(&state);
}

Doc ZipfDoc(const ZipfSampler& zipf, Random* random) {
  const uint32_t span = DocsInputs::kMaxTokens - DocsInputs::kMinTokens + 1;
  const uint32_t length =
      DocsInputs::kMinTokens + static_cast<uint32_t>(random->Below(span));
  Doc doc(length);
  for (uint32_t& token : doc) token = zipf.Draw(random);
  return doc;
}

}  // namespace

Random::Random(uint64_t seed) {
  uint64_t state = seed;
  for (uint64_t& s : s_) s = SplitMix64(&state);
}

uint64_t Random::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Random::Below(uint64_t n) { return Next() % n; }

double Random::Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

double Random::Normal() {
  const double u1 = 1.0 - Unit();  // (0, 1]
  const double u2 = Unit();
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

ZipfSampler::ZipfSampler(uint32_t n, double exponent) : cdf_(n) {
  double sum = 0;
  for (uint32_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i) + 1.0, exponent);
    cdf_[i] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

uint32_t ZipfSampler::Draw(Random* random) const {
  const double u = random->Unit();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<uint32_t>(
      std::min<size_t>(it - cdf_.begin(), cdf_.size() - 1));
}

std::vector<uint32_t> SeededPermutation(uint64_t seed, uint32_t n) {
  std::vector<uint32_t> perm(n);
  for (uint32_t i = 0; i < n; ++i) perm[i] = i;
  Random random(seed);
  for (uint32_t i = n; i > 1; --i) {
    std::swap(perm[i - 1], perm[random.Below(i)]);
  }
  return perm;
}

PointsInputs MakePointsInputs(uint64_t seed) {
  using P = PointsInputs;
  PointsInputs in;
  Random random(StreamSeed(seed, 1));
  genie::data::PointMatrix centers(P::kClusters, P::kDim);
  for (uint32_t c = 0; c < P::kClusters; ++c) {
    for (float& v : centers.mutable_row(c)) {
      v = static_cast<float>((2.0 * random.Unit() - 1.0) * P::kCenterRange);
    }
  }
  in.points = genie::data::PointMatrix(P::kNumPoints, P::kDim);
  for (uint32_t i = 0; i < P::kNumPoints; ++i) {
    const auto center = centers.row(static_cast<uint32_t>(
        random.Below(P::kClusters)));
    auto row = in.points.mutable_row(i);
    for (uint32_t j = 0; j < P::kDim; ++j) {
      row[j] = static_cast<float>(center[j] +
                                  P::kClusterStddev * random.Normal());
    }
  }
  in.queries = genie::data::PointMatrix(P::kQueries, P::kDim);
  in.copy_of.assign(P::kQueries, UINT32_MAX);
  for (uint32_t q = 0; q < P::kQueries; ++q) {
    const uint32_t source = static_cast<uint32_t>(random.Below(P::kNumPoints));
    const auto src = in.points.row(source);
    auto row = in.queries.mutable_row(q);
    const bool exact = q % P::kExactCopyEvery == 0;
    for (uint32_t j = 0; j < P::kDim; ++j) {
      row[j] = exact ? src[j]
                     : static_cast<float>(src[j] +
                                          P::kQueryNoise * random.Normal());
    }
    if (exact) in.copy_of[q] = source;
  }
  return in;
}

DocsInputs MakeDocsInputs(uint64_t seed) {
  using D = DocsInputs;
  DocsInputs in;
  const ZipfSampler zipf(D::kVocabulary, D::kZipfExponent);
  Random random(StreamSeed(seed, 2));
  in.docs.reserve(D::kNumDocs);
  for (uint32_t i = 0; i < D::kNumDocs; ++i) {
    in.docs.push_back(ZipfDoc(zipf, &random));
  }
  // Pin the token universe to the whole vocabulary from the start, so a
  // query token is never outside the engine's universe while a later
  // insert holds it.
  in.docs[0].push_back(D::kVocabulary - 1);

  in.pool.reserve(D::kPoolSize);
  for (uint32_t q = 0; q < D::kPoolSize; ++q) {
    Doc query = in.docs[random.Below(D::kNumDocs)];
    for (uint32_t& token : query) {
      if (random.Unit() < D::kReplaceRate) token = zipf.Draw(&random);
    }
    in.pool.push_back(std::move(query));
  }
  return in;
}

WriterSchedule MakeWriterSchedule(uint64_t seed) {
  using W = WriterSchedule;
  WriterSchedule schedule;
  const ZipfSampler zipf(DocsInputs::kVocabulary, DocsInputs::kZipfExponent);
  Random random(StreamSeed(seed, 3));
  schedule.inserts.resize(W::kMaxSteps);
  for (std::vector<Doc>& step : schedule.inserts) {
    for (uint32_t i = 0; i < W::kInsertsPerStep; ++i) {
      step.push_back(ZipfDoc(zipf, &random));
    }
  }
  // Document 0 pins the token universe (MakeDocsInputs) and stays live.
  const std::vector<uint32_t> perm =
      SeededPermutation(StreamSeed(seed, 4), DocsInputs::kNumDocs);
  const size_t victims = static_cast<size_t>(W::kMaxSteps) * W::kRemovesPerStep;
  for (size_t i = 0; i < perm.size() && schedule.base_victims.size() < victims;
       ++i) {
    if (perm[i] != 0) schedule.base_victims.push_back(perm[i]);
  }
  return schedule;
}

ReaderSchedule MakeReaderSchedule(uint64_t seed, uint32_t readers,
                                  uint32_t pool_size) {
  ReaderSchedule schedule;
  const ZipfSampler zipf(pool_size, ReaderSchedule::kReaderSkew);
  const std::vector<uint32_t> rank_to_query =
      SeededPermutation(StreamSeed(seed, 5), pool_size);
  schedule.draws.resize(readers);
  for (uint32_t r = 0; r < readers; ++r) {
    Random random(StreamSeed(seed, 16 + r));
    std::vector<uint32_t>& draws = schedule.draws[r];
    draws.resize(ReaderSchedule::kDrawsPerReader);
    for (uint32_t& d : draws) d = rank_to_query[zipf.Draw(&random)];
  }
  return schedule;
}

}  // namespace perfbench
