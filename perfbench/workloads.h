#pragma once

/// \file workloads.h
/// The benchmark's three workloads. Each builds its inputs from the seed,
/// sets up an engine through the public genie::Engine facade, runs a
/// warm-up and then a timed phase of `seconds`, checks every answer with
/// the checkers of reference.h and reports its metrics.
///
/// Untraced runs report the end-to-end metrics. Traced runs split the
/// timed phase into an untraced half and a traced half: the per-layer
/// metrics come from the traced half (and from direct timed calls into
/// lower layers made outside the timed phase), and the difference in
/// throughput between the halves is the tracing overhead.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory for the bundle file and the span dump (inside the checkout).
  std::string out_dir;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunReport {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// End-to-end metrics (untraced runs).
  std::vector<Metric> metrics;
  /// Per-layer values by name (traced runs); see PerLayerMetrics().
  std::map<std::string, double> layer;
  std::vector<std::string> errors;

  void Set(const std::string& name, double value, const std::string& unit);
  /// Marks the run incorrect (keeps the first few messages).
  void Fail(const std::string& message);
};

RunReport RunAnnStream(const RunOptions& options, Tracer* tracer);
RunReport RunServeMixed(const RunOptions& options, Tracer* tracer);
RunReport RunRemoteScatter(const RunOptions& options, Tracer* tracer);

/// Names and units of the per-layer metrics every traced run prints, in
/// order. A layer a workload does not pass through reads 0.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

}  // namespace perfbench
