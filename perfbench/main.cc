/// GENIE end-to-end benchmark: the program perfbench/run.py builds and runs.
///
///   genie_perfbench --workload <ann_stream|serve_mixed|remote_scatter>
///                   --seed <n> --seconds <s> --trace <0|1> --out-dir <dir>
///   genie_perfbench --self-test
///
/// Prints progress and diagnostics on stderr and, as the last line of
/// stdout, one JSON object: {"correct", "attempted", "failed", "metrics"}.
/// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
/// (--trace 1) report the per-layer metrics and write their spans to
/// <out-dir>/trace-<workload>-<seed>.jsonl.

#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "common/simd.h"
#include "reference.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: genie_perfbench --workload <ann_stream|serve_mixed|"
               "remote_scatter> --seed <n> --seconds <s> --trace <0|1> "
               "--out-dir <dir>\n       genie_perfbench --self-test\n");
  return 2;
}

void PrintNumber(double value) {
  if (std::isfinite(value)) {
    std::printf("%.17g", value);
  } else {
    std::printf("null");
  }
}

void PrintResult(const perfbench::RunReport& report) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const perfbench::Metric& m = report.metrics[i];
    std::printf("%s\"%s\": {\"value\": ", i == 0 ? "" : ", ", m.name.c_str());
    PrintNumber(m.value);
    std::printf(", \"unit\": \"%s\"}", m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  // Serve every allocation from the heap and never trim it. The c-PQ match
  // path allocates a fresh, zeroed count-table arena on the simulated
  // device for each stream chunk (about 391 MB per 1,024 ann_stream
  // queries); by default glibc maps and unmaps such blocks each time, so
  // every chunk faults its pages in again. On the virtual reference host
  // those faults cost a varying share of the run (about 1.2 million faults
  // and 2.5-2.9 s of system time per 10 s ann_stream run), which roughly
  // doubled the run-to-run spread of its throughput. With the arena kept in
  // the heap the zeroing is still paid on every chunk; the page faults are
  // not.
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, -1);

  perfbench::RunOptions options;
  bool self_test_only = false;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      self_test_only = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage();
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0)) return Usage();
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return Usage();
      options.trace = value == "1";
    } else if (arg == "--out-dir") {
      options.out_dir = value;
    } else {
      return Usage();
    }
  }

  // Every run first shows that each checker rejects a wrong answer.
  const std::vector<std::string> checker_faults = perfbench::SelfTestCheckers();
  for (const std::string& fault : checker_faults) {
    std::fprintf(stderr, "checker self-test: %s\n", fault.c_str());
  }
  if (self_test_only) {
    std::fprintf(stderr, "checker self-test: %s\n",
                 checker_faults.empty() ? "all checkers reject wrong answers"
                                        : "FAILED");
    return checker_faults.empty() ? 0 : 1;
  }
  if (!have_workload || options.out_dir.empty()) return Usage();

  std::fprintf(stderr,
               "host: nproc=%u simd=%s compiler=%s build=%s | workload=%s "
               "seed=%llu seconds=%g trace=%d\n",
               std::thread::hardware_concurrency(),
               genie::simd::ArchName(genie::simd::ActiveOps().arch),
               GENIE_PERFBENCH_CXX, GENIE_PERFBENCH_BUILD_TYPE,
               options.workload.c_str(),
               static_cast<unsigned long long>(options.seed), options.seconds,
               options.trace ? 1 : 0);

  perfbench::Tracer tracer(options.trace);
  perfbench::RunReport report;
  if (options.workload == "ann_stream") {
    report = perfbench::RunAnnStream(options, &tracer);
  } else if (options.workload == "serve_mixed") {
    report = perfbench::RunServeMixed(options, &tracer);
  } else if (options.workload == "remote_scatter") {
    report = perfbench::RunRemoteScatter(options, &tracer);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return Usage();
  }
  if (!checker_faults.empty()) report.Fail("checker self-test failed");

  if (options.trace) {
    for (const auto& [name, unit] : perfbench::PerLayerMetrics()) {
      const auto it = report.layer.find(name);
      report.Set(name, it == report.layer.end() ? 0.0 : it->second, unit);
    }
    const std::string path = options.out_dir + "/trace-" + options.workload +
                             "-" + std::to_string(options.seed) + ".jsonl";
    if (!tracer.WriteJsonLines(path)) {
      report.Fail("could not write spans to " + path);
    } else {
      std::fprintf(stderr, "spans: %zu written to %s\n", tracer.size(),
                   path.c_str());
    }
  }
  for (const std::string& error : report.errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", error.c_str());
  }
  for (const perfbench::Metric& m : report.metrics) {
    std::fprintf(stderr, "  %-28s %16.6f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  PrintResult(report);
  return 0;
}
