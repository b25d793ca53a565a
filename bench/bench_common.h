#ifndef NWC_BENCH_BENCH_COMMON_H_
#define NWC_BENCH_BENCH_COMMON_H_

// Shared plumbing for the bench drivers: the three evaluation datasets
// (Table 2) at the configured scale, progress reporting, the CSV output
// directory, and the one command line of the gate binaries.

#include <sys/stat.h>

#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util/experiment.h"
#include "common/stopwatch.h"
#include "datasets/generators.h"

namespace nwc::bench {

/// Seed base shared by all drivers so every binary sees identical data.
inline constexpr uint64_t kDatasetSeed = 20160315;  // EDBT'16 opening day
inline constexpr uint64_t kQuerySeed = 42;

/// The three evaluation datasets at the NWC_SCALE-scaled cardinality.
inline std::vector<Dataset> EvaluationDatasets() {
  std::vector<Dataset> datasets;
  datasets.push_back(MakeCaLike(kDatasetSeed, ScaledCardinality(62556)));
  datasets.push_back(MakeNyLike(kDatasetSeed, ScaledCardinality(255259)));
  datasets.push_back(MakeGaussian(ScaledCardinality(250000), kDatasetSeed));
  return datasets;
}

/// Ensures ./bench_out exists and returns "bench_out/<name>".
inline std::string CsvPath(const std::string& name) {
  ::mkdir("bench_out", 0755);
  return "bench_out/" + name;
}

/// One-line progress note on stderr (the tables go to stdout).
inline void Progress(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
inline void Progress(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::fprintf(stderr, "[bench] ");
  std::vfprintf(stderr, fmt, args);
  std::fprintf(stderr, "\n");
  va_end(args);
}

/// Standard preamble: scale / query-count note for reproducibility.
inline void PrintRunConfig(const char* what) {
  std::printf("%s\n", what);
  std::printf("config: scale=%.3g (NWC_SCALE), queries/point=%zu (NWC_QUERIES)\n",
              DatasetScaleFromEnv(), QueryCountFromEnv());
}

/// main() of a gate binary: `--smoke` runs `smoke` and returns its exit
/// code; any other command line, none included, prints the usage line and
/// returns 2.
inline int RunGate(int argc, char** argv, int (*smoke)()) {
  if (argc == 2 && std::strcmp(argv[1], "--smoke") == 0) return smoke();
  std::fprintf(stderr, "usage: %s --smoke\n", argv[0]);
  return 2;
}

}  // namespace nwc::bench

#endif  // NWC_BENCH_BENCH_COMMON_H_
