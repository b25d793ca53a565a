#ifndef NWC_BENCH_UTIL_EXPERIMENT_H_
#define NWC_BENCH_UTIL_EXPERIMENT_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/knwc_engine.h"
#include "core/nwc_engine.h"
#include "core/nwc_types.h"
#include "datasets/dataset.h"
#include "grid/density_grid.h"
#include "rtree/iwp_index.h"
#include "rtree/rstar_tree.h"

namespace nwc {

/// A named optimization preset, as the paper's Table 3 labels them.
struct Scheme {
  std::string name;
  NwcOptions options;
};

/// The seven schemes of Table 3 in paper order:
/// NWC, SRR, DIP, DEP, IWP, NWC+, NWC*.
std::vector<Scheme> AllSchemes();

/// Paper defaults (Sec. 5): n = 8, l = w = 8, grid cell 25, 25 queries.
inline constexpr size_t kDefaultN = 8;
inline constexpr double kDefaultWindow = 8.0;
inline constexpr double kDefaultGridCell = 25.0;
inline constexpr size_t kDefaultQueryCount = 25;

/// Number of queries per experiment point: NWC_QUERIES env var if set,
/// otherwise the paper's 25. A value that is not a whole positive integer
/// prints an error naming the variable and exits the process with 2.
size_t QueryCountFromEnv();

/// Dataset scale factor in (0, 1]: NWC_SCALE env var if set, otherwise 1
/// (the paper's full cardinalities). The unoptimized NWC scheme visits
/// every object and issues one window query each, so full-scale sweeps
/// take a while on one core; NWC_SCALE trades fidelity for turnaround. A
/// value that is not a whole number in (0, 1] prints an error naming the
/// variable and exits the process with 2.
double DatasetScaleFromEnv();

/// `cardinality` scaled by DatasetScaleFromEnv(), at least 1.
size_t ScaledCardinality(size_t cardinality);

/// A dataset with every index structure the schemes need: the R*-tree
/// (STR bulk-loaded with the paper's page parameters), the IWP pointer
/// structure, and density grids per requested cell size (built lazily and
/// cached).
class ExperimentFixture {
 public:
  /// Builds the tree and IWP index for `dataset`.
  explicit ExperimentFixture(Dataset dataset);

  ExperimentFixture(ExperimentFixture&&) = default;

  const Dataset& dataset() const { return dataset_; }
  const RStarTree& tree() const { return tree_; }
  const IwpIndex& iwp() const { return iwp_; }

  /// Returns (building on first use) the density grid with the given cell
  /// side length.
  const DensityGrid& GridFor(double cell_size);

 private:
  Dataset dataset_;
  RStarTree tree_;
  IwpIndex iwp_;
  std::map<double, std::unique_ptr<DensityGrid>> grids_;
};

/// Uniform random query locations over the dataset's space, deterministic
/// per seed (the paper averages 25 queries per experiment point; it does
/// not specify the location distribution — uniform is our default,
/// recorded in EXPERIMENTS.md).
std::vector<Point> SampleQueryPoints(const Dataset& dataset, size_t count, uint64_t seed);

/// Data-biased query locations: each is a random object's position plus
/// Gaussian jitter of the given standard deviation (clamped to the
/// space). Models users who stand where things are — the sensitivity
/// ablation compares this against the uniform sampler.
std::vector<Point> SampleQueryPointsNearData(const Dataset& dataset, size_t count,
                                             uint64_t seed, double jitter_stddev = 100.0);

/// Aggregates of one experiment point (one scheme at one parameter value).
struct RunStats {
  double avg_io = 0.0;        ///< mean node accesses per query (the metric)
  double avg_distance = 0.0;  ///< mean dist_best over queries that found a group
  size_t queries = 0;
  size_t found = 0;  ///< queries that produced a result
};

/// Runs `scheme` for every query location and averages the I/O cost.
/// `n`, `l`, `w` parameterize the NWC query; `grid_cell` selects the DEP
/// grid (ignored unless the scheme uses DEP).
RunStats RunNwcPoint(ExperimentFixture& fixture, const Scheme& scheme,
                     const std::vector<Point>& queries, size_t n, double l, double w,
                     double grid_cell = kDefaultGridCell);

/// kNWC variant of RunNwcPoint; avg_distance reports the mean distance of
/// the k-th (farthest) returned group.
RunStats RunKnwcPoint(ExperimentFixture& fixture, const Scheme& scheme,
                      const std::vector<Point>& queries, size_t n, double l, double w, size_t k,
                      size_t m, double grid_cell = kDefaultGridCell);

/// Formats an I/O average for table cells ("12345.6").
std::string FormatIo(double value);

}  // namespace nwc

#endif  // NWC_BENCH_UTIL_EXPERIMENT_H_
