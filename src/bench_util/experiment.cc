#include "bench_util/experiment.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>

#include "common/rng.h"
#include "common/string_util.h"
#include "rtree/bulk_load.h"

namespace nwc {

std::vector<Scheme> AllSchemes() {
  return {
      Scheme{"NWC", NwcOptions::Plain()}, Scheme{"SRR", NwcOptions::Srr()},
      Scheme{"DIP", NwcOptions::Dip()},   Scheme{"DEP", NwcOptions::Dep()},
      Scheme{"IWP", NwcOptions::Iwp()},   Scheme{"NWC+", NwcOptions::Plus()},
      Scheme{"NWC*", NwcOptions::Star()},
  };
}

namespace {

// Stops the bench binary (exit 2) over an unusable environment value.
[[noreturn]] void RejectEnv(const char* name, const char* value, const char* expected) {
  std::fprintf(stderr, "error: %s='%s' is not %s\n", name, value, expected);
  std::exit(2);
}

}  // namespace

size_t QueryCountFromEnv() {
  const char* env = std::getenv("NWC_QUERIES");
  if (env == nullptr) return kDefaultQueryCount;
  const std::optional<size_t> value = ParseNumber<size_t>(env);
  if (!value || *value == 0) RejectEnv("NWC_QUERIES", env, "a positive integer");
  return *value;
}

double DatasetScaleFromEnv() {
  const char* env = std::getenv("NWC_SCALE");
  if (env == nullptr) return 1.0;
  const std::optional<double> value = ParseFinite(env);
  if (!value || !(*value > 0.0 && *value <= 1.0)) RejectEnv("NWC_SCALE", env, "a number in (0, 1]");
  return *value;
}

size_t ScaledCardinality(size_t cardinality) {
  const double scaled = static_cast<double>(cardinality) * DatasetScaleFromEnv();
  return std::max<size_t>(1, static_cast<size_t>(scaled));
}

ExperimentFixture::ExperimentFixture(Dataset dataset)
    : dataset_(std::move(dataset)),
      tree_(BulkLoadStr(dataset_.objects, RTreeOptions{})),
      iwp_(IwpIndex::Build(tree_)) {}

const DensityGrid& ExperimentFixture::GridFor(double cell_size) {
  auto it = grids_.find(cell_size);
  if (it == grids_.end()) {
    it = grids_
             .emplace(cell_size,
                      std::make_unique<DensityGrid>(dataset_.space, cell_size, dataset_.objects))
             .first;
  }
  return *it->second;
}

std::vector<Point> SampleQueryPoints(const Dataset& dataset, size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> points;
  points.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    points.push_back(Point{rng.NextDouble(dataset.space.min_x, dataset.space.max_x),
                           rng.NextDouble(dataset.space.min_y, dataset.space.max_y)});
  }
  return points;
}

std::vector<Point> SampleQueryPointsNearData(const Dataset& dataset, size_t count,
                                             uint64_t seed, double jitter_stddev) {
  Rng rng(seed ^ 0xB1A5ED);
  std::vector<Point> points;
  points.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    Point p{dataset.space.Center().x, dataset.space.Center().y};
    if (!dataset.objects.empty()) {
      const DataObject& anchor =
          dataset.objects[rng.NextUint64(dataset.objects.size())];
      p = Point{anchor.pos.x + rng.NextGaussian(0.0, jitter_stddev),
                anchor.pos.y + rng.NextGaussian(0.0, jitter_stddev)};
    }
    p.x = std::min(std::max(p.x, dataset.space.min_x), dataset.space.max_x);
    p.y = std::min(std::max(p.y, dataset.space.min_y), dataset.space.max_y);
    points.push_back(p);
  }
  return points;
}

RunStats RunNwcPoint(ExperimentFixture& fixture, const Scheme& scheme,
                     const std::vector<Point>& queries, size_t n, double l, double w,
                     double grid_cell) {
  const DensityGrid* grid =
      scheme.options.use_dep ? &fixture.GridFor(grid_cell) : nullptr;
  const IwpIndex* iwp = scheme.options.use_iwp ? &fixture.iwp() : nullptr;
  NwcEngine engine(fixture.tree(), iwp, grid);

  RunStats stats;
  double io_sum = 0.0;
  double dist_sum = 0.0;
  for (const Point& q : queries) {
    IoCounter io;
    const Result<NwcResult> result =
        engine.Execute(NwcQuery{q, l, w, n}, scheme.options, &io);
    CheckOk(result.status(), "RunNwcPoint");
    io_sum += static_cast<double>(io.query_total());
    if (result->found) {
      ++stats.found;
      dist_sum += result->distance;
    }
  }
  stats.queries = queries.size();
  stats.avg_io = queries.empty() ? 0.0 : io_sum / static_cast<double>(queries.size());
  stats.avg_distance = stats.found == 0 ? 0.0 : dist_sum / static_cast<double>(stats.found);
  return stats;
}

RunStats RunKnwcPoint(ExperimentFixture& fixture, const Scheme& scheme,
                      const std::vector<Point>& queries, size_t n, double l, double w, size_t k,
                      size_t m, double grid_cell) {
  const DensityGrid* grid =
      scheme.options.use_dep ? &fixture.GridFor(grid_cell) : nullptr;
  const IwpIndex* iwp = scheme.options.use_iwp ? &fixture.iwp() : nullptr;
  KnwcEngine engine(fixture.tree(), iwp, grid);

  RunStats stats;
  double io_sum = 0.0;
  double dist_sum = 0.0;
  for (const Point& q : queries) {
    IoCounter io;
    const Result<KnwcResult> result =
        engine.Execute(KnwcQuery{NwcQuery{q, l, w, n}, k, m}, scheme.options, &io);
    CheckOk(result.status(), "RunKnwcPoint");
    io_sum += static_cast<double>(io.query_total());
    if (!result->groups.empty()) {
      ++stats.found;
      dist_sum += result->groups.back().distance;
    }
  }
  stats.queries = queries.size();
  stats.avg_io = queries.empty() ? 0.0 : io_sum / static_cast<double>(queries.size());
  stats.avg_distance = stats.found == 0 ? 0.0 : dist_sum / static_cast<double>(stats.found);
  return stats;
}

std::string FormatIo(double value) { return StrFormat("%.1f", value); }

}  // namespace nwc
