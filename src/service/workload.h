#ifndef NWC_SERVICE_WORKLOAD_H_
#define NWC_SERVICE_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/nwc_types.h"
#include "geometry/rect.h"
#include "service/snapshot.h"

namespace nwc {

/// One parsed query of a workload: either an NWC or a kNWC query.
/// Exactly the member matching `is_knwc` is meaningful.
struct WorkloadEntry {
  bool is_knwc = false;
  NwcQuery nwc;
  KnwcQuery knwc;
};

/// Parses a workload file: one query per line — `nwc X Y L W N` or
/// `knwc X Y L W N K M` — with '#' comments and blank lines skipped.
/// Every field is parsed whole: X, Y, L and W must be finite numbers and
/// N, K and M unsigned integers with no sign. Trailing junk on a line is
/// an error (a typo'd line must not silently serve a different query than
/// the user wrote). Fails on an empty file.
///
/// Shared by `nwc_tool serve-batch` (file replay) and `nwc_load` (network
/// load generation), so the same file drives both paths.
Result<std::vector<WorkloadEntry>> LoadWorkloadFile(const std::string& path);

/// Synthesizes a deterministic skewed workload over `space`: 80% of the
/// queries aim at a hotspot covering 20% of each axis (the classic 80/20
/// rule), the rest are uniform; every eighth entry is a kNWC query. Window
/// extents are sized relative to the space so queries are selective but
/// non-trivial. The same (count, seed, space) always yields the same
/// workload.
std::vector<WorkloadEntry> MakeSkewedWorkload(size_t count, uint64_t seed, const Rect& space);

/// One step of a dynamic (mutating) workload: either a data mutation or a
/// query. Exactly the member matching `is_query` is meaningful.
struct MutationStep {
  bool is_query = false;
  Mutation mutation;    ///< when !is_query
  WorkloadEntry query;  ///< when is_query
};

/// Parameters for MakeMutationWorkload. The defaults give a 10%-churn
/// stream (the bench's headline setting) over a 1000-unit square.
struct MutationWorkloadConfig {
  size_t steps = 1000;          ///< total interleaved steps
  uint64_t seed = 1;
  Rect space{0.0, 0.0, 1000.0, 1000.0};
  /// Fraction of steps that are mutations — exactly
  /// llround(steps * churn_ratio) of them, placed pseudo-randomly.
  double churn_ratio = 0.1;
  /// Of the mutation steps, the probability each is an insert (deletes
  /// that find no live object degrade to inserts, so effective insert
  /// share can run slightly higher early on).
  double insert_fraction = 0.5;
  /// Objects seeded into `initial` before the stream starts (ids 0..n-1;
  /// stream inserts continue the id sequence).
  size_t initial_objects = 200;
  /// Probability a query step is a kNWC query.
  double knwc_fraction = 0.125;

  Status Validate() const;
};

/// A generated dynamic workload: the seed dataset plus the step stream.
/// Every delete in `steps` names an object that is genuinely live at that
/// point of the stream (the generator replays its own mutations), so a
/// faithful replayer never sees NotFound.
struct MutationWorkload {
  std::vector<DataObject> initial;
  std::vector<MutationStep> steps;
};

/// Synthesizes a deterministic interleaved insert/delete/NWC/kNWC stream.
/// The same config always yields the same workload — the tests' oracle,
/// the serve-batch replay path and the churn bench all share it. Asserts
/// on an invalid config (callers validate user input first).
MutationWorkload MakeMutationWorkload(const MutationWorkloadConfig& config);

/// Parses a mutation replay file: one mutation per line — `insert ID X Y`
/// or `delete ID X Y` — with '#' comments and blank lines skipped and a
/// line holding only `---` closing the current batch. Trailing junk on a
/// line is an error. Fails on a file with no mutations.
Result<std::vector<MutationBatch>> LoadMutationFile(const std::string& path);

/// Writes `batches` in the format LoadMutationFile parses (coordinates
/// round-trip exactly via %.17g).
Status WriteMutationFile(const std::string& path, const std::vector<MutationBatch>& batches);

}  // namespace nwc

#endif  // NWC_SERVICE_WORKLOAD_H_
