#include "service/workload.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <utility>

#include "common/rng.h"
#include "common/string_util.h"

namespace nwc {

Result<std::vector<WorkloadEntry>> LoadWorkloadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open query file " + path);
  std::vector<WorkloadEntry> entries;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const size_t start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos || line[start] == '#') continue;
    // "nwc X Y L W N" or "knwc X Y L W N K M", each field parsed whole:
    // X, Y, L and W finite numbers, N, K and M unsigned integers.
    const auto reject = [&](const std::string& what) {
      return Status::InvalidArgument("query file " + path + " line " +
                                     std::to_string(line_no) + ": " + what);
    };
    static constexpr const char* kExpected =
        "expected 'nwc X Y L W N' or 'knwc X Y L W N K M'";
    static constexpr const char* kNames[] = {"X", "Y", "L", "W", "N", "K", "M"};
    std::istringstream stream(line.substr(start));
    std::string verb, fields[7], rest;
    stream >> verb;
    const bool is_knwc = verb == "knwc";
    const size_t arity = is_knwc ? 7 : 5;
    if (!is_knwc && verb != "nwc") return reject(kExpected);
    for (size_t i = 0; i < arity; ++i) stream >> fields[i];
    if (fields[arity - 1].empty()) return reject(kExpected);
    // Reject trailing junk: 'nwc X Y L W N K M' would otherwise silently
    // drop K and M, serving a different query than the user wrote.
    std::getline(stream >> std::ws, rest);
    if (!rest.empty()) return reject("unexpected trailing '" + rest + "'");
    const auto reject_field = [&](size_t i, const char* kind) {
      return reject(std::string(kNames[i]) + " '" + fields[i] + "' is not " + kind);
    };
    double reals[4];
    for (size_t i = 0; i < 4; ++i) {
      const std::optional<double> value = ParseFinite(fields[i]);
      if (!value) return reject_field(i, "a finite number");
      reals[i] = *value;
    }
    size_t counts[3] = {0, 0, 0};
    for (size_t i = 4; i < arity; ++i) {
      const std::optional<size_t> value = ParseNumber<size_t>(fields[i]);
      if (!value) return reject_field(i, "an unsigned integer");
      counts[i - 4] = *value;
    }
    WorkloadEntry entry;
    const NwcQuery base{Point{reals[0], reals[1]}, reals[2], reals[3], counts[0]};
    if (is_knwc) {
      entry.is_knwc = true;
      entry.knwc = KnwcQuery{base, counts[1], counts[2]};
    } else {
      entry.nwc = base;
    }
    entries.push_back(entry);
  }
  if (entries.empty()) return Status::InvalidArgument("query file " + path + " holds no queries");
  return entries;
}

Status MutationWorkloadConfig::Validate() const {
  if (steps == 0) return Status::InvalidArgument("steps must be >= 1");
  if (!(churn_ratio >= 0.0 && churn_ratio <= 1.0)) {
    return Status::InvalidArgument("churn_ratio must be in [0, 1]");
  }
  if (!(insert_fraction >= 0.0 && insert_fraction <= 1.0)) {
    return Status::InvalidArgument("insert_fraction must be in [0, 1]");
  }
  if (!(knwc_fraction >= 0.0 && knwc_fraction <= 1.0)) {
    return Status::InvalidArgument("knwc_fraction must be in [0, 1]");
  }
  if (space.IsEmpty()) return Status::InvalidArgument("space must be non-empty");
  return Status::Ok();
}

MutationWorkload MakeMutationWorkload(const MutationWorkloadConfig& config) {
  CheckOk(config.Validate(), "MakeMutationWorkload config");
  Rng rng(config.seed);
  const double span_x = config.space.max_x - config.space.min_x;
  const double span_y = config.space.max_y - config.space.min_y;
  const auto random_point = [&] {
    return Point{rng.NextDouble(config.space.min_x, config.space.max_x),
                 rng.NextDouble(config.space.min_y, config.space.max_y)};
  };

  MutationWorkload workload;
  ObjectId next_id = 0;
  // `live` mirrors what a faithful replayer would hold, so generated
  // deletes always name a currently-stored (id, position) pair.
  std::vector<DataObject> live;
  workload.initial.reserve(config.initial_objects);
  for (size_t i = 0; i < config.initial_objects; ++i) {
    const DataObject obj{next_id++, random_point()};
    workload.initial.push_back(obj);
    live.push_back(obj);
  }

  // Exactly llround(steps * churn) mutation slots, shuffled among the
  // queries — an exact count (not per-step Bernoulli) so the churn ratio
  // is a contract tests and the bench gate can rely on.
  const size_t mutation_slots = static_cast<size_t>(
      std::llround(static_cast<double>(config.steps) * config.churn_ratio));
  std::vector<uint8_t> is_mutation(config.steps, 0);
  for (size_t i = 0; i < mutation_slots && i < config.steps; ++i) is_mutation[i] = 1;
  rng.Shuffle(is_mutation);

  workload.steps.reserve(config.steps);
  for (size_t i = 0; i < config.steps; ++i) {
    MutationStep step;
    if (is_mutation[i] != 0) {
      const bool do_insert =
          live.empty() || rng.NextBernoulli(config.insert_fraction);
      if (do_insert) {
        const DataObject obj{next_id++, random_point()};
        step.mutation = Mutation::Insert(obj);
        live.push_back(obj);
      } else {
        const size_t victim = static_cast<size_t>(rng.NextUint64(live.size()));
        step.mutation = Mutation::Delete(live[victim]);
        live[victim] = live.back();
        live.pop_back();
      }
    } else {
      step.is_query = true;
      // Windows span 2–6% of the larger axis: selective but non-trivial
      // against the default densities.
      const double window =
          rng.NextDouble(0.02, 0.06) * (span_x < span_y ? span_y : span_x);
      const size_t n = 2 + static_cast<size_t>(rng.NextUint64(4));  // 2..5
      const NwcQuery base{random_point(), window, window, n};
      if (rng.NextBernoulli(config.knwc_fraction)) {
        step.query.is_knwc = true;
        const size_t k = 2 + static_cast<size_t>(rng.NextUint64(2));  // 2..3
        const size_t m = static_cast<size_t>(rng.NextUint64(n));      // 0..n-1
        step.query.knwc = KnwcQuery{base, k, m};
      } else {
        step.query.nwc = base;
      }
    }
    workload.steps.push_back(step);
  }
  return workload;
}

Result<std::vector<MutationBatch>> LoadMutationFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open mutation file " + path);
  std::vector<MutationBatch> batches;
  MutationBatch current;
  std::string line;
  size_t line_no = 0;
  size_t total = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const size_t start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos || line[start] == '#') continue;
    const char* text = line.c_str() + start;
    // A `---` separator closes the current batch (empty batches are
    // dropped — they would publish an epoch with no changes).
    if (std::string(text).find_first_not_of("-\r \t") == std::string::npos &&
        text[0] == '-') {
      if (!current.empty()) batches.push_back(std::move(current));
      current.clear();
      continue;
    }
    // "insert|delete ID X Y", each field parsed whole: the id an unsigned
    // 32-bit integer, the coordinates finite numbers.
    const auto reject = [&](const std::string& what) {
      return Status::InvalidArgument("mutation file " + path + " line " +
                                     std::to_string(line_no) + ": " + what);
    };
    std::istringstream fields(text);
    std::string verb, id_text, x_text, y_text, rest;
    fields >> verb >> id_text >> x_text >> y_text;
    std::getline(fields >> std::ws, rest);
    if ((verb != "insert" && verb != "delete") || y_text.empty()) {
      return reject("expected 'insert ID X Y', 'delete ID X Y' or '---'");
    }
    if (!rest.empty()) return reject("unexpected trailing '" + rest + "'");
    const std::optional<ObjectId> id = ParseNumber<ObjectId>(id_text);
    if (!id) return reject("id '" + id_text + "' is not an integer in [0, 4294967295]");
    const std::optional<double> x = ParseFinite(x_text);
    const std::optional<double> y = ParseFinite(y_text);
    if (!x || !y) {
      return reject("coordinate '" + (x ? y_text : x_text) + "' is not a finite number");
    }
    const DataObject object{*id, Point{*x, *y}};
    const Mutation mutation =
        verb == "insert" ? Mutation::Insert(object) : Mutation::Delete(object);
    current.push_back(mutation);
    ++total;
  }
  if (!current.empty()) batches.push_back(std::move(current));
  if (total == 0) {
    return Status::InvalidArgument("mutation file " + path + " holds no mutations");
  }
  return batches;
}

Status WriteMutationFile(const std::string& path, const std::vector<MutationBatch>& batches) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open mutation file " + path + " for writing");
  out << "# mutation replay: 'insert ID X Y' / 'delete ID X Y'; '---' ends a batch\n";
  char buffer[128];
  for (const MutationBatch& batch : batches) {
    for (const Mutation& m : batch) {
      std::snprintf(buffer, sizeof(buffer), "%s %lu %.17g %.17g\n",
                    m.kind == Mutation::Kind::kInsert ? "insert" : "delete",
                    static_cast<unsigned long>(m.object.id), m.object.pos.x, m.object.pos.y);
      out << buffer;
    }
    out << "---\n";
  }
  out.flush();
  if (!out) return Status::IoError("failed writing mutation file " + path);
  return Status::Ok();
}

std::vector<WorkloadEntry> MakeSkewedWorkload(size_t count, uint64_t seed, const Rect& space) {
  Rng rng(seed);
  const double span_x = space.max_x - space.min_x;
  const double span_y = space.max_y - space.min_y;
  // Hotspot: the central 20% of each axis draws 80% of the traffic.
  const double hot_min_x = space.min_x + 0.4 * span_x;
  const double hot_min_y = space.min_y + 0.4 * span_y;
  const double window = 0.01 * (span_x < span_y ? span_y : span_x);

  std::vector<WorkloadEntry> entries;
  entries.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    Point q;
    if (rng.NextBernoulli(0.8)) {
      q = Point{rng.NextDouble(hot_min_x, hot_min_x + 0.2 * span_x),
                rng.NextDouble(hot_min_y, hot_min_y + 0.2 * span_y)};
    } else {
      q = Point{rng.NextDouble(space.min_x, space.max_x),
                rng.NextDouble(space.min_y, space.max_y)};
    }
    WorkloadEntry entry;
    const NwcQuery base{q, window, window, 4};
    if (i % 8 == 7) {
      entry.is_knwc = true;
      entry.knwc = KnwcQuery{base, 3, 2};
    } else {
      entry.nwc = base;
    }
    entries.push_back(entry);
  }
  return entries;
}

}  // namespace nwc
