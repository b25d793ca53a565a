// MakeMutationWorkload determinism and well-formedness, plus the mutation
// replay file format (WriteMutationFile / LoadMutationFile round trip and
// parse-error coverage). The dynamic differential test leans on every
// property verified here — in particular "deletes always name a live
// object", which is what lets a faithful replayer assert zero misses.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "service/workload.h"

namespace nwc {
namespace {

// Unique temp path per test; removed on destruction.
class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_(std::string(::testing::TempDir()) + "/" + name) {}
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

  void WriteText(const std::string& text) {
    std::ofstream out(path_);
    out << text;
  }

 private:
  std::string path_;
};

bool SameStep(const MutationStep& a, const MutationStep& b) {
  if (a.is_query != b.is_query) return false;
  if (!a.is_query) return a.mutation == b.mutation;
  if (a.query.is_knwc != b.query.is_knwc) return false;
  if (a.query.is_knwc) {
    return a.query.knwc.base.q == b.query.knwc.base.q &&
           a.query.knwc.base.length == b.query.knwc.base.length &&
           a.query.knwc.base.width == b.query.knwc.base.width &&
           a.query.knwc.base.n == b.query.knwc.base.n && a.query.knwc.k == b.query.knwc.k &&
           a.query.knwc.m == b.query.knwc.m;
  }
  return a.query.nwc.q == b.query.nwc.q && a.query.nwc.length == b.query.nwc.length &&
         a.query.nwc.width == b.query.nwc.width && a.query.nwc.n == b.query.nwc.n;
}

TEST(MutationWorkloadTest, SameConfigSameWorkload) {
  MutationWorkloadConfig config;
  config.steps = 500;
  config.seed = 99;
  const MutationWorkload a = MakeMutationWorkload(config);
  const MutationWorkload b = MakeMutationWorkload(config);
  ASSERT_EQ(a.initial.size(), b.initial.size());
  for (size_t i = 0; i < a.initial.size(); ++i) EXPECT_EQ(a.initial[i], b.initial[i]);
  ASSERT_EQ(a.steps.size(), b.steps.size());
  for (size_t i = 0; i < a.steps.size(); ++i) {
    EXPECT_TRUE(SameStep(a.steps[i], b.steps[i])) << "step " << i;
  }
}

TEST(MutationWorkloadTest, DifferentSeedsDiffer) {
  MutationWorkloadConfig config;
  config.steps = 500;
  config.seed = 1;
  const MutationWorkload a = MakeMutationWorkload(config);
  config.seed = 2;
  const MutationWorkload b = MakeMutationWorkload(config);
  bool any_difference = a.initial.size() != b.initial.size();
  for (size_t i = 0; !any_difference && i < a.steps.size() && i < b.steps.size(); ++i) {
    any_difference = !SameStep(a.steps[i], b.steps[i]);
  }
  EXPECT_TRUE(any_difference);
}

TEST(MutationWorkloadTest, ExactChurnCountAndStepTotal) {
  MutationWorkloadConfig config;
  config.steps = 1000;
  config.churn_ratio = 0.1;
  const MutationWorkload workload = MakeMutationWorkload(config);
  EXPECT_EQ(workload.steps.size(), 1000u);
  size_t mutations = 0;
  for (const MutationStep& step : workload.steps) mutations += step.is_query ? 0 : 1;
  EXPECT_EQ(mutations, static_cast<size_t>(std::llround(1000 * 0.1)));
  EXPECT_EQ(workload.initial.size(), config.initial_objects);
}

TEST(MutationWorkloadTest, DeletesAlwaysNameLiveObjects) {
  MutationWorkloadConfig config;
  config.steps = 2000;
  config.churn_ratio = 0.25;
  config.initial_objects = 50;  // small pool forces delete pressure
  const MutationWorkload workload = MakeMutationWorkload(config);

  std::set<std::pair<ObjectId, std::pair<double, double>>> live;
  const auto key = [](const DataObject& object) {
    return std::make_pair(object.id, std::make_pair(object.pos.x, object.pos.y));
  };
  for (const DataObject& object : workload.initial) live.insert(key(object));
  size_t deletes = 0;
  for (const MutationStep& step : workload.steps) {
    if (step.is_query) continue;
    if (step.mutation.kind == Mutation::Kind::kInsert) {
      EXPECT_TRUE(live.insert(key(step.mutation.object)).second)
          << "insert of an already-live (id, pos) pair";
    } else {
      ++deletes;
      EXPECT_EQ(live.erase(key(step.mutation.object)), 1u)
          << "delete of a dead object: id " << step.mutation.object.id;
    }
  }
  EXPECT_GT(deletes, 0u);
}

TEST(MutationWorkloadTest, QueriesStayInsideSpaceAndValidate) {
  MutationWorkloadConfig config;
  config.steps = 1000;
  const MutationWorkload workload = MakeMutationWorkload(config);
  size_t queries = 0;
  size_t knwc = 0;
  for (const MutationStep& step : workload.steps) {
    if (!step.is_query) continue;
    ++queries;
    if (step.query.is_knwc) {
      ++knwc;
      EXPECT_TRUE(step.query.knwc.Validate().ok());
    } else {
      EXPECT_TRUE(step.query.nwc.Validate().ok());
      EXPECT_GE(step.query.nwc.q.x, config.space.min_x);
      EXPECT_LE(step.query.nwc.q.x, config.space.max_x);
    }
  }
  EXPECT_GT(queries, 0u);
  EXPECT_GT(knwc, 0u);  // knwc_fraction 0.125 over ~900 queries
}

TEST(MutationFileTest, RoundTripIsExact) {
  std::vector<MutationBatch> batches(2);
  batches[0].push_back(Mutation::Insert(DataObject{7, Point{0.1, 1e-17}}));
  batches[0].push_back(Mutation::Delete(DataObject{8, Point{123.456789012345678, -2.5}}));
  batches[1].push_back(Mutation::Insert(DataObject{9, Point{1.0 / 3.0, 2.0 / 3.0}}));

  TempFile file("mutation_roundtrip.txt");
  ASSERT_TRUE(WriteMutationFile(file.path(), batches).ok());
  Result<std::vector<MutationBatch>> loaded = LoadMutationFile(file.path());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), batches.size());
  for (size_t i = 0; i < batches.size(); ++i) {
    ASSERT_EQ((*loaded)[i].size(), batches[i].size()) << "batch " << i;
    for (size_t j = 0; j < batches[i].size(); ++j) {
      EXPECT_EQ((*loaded)[i][j], batches[i][j]) << "batch " << i << " mutation " << j;
    }
  }
}

TEST(MutationFileTest, CommentsAndBlankLinesSkipped) {
  TempFile file("mutation_comments.txt");
  file.WriteText(
      "# a replay file\n"
      "\n"
      "insert 1 2.5 3.5\n"
      "---\n"
      "# next batch\n"
      "delete 1 2.5 3.5\n");
  Result<std::vector<MutationBatch>> loaded = LoadMutationFile(file.path());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), 2u);
  EXPECT_EQ((*loaded)[0].size(), 1u);
  EXPECT_EQ((*loaded)[1].size(), 1u);
  EXPECT_EQ((*loaded)[0][0], Mutation::Insert(DataObject{1, Point{2.5, 3.5}}));
}

TEST(MutationFileTest, TrailingJunkRejected) {
  TempFile file("mutation_junk.txt");
  file.WriteText("insert 1 2.0 3.0 extra\n");
  EXPECT_FALSE(LoadMutationFile(file.path()).ok());
}

// A non-finite coordinate and an id that is signed or past UINT32_MAX used
// to load as a wrapped id or a NaN position; each now rejects the file
// with the line that holds it.
TEST(MutationFileTest, UnrepresentableFieldsRejectedWithTheLine) {
  for (const char* line : {"insert 900001 nan 5000", "insert 900002 inf 5000",
                           "delete 3 5000 -inf", "insert 4294967297 1 2", "insert -5 1 2",
                           "insert 7 1 2junk", "insert 1.5 1 2", "delete 7 1"}) {
    SCOPED_TRACE(line);
    TempFile file("mutation_unrepresentable.txt");
    file.WriteText(std::string("insert 1 2.0 3.0\n---\n") + line + "\n");
    const Result<std::vector<MutationBatch>> loaded = LoadMutationFile(file.path());
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(loaded.status().ToString().find("line 3"), std::string::npos) << loaded.status();
  }
}

TEST(MutationFileTest, LargestIdLoads) {
  TempFile file("mutation_max_id.txt");
  file.WriteText("delete 4294967295 -1e3 2\r\n");
  const Result<std::vector<MutationBatch>> loaded = LoadMutationFile(file.path());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), 1u);
  EXPECT_EQ((*loaded)[0][0], Mutation::Delete(DataObject{4294967295u, Point{-1000.0, 2.0}}));
}

TEST(MutationFileTest, UnknownVerbRejected) {
  TempFile file("mutation_verb.txt");
  file.WriteText("upsert 1 2.0 3.0\n");
  EXPECT_FALSE(LoadMutationFile(file.path()).ok());
}

TEST(MutationFileTest, EmptyFileRejected) {
  TempFile file("mutation_empty.txt");
  file.WriteText("# only comments\n\n");
  EXPECT_FALSE(LoadMutationFile(file.path()).ok());
}

TEST(MutationFileTest, MissingFileRejected) {
  EXPECT_FALSE(LoadMutationFile("/nonexistent/mutations.txt").ok());
}

// A signed count used to wrap through sscanf's %lu into a huge size_t and
// serve as a query that finds no window, and a non-finite extent loaded and
// failed only later, per query. Each now rejects the file with the line and
// the field that hold it.
TEST(WorkloadFileTest, UnrepresentableFieldsRejectedWithTheLine) {
  const std::pair<const char*, const char*> cases[] = {
      {"nwc 5000 5000 400 400 -5", "N '-5'"},
      {"knwc 5000 5000 400 400 4 -3 1", "K '-3'"},
      {"knwc 5000 5000 400 400 4 3 +1", "M '+1'"},
      {"nwc 5000 5000 nan 400 5", "L 'nan'"},
      {"nwc 5000 5000 inf 400 5", "L 'inf'"},
      {"nwc 5000 5000 400 400 5 3", "unexpected trailing '3'"},
  };
  for (const auto& [line, field_text] : cases) {
    SCOPED_TRACE(line);
    TempFile file("workload_unrepresentable.txt");
    file.WriteText(std::string("nwc 1 2 3 4 5\n") + line + "\n");
    const Result<std::vector<WorkloadEntry>> loaded = LoadWorkloadFile(file.path());
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
    const std::string message = loaded.status().ToString();
    EXPECT_NE(message.find(file.path() + " line 2"), std::string::npos) << message;
    EXPECT_NE(message.find(field_text), std::string::npos) << message;
  }
}

TEST(WorkloadFileTest, GoodFileLoadsBothKinds) {
  TempFile file("workload_good.txt");
  file.WriteText(
      "# replay\n"
      "\n"
      "  nwc 5000.5 -2e3 400 300 5\r\n"
      "knwc 1 2 3 4 18446744073709551615 3 1\n");
  const Result<std::vector<WorkloadEntry>> loaded = LoadWorkloadFile(file.path());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(loaded->size(), 2u);
  const WorkloadEntry& nwc = (*loaded)[0];
  EXPECT_FALSE(nwc.is_knwc);
  EXPECT_EQ(nwc.nwc.q, (Point{5000.5, -2000.0}));
  EXPECT_EQ(nwc.nwc.length, 400.0);
  EXPECT_EQ(nwc.nwc.width, 300.0);
  EXPECT_EQ(nwc.nwc.n, 5u);
  const WorkloadEntry& knwc = (*loaded)[1];
  EXPECT_TRUE(knwc.is_knwc);
  EXPECT_EQ(knwc.knwc.base.q, (Point{1.0, 2.0}));
  EXPECT_EQ(knwc.knwc.base.length, 3.0);
  EXPECT_EQ(knwc.knwc.base.width, 4.0);
  EXPECT_EQ(knwc.knwc.base.n, SIZE_MAX);
  EXPECT_EQ(knwc.knwc.k, 3u);
  EXPECT_EQ(knwc.knwc.m, 1u);
}

}  // namespace
}  // namespace nwc
