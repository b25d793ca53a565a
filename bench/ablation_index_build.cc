// Ablation: how the index-construction choices affect NWC query I/O.
//
// DESIGN.md calls out two substrate design choices that the paper fixes
// implicitly: how the R*-tree is built (incremental R* insertion with
// forced reinsertion vs. plain split-on-overflow vs. STR bulk packing) and
// how full the packed nodes are. The NWC answer is identical either way
// (see EngineEdgeCaseTest.ResultInvariantUnderTreeConstruction); this
// bench quantifies the I/O consequences for the NWC+ and NWC* schemes.

#include <iterator>
#include <utility>

#include "bench/bench_common.h"
#include "bench_util/table_printer.h"
#include "common/string_util.h"
#include "core/nwc_engine.h"
#include "rtree/bulk_load.h"
#include "rtree/iwp_index.h"

namespace {

using namespace nwc;
using namespace nwc::bench;

struct BuiltIndex {
  std::string label;
  RStarTree tree;
};

double AvgIo(const RStarTree& tree, const DensityGrid& grid, const std::vector<Point>& queries,
             const NwcOptions& options) {
  const IwpIndex iwp = IwpIndex::Build(tree);
  NwcEngine engine(tree, &iwp, &grid);
  double total = 0.0;
  for (const Point& q : queries) {
    IoCounter io;
    CheckOk(engine.Execute(NwcQuery{q, 32, 32, kDefaultN}, options, &io).status(),
            "ablation_index_build");
    total += static_cast<double>(io.query_total());
  }
  return queries.empty() ? 0.0 : total / static_cast<double>(queries.size());
}

}  // namespace

int main() {
  PrintRunConfig("Ablation: index construction vs NWC query I/O (n=8, window 32x32)");
  const size_t query_count = QueryCountFromEnv();

  const size_t cardinality = ScaledCardinality(62556);
  Progress("building CA-like (%zu objects)", cardinality);
  const Dataset dataset = MakeCaLike(kDatasetSeed, cardinality);
  const DensityGrid grid(dataset.space, kDefaultGridCell, dataset.objects);
  const std::vector<Point> queries = SampleQueryPoints(dataset, query_count, kQuerySeed);

  std::vector<BuiltIndex> indexes;
  {
    BulkLoadOptions packed;
    packed.fill_factor = 1.0;
    indexes.push_back({"STR fill 1.0", BulkLoadStr(dataset.objects, RTreeOptions{}, packed)});
    BulkLoadOptions loose;
    loose.fill_factor = 0.7;
    indexes.push_back({"STR fill 0.7", BulkLoadStr(dataset.objects, RTreeOptions{}, loose)});
  }
  {
    Progress("R* insertion with forced reinsert...");
    RStarTree tree{RTreeOptions{}};
    for (const DataObject& obj : dataset.objects) tree.Insert(obj);
    indexes.push_back({"R* insert (reinsert on)", std::move(tree)});
  }
  {
    Progress("R* insertion without forced reinsert...");
    RTreeOptions options;
    options.forced_reinsert = false;
    RStarTree tree{options};
    for (const DataObject& obj : dataset.objects) tree.Insert(obj);
    indexes.push_back({"R* insert (reinsert off)", std::move(tree)});
  }

  TablePrinter table("Index construction ablation (CA-like)",
                     {"construction", "nodes", "height", "NWC+ io", "NWC* io"});
  for (BuiltIndex& built : indexes) {
    Progress("measuring %s", built.label.c_str());
    table.AddRow({built.label, WithThousandsSeparators(built.tree.node_count()),
                  StrFormat("%d", built.tree.height()),
                  FormatIo(AvgIo(built.tree, grid, queries, NwcOptions::Plus())),
                  FormatIo(AvgIo(built.tree, grid, queries, NwcOptions::Star()))});
  }

  table.Print();
  table.WriteCsv(CsvPath("ablation_index_build.csv"));
  std::printf("\nCheck: identical answers across constructions (tested in the suite);\n"
              "denser packing -> fewer nodes -> less I/O; forced reinsertion\n"
              "improves the incremental tree toward the packed ones.\n");
  return 0;
}
