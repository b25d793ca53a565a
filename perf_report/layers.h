#ifndef NWC_PERF_REPORT_LAYERS_H_
#define NWC_PERF_REPORT_LAYERS_H_

// Per-layer probes for the traced run. Each probe calls one layer through
// its public API on the workload's own data and queries — reusing the
// workload's stack where it has that layer, building the layer otherwise —
// and prints that layer's metrics. Every probe runs on every workload, so
// every per-layer metric has a value everywhere.

#include <cstddef>

#include "perf/spans.h"
#include "workloads.h"

namespace nwc::perf {

/// Runs the simd, core, service, snapshot, shard_router and net probes in
/// that order, printing their metrics and recording their spans. Returns
/// the probe answers that failed or disagreed with the single-tree oracle.
size_t RunLayerProbes(const LayerTargets& targets, const RunOptions& options,
                      SpanRecorder* spans);

}  // namespace nwc::perf

#endif  // NWC_PERF_REPORT_LAYERS_H_
