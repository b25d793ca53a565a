#ifndef NWC_PERF_REPORT_PERF_STATS_H_
#define NWC_PERF_REPORT_PERF_STATS_H_

// Measurement plumbing shared by every perf_report workload: the clock,
// quantiles, process memory, the host line, and the metric output format
// run.py parses.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace nwc::perf {

/// The steady clock in nanoseconds since its epoch — the same axis as
/// SteadyNowMicros(), so service/net microsecond stamps convert by * 1000.
inline uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

/// Quantile `q` of `samples` (sorted in place) by net/load_gen.h's
/// LinearInterpolatedQuantile; 0 for an empty sample.
uint64_t Quantile(std::vector<uint64_t>& samples, double q);

/// Median of `values` (mean of the middle two for an even count); 0 when
/// empty.
double Median(std::vector<double> values);

/// Arithmetic mean; 0 when empty.
double Mean(const std::vector<uint64_t>& samples);

/// Peak resident set size of this process (getrusage ru_maxrss), in MB.
double PeakRssMb();

/// "host cpu=<model> nproc=<n> simd=<kernel> build=<type> seed=<seed>".
std::string HostLine(uint64_t seed);

/// Prints one `metric <name> <value> <unit>` line, the value with every
/// significant digit; `samples`, when nonzero, is appended as `n=<count>`.
void EmitMetric(const std::string& name, double value, const char* unit, uint64_t samples = 0);

}  // namespace nwc::perf

#endif  // NWC_PERF_REPORT_PERF_STATS_H_
