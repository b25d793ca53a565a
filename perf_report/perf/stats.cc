#include "perf/stats.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "common/string_util.h"
#include "net/load_gen.h"
#include "simd/kernels.h"

#ifndef NWC_PERF_BUILD_TYPE
#define NWC_PERF_BUILD_TYPE "unknown"
#endif

namespace nwc::perf {

uint64_t Quantile(std::vector<uint64_t>& samples, double q) {
  std::sort(samples.begin(), samples.end());
  return LinearInterpolatedQuantile(samples, q);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

double Mean(const std::vector<uint64_t>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (const uint64_t s : samples) sum += static_cast<double>(s);
  return sum / static_cast<double>(samples.size());
}

double PeakRssMb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

std::string HostLine(uint64_t seed) {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) cpu = Trim(line.substr(colon + 1));
      break;
    }
  }
  std::replace(cpu.begin(), cpu.end(), ' ', '_');
  return StrFormat("host cpu=%s nproc=%ld simd=%s build=%s seed=%llu", cpu.c_str(),
                   ::sysconf(_SC_NPROCESSORS_ONLN), simd::ActiveKernelName(),
                   NWC_PERF_BUILD_TYPE, static_cast<unsigned long long>(seed));
}

void EmitMetric(const std::string& name, double value, const char* unit, uint64_t samples) {
  if (samples > 0) {
    std::printf("metric %s %.17g %s n=%llu\n", name.c_str(), value, unit,
                static_cast<unsigned long long>(samples));
  } else {
    std::printf("metric %s %.17g %s\n", name.c_str(), value, unit);
  }
}

}  // namespace nwc::perf
