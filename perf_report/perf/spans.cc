#include "perf/spans.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>

#include "obs/trace_export.h"

namespace nwc::perf {

uint32_t SpanRecorder::Add(const char* name, uint64_t start_ns, uint64_t end_ns, uint32_t parent,
                           uint64_t request, uint32_t lane, int64_t reads) {
  spans_.push_back(
      Span{name, start_ns, std::max(start_ns, end_ns), parent, request, lane, reads});
  return static_cast<uint32_t>(spans_.size() - 1);
}

std::vector<SelfTime> SpanRecorder::SelfTimes() const {
  std::vector<uint64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent != kNoParent) child_ns[span.parent] += span.end_ns - span.start_ns;
  }
  std::vector<SelfTime> out;
  std::map<std::string, size_t> slot;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const auto [it, inserted] = slot.emplace(span.name, out.size());
    if (inserted) out.push_back(SelfTime{span.name});
    SelfTime& entry = out[it->second];
    const uint64_t dur = span.end_ns - span.start_ns;
    ++entry.count;
    entry.total_us += static_cast<double>(dur) / 1e3;
    entry.self_us += static_cast<double>(dur - std::min(dur, child_ns[i])) / 1e3;
  }
  return out;
}

Status SpanRecorder::WriteChromeJson(const std::string& path) const {
  FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return Status::IoError("cannot open " + path);
  uint64_t origin = UINT64_MAX;
  for (const Span& span : spans_) origin = std::min(origin, span.start_ns);
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", file);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const char* dot = std::strchr(span.name, '.');
    const std::string layer =
        dot == nullptr ? std::string(span.name) : std::string(span.name, dot - span.name);
    std::fprintf(file,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"request\":%llu",
                 i == 0 ? "" : ",", JsonEscape(span.name).c_str(), JsonEscape(layer).c_str(),
                 span.lane, static_cast<double>(span.start_ns - origin) / 1e3,
                 static_cast<double>(span.end_ns - span.start_ns) / 1e3, i,
                 static_cast<unsigned long long>(span.request));
    if (span.parent != kNoParent) std::fprintf(file, ",\"parent\":%u", span.parent);
    if (span.reads >= 0) std::fprintf(file, ",\"reads\":%lld", static_cast<long long>(span.reads));
    std::fputs("}}", file);
  }
  std::fputs("\n]}\n", file);
  const bool failed = std::ferror(file) != 0;
  if (std::fclose(file) != 0 || failed) return Status::IoError("write failed: " + path);
  return Status::Ok();
}

}  // namespace nwc::perf
