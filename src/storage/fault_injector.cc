#include "storage/fault_injector.h"

#include <chrono>
#include <cstdlib>
#include <thread>

#include "common/string_util.h"

namespace nwc {

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone:
      return "none";
    case FaultKind::kEveryNth:
      return "every_nth";
    case FaultKind::kOnceAt:
      return "once_at";
    case FaultKind::kBernoulli:
      return "bernoulli";
    case FaultKind::kLatencySpike:
      return "latency_spike";
  }
  return "unknown";
}

Status FaultPlan::Validate() const {
  switch (kind) {
    case FaultKind::kNone:
      return Status::Ok();
    case FaultKind::kEveryNth:
    case FaultKind::kOnceAt:
      if (period == 0) return Status::InvalidArgument("fault period/read index must be >= 1");
      return Status::Ok();
    case FaultKind::kBernoulli:
      if (!(probability > 0.0) || probability > 1.0) {
        return Status::InvalidArgument("fault probability must be in (0, 1]");
      }
      return Status::Ok();
    case FaultKind::kLatencySpike:
      if (period == 0) return Status::InvalidArgument("spike period must be >= 1");
      return Status::Ok();
  }
  return Status::InvalidArgument("unknown fault kind");
}

std::string FaultPlan::ToSpec() const {
  switch (kind) {
    case FaultKind::kNone:
      return "none";
    case FaultKind::kEveryNth:
      return StrFormat("every:%llu", static_cast<unsigned long long>(period));
    case FaultKind::kOnceAt:
      return StrFormat("once:%llu", static_cast<unsigned long long>(period));
    case FaultKind::kBernoulli:
      return StrFormat("bernoulli:%g:%llu", probability, static_cast<unsigned long long>(seed));
    case FaultKind::kLatencySpike:
      return StrFormat("spike:%llu:%llu", static_cast<unsigned long long>(period),
                       static_cast<unsigned long long>(spike_micros));
  }
  return "unknown";
}

Result<FaultPlan> ParseFaultPlan(const std::string& spec) {
  // Split on ':' into kind plus up to two numeric fields.
  std::string fields[3];
  size_t count = 0;
  size_t start = 0;
  while (count < 3) {
    const size_t colon = spec.find(':', start);
    if (colon == std::string::npos) {
      fields[count++] = spec.substr(start);
      break;
    }
    fields[count++] = spec.substr(start, colon - start);
    start = colon + 1;
  }
  const std::string& kind = fields[0];
  FaultPlan plan;
  if (kind == "none") {
    if (count != 1) return Status::InvalidArgument("'none' takes no arguments");
    return plan;
  }
  if (kind == "every" || kind == "once") {
    if (count != 2) return Status::InvalidArgument("expected " + kind + ":N");
    const uint64_t n = std::strtoull(fields[1].c_str(), nullptr, 10);
    plan = kind == "every" ? FaultPlan::EveryNth(n) : FaultPlan::OnceAt(n);
  } else if (kind == "bernoulli") {
    if (count < 2) return Status::InvalidArgument("expected bernoulli:P[:SEED]");
    const double p = std::strtod(fields[1].c_str(), nullptr);
    const uint64_t seed = count == 3 ? std::strtoull(fields[2].c_str(), nullptr, 10) : 1;
    plan = FaultPlan::Bernoulli(p, seed);
  } else if (kind == "spike") {
    if (count != 3) return Status::InvalidArgument("expected spike:N:MICROS");
    plan = FaultPlan::LatencySpike(std::strtoull(fields[1].c_str(), nullptr, 10),
                                   std::strtoull(fields[2].c_str(), nullptr, 10));
  } else {
    return Status::InvalidArgument(
        "unknown fault spec '" + spec +
        "' (expected none, every:N, once:K, bernoulli:P[:SEED], or spike:N:MICROS)");
  }
  const Status valid = plan.Validate();
  if (!valid.ok()) return valid;
  return plan;
}

Status FaultInjector::OnRead(uint32_t page) {
  ++reads_;
  bool fault = false;
  switch (plan_.kind) {
    case FaultKind::kNone:
      break;
    case FaultKind::kEveryNth:
      fault = reads_ % plan_.period == 0;
      break;
    case FaultKind::kOnceAt:
      if (!fired_ && reads_ == plan_.period) {
        fired_ = true;
        fault = true;
      }
      break;
    case FaultKind::kBernoulli:
      fault = rng_.NextBernoulli(plan_.probability);
      break;
    case FaultKind::kLatencySpike:
      if (reads_ % plan_.period == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(plan_.spike_micros));
      }
      break;
  }
  if (!fault) return Status::Ok();
  ++faults_;
  return Status::IoError(StrFormat("injected %s fault at read %llu (page %u)",
                                   FaultKindName(plan_.kind),
                                   static_cast<unsigned long long>(reads_), page));
}

}  // namespace nwc
