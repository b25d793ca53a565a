#include "storage/fault_injector.h"

#include <chrono>
#include <optional>
#include <thread>
#include <vector>

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
      // OnRead sleeps for a signed std::chrono::microseconds.
      if (spike_micros > static_cast<uint64_t>(std::chrono::microseconds::max().count())) {
        return Status::InvalidArgument("spike micros out of range");
      }
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
  const std::vector<std::string> fields = Split(spec, ':');
  const std::string& kind = fields[0];
  // Every numeric field is parsed whole; a bad one is named in the error.
  const auto bad = [&](const char* name, size_t i, const char* expected) {
    return Status::InvalidArgument("fault spec '" + spec + "': " + name + " '" + fields[i] +
                                   "' is not " + expected);
  };
  const auto count = [&](size_t i) { return ParseNumber<uint64_t>(fields[i]); };
  constexpr const char* kUnsigned = "an unsigned integer";
  FaultPlan plan;
  if (kind == "none") {
    if (fields.size() != 1) return Status::InvalidArgument("'none' takes no arguments");
    return plan;
  }
  if (kind == "every" || kind == "once") {
    const char* name = kind == "every" ? "N" : "K";
    if (fields.size() != 2) return Status::InvalidArgument("expected " + kind + ":" + name);
    const std::optional<uint64_t> n = count(1);
    if (!n) return bad(name, 1, kUnsigned);
    plan = kind == "every" ? FaultPlan::EveryNth(*n) : FaultPlan::OnceAt(*n);
  } else if (kind == "bernoulli") {
    if (fields.size() != 2 && fields.size() != 3) {
      return Status::InvalidArgument("expected bernoulli:P[:SEED]");
    }
    const std::optional<double> p = ParseFinite(fields[1]);
    if (!p) return bad("P", 1, "a finite number");
    const std::optional<uint64_t> seed = fields.size() == 3 ? count(2) : uint64_t{1};
    if (!seed) return bad("SEED", 2, kUnsigned);
    plan = FaultPlan::Bernoulli(*p, *seed);
  } else if (kind == "spike") {
    if (fields.size() != 3) return Status::InvalidArgument("expected spike:N:MICROS");
    const std::optional<uint64_t> n = count(1);
    if (!n) return bad("N", 1, kUnsigned);
    const std::optional<uint64_t> micros = count(2);
    if (!micros) return bad("MICROS", 2, kUnsigned);
    plan = FaultPlan::LatencySpike(*n, *micros);
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
