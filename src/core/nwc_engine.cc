#include "core/nwc_engine.h"

#include <limits>
#include <utility>

#include "core/search_driver.h"

namespace nwc {

namespace {

// Keeps the single best group seen so far; its distance doubles as the
// pruning radius (dist_best in the paper).
class BestGroupSink : public internal::GroupSink {
 public:
  double PruneDistance() const override { return best_distance_; }

  void Offer(std::vector<DataObject> group, double distance) override {
    if (distance < best_distance_) {
      best_distance_ = distance;
      best_group_ = std::move(group);
    }
  }

  NwcResult TakeResult() && {
    NwcResult result;
    result.found = !best_group_.empty();
    result.distance = result.found ? best_distance_ : 0.0;
    result.objects = std::move(best_group_);
    return result;
  }

 private:
  double best_distance_ = std::numeric_limits<double>::infinity();
  std::vector<DataObject> best_group_;
};

}  // namespace

Result<NwcResult> NwcEngine::Execute(const NwcQuery& query, const NwcOptions& options,
                                     IoCounter* io, QueryTrace* trace,
                                     QueryControl* control) const {
  const Status query_ok = query.Validate();
  if (!query_ok.ok()) return query_ok;
  if (options.use_iwp && iwp_ == nullptr) {
    return Status::FailedPrecondition("IWP enabled but no IwpIndex was supplied");
  }
  if (options.use_dep && grid_ == nullptr) {
    return Status::FailedPrecondition("DEP enabled but no DensityGrid was supplied");
  }
  if (control != nullptr && control->ShouldStop()) return control->status();

  QueryTrace& tr = trace != nullptr ? *trace : NullTrace();
  QueryControl& ctl = control != nullptr ? *control : NullControl();
  BestGroupSink sink;
  {
    TraceSpanScope root_span(tr, SpanKind::kQuery, io);
    internal::RunNwcSearch(tree_, iwp_, grid_, query, options, io, sink, tr, ctl);
  }
  // A stopped control means the search ended early: the sink's contents
  // are partial, so the stop status is the whole answer.
  if (control != nullptr && control->stopped()) return control->status();
  return std::move(sink).TakeResult();
}

}  // namespace nwc
