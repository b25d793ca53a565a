#include "core/knwc_engine.h"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "core/search_driver.h"

namespace nwc {

namespace {

// A maintained group plus its sorted object ids for fast overlap counting.
struct MaintainedGroup {
  double distance = 0.0;
  std::vector<DataObject> objects;
  std::vector<ObjectId> sorted_ids;
};

std::vector<ObjectId> SortedIds(const std::vector<DataObject>& objects) {
  std::vector<ObjectId> ids;
  ids.reserve(objects.size());
  for (const DataObject& obj : objects) ids.push_back(obj.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

// |a intersect b| for sorted id vectors.
size_t OverlapCount(const std::vector<ObjectId>& a, const std::vector<ObjectId>& b) {
  size_t count = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

// The Steps 1-5 maintenance procedure of Sec. 3.4.
class KGroupSink : public internal::GroupSink {
 public:
  KGroupSink(size_t k, size_t m, QueryTrace& trace) : k_(k), m_(m), trace_(trace) {}

  double PruneDistance() const override {
    if (groups_.size() < k_) return std::numeric_limits<double>::infinity();
    return groups_.back().distance;
  }

  void Offer(std::vector<DataObject> group, double distance) override {
    // The overlap filtering below is the kNWC-specific cost on top of the
    // NWC search; span it so traces attribute it separately. No I/O
    // happens here, so the span is passed no counter.
    TraceSpanScope filter_span(trace_, SpanKind::kOverlapFilter, nullptr);
    OfferImpl(std::move(group), distance);
  }

 private:
  void OfferImpl(std::vector<DataObject> group, double distance) {
    // Step 2: scan in reverse for the first group not farther than the
    // candidate; the candidate belongs right after it. (The paper scans
    // for "distance shorter than objs_p"; placing the candidate after
    // equal-distance groups instead is essential so that a re-discovered
    // group meets its existing copy in the Step 3 overlap check and is
    // dropped, rather than evicting the k-th group and then deleting its
    // own twin in Step 5 — which would shrink the list and lose a result.)
    size_t insert_at = groups_.size();
    while (insert_at > 0 && groups_[insert_at - 1].distance > distance) --insert_at;
    if (insert_at == k_) return;  // all k held groups are at least as near: drop

    MaintainedGroup candidate;
    candidate.distance = distance;
    candidate.sorted_ids = SortedIds(group);
    candidate.objects = std::move(group);

    // Step 3: the candidate must respect the overlap budget against every
    // nearer group, or it is dropped.
    for (size_t j = 0; j < insert_at; ++j) {
      if (OverlapCount(candidate.sorted_ids, groups_[j].sorted_ids) > m_) {
        trace_.Count(TraceCounter::kGroupsDroppedOverlap);
        return;
      }
    }

    // Step 4: evict the current k-th group if full, insert the candidate.
    if (groups_.size() == k_) groups_.pop_back();
    groups_.insert(groups_.begin() + static_cast<ptrdiff_t>(insert_at), std::move(candidate));

    // Step 5: farther groups overlapping the new one too much are removed.
    const MaintainedGroup& inserted = groups_[insert_at];
    for (size_t j = insert_at + 1; j < groups_.size();) {
      if (OverlapCount(inserted.sorted_ids, groups_[j].sorted_ids) > m_) {
        trace_.Count(TraceCounter::kGroupsDroppedOverlap);
        groups_.erase(groups_.begin() + static_cast<ptrdiff_t>(j));
      } else {
        ++j;
      }
    }
  }

 public:
  KnwcResult TakeResult() && {
    KnwcResult result;
    result.groups.reserve(groups_.size());
    for (MaintainedGroup& g : groups_) {
      result.groups.push_back(NwcGroup{g.distance, std::move(g.objects)});
    }
    return result;
  }

 private:
  size_t k_;
  size_t m_;
  QueryTrace& trace_;
  std::vector<MaintainedGroup> groups_;  // ascending by distance
};

}  // namespace

Result<KnwcResult> KnwcEngine::Execute(const KnwcQuery& query, const NwcOptions& options,
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
  KGroupSink sink(query.k, query.m, tr);
  {
    TraceSpanScope root_span(tr, SpanKind::kQuery, io);
    internal::RunNwcSearch(tree_, iwp_, grid_, query.base, options, io, sink, tr, ctl);
  }
  if (control != nullptr && control->stopped()) return control->status();
  return std::move(sink).TakeResult();
}

}  // namespace nwc
