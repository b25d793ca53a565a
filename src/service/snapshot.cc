#include "service/snapshot.h"

#include <cmath>
#include <memory>
#include <mutex>
#include <utility>

#include "common/string_util.h"

namespace nwc {

Status CheckMutationBatch(const MutationBatch& batch) {
  for (size_t i = 0; i < batch.size(); ++i) {
    const Point& pos = batch[i].object.pos;
    if (!std::isfinite(pos.x) || !std::isfinite(pos.y)) {
      return Status::InvalidArgument(
          StrFormat("mutation %zu of %zu (object %u) has a non-finite position (%g, %g)", i + 1,
                    batch.size(), batch[i].object.id, pos.x, pos.y));
    }
  }
  return Status::Ok();
}

Result<std::unique_ptr<SnapshotStore>> SnapshotStore::Open(RStarTree tree, const Config& config) {
  Result<Session> session = Session::Open(std::move(tree), config.session);
  if (!session.ok()) return session.status();
  return std::unique_ptr<SnapshotStore>(
      new SnapshotStore(std::make_shared<const Session>(std::move(session).value())));
}

// The aliasing constructor with an empty owner yields a non-owning pointer:
// the caller keeps the Session alive, and copies of it cost no refcount.
SnapshotStore::SnapshotStore(const Session& session)
    : SnapshotStore(std::shared_ptr<const Session>(std::shared_ptr<const Session>(), &session)) {}

SnapshotStore::SnapshotRef SnapshotStore::Acquire() const {
  std::lock_guard<std::mutex> lock(publish_mu_);
  return SnapshotRef{published_, epoch_};
}

uint64_t SnapshotStore::epoch() const {
  std::lock_guard<std::mutex> lock(publish_mu_);
  return epoch_;
}

size_t SnapshotStore::writer_object_count() const {
  std::lock_guard<std::mutex> lock(writer_mu_);
  return writer_tree_ != nullptr ? writer_tree_->size() : Acquire().session->tree().size();
}

Status SnapshotStore::Apply(const MutationBatch& batch, ApplyStats* stats) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  return ApplyLocked(batch, stats);
}

SnapshotStore::SnapshotRef SnapshotStore::Publish() {
  std::lock_guard<std::mutex> lock(writer_mu_);
  return PublishLocked();
}

Status SnapshotStore::ApplyAndPublish(const MutationBatch& batch, ApplyStats* stats,
                                      SnapshotRef* out) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  const Status status = ApplyLocked(batch, stats);
  const SnapshotRef ref =
      status.code() == StatusCode::kInvalidArgument ? Acquire() : PublishLocked();
  if (out != nullptr) *out = ref;
  return status;
}

Status SnapshotStore::ApplyLocked(const MutationBatch& batch, ApplyStats* stats) {
  const Status valid = CheckMutationBatch(batch);
  if (!valid.ok()) return valid;
  if (writer_tree_ == nullptr) {
    // First write: the writer stack starts as a copy of the published
    // snapshot (epoch 1, as nothing has been published since), which
    // itself is never mutated.
    const SnapshotRef current = Acquire();
    const Session& published = *current.session;
    writer_tree_ = std::make_unique<RStarTree>(published.tree().Clone());
    writer_grid_ = std::make_unique<DensityGrid>(*published.grid());
  }
  ApplyStats local;
  for (const Mutation& m : batch) {
    if (m.kind == Mutation::Kind::kInsert) {
      writer_tree_->Insert(m.object);
      writer_grid_->OnInsert(m.object.pos);
      ++local.inserts;
    } else {
      // A miss leaves both tree and grid untouched; the rest of the batch
      // still applies (each mutation is atomic, the batch is not).
      const Status deleted = writer_tree_->Delete(m.object);
      if (deleted.ok()) {
        writer_grid_->OnRemove(m.object.pos);
        ++local.deletes;
      } else {
        ++local.delete_misses;
      }
    }
  }
  unpublished_mutations_ += local.inserts + local.deletes;
  if (stats != nullptr) *stats = local;
  if (local.delete_misses > 0) {
    return Status::NotFound(
        StrFormat("%zu of %zu deletes matched no stored object", local.delete_misses,
                  local.deletes + local.delete_misses));
  }
  return Status::Ok();
}

SnapshotStore::SnapshotRef SnapshotStore::PublishLocked() {
  if (unpublished_mutations_ == 0) return Acquire();

  // Copy-on-write: the writer stack stays mutable; readers get a deep
  // clone they can hold across any number of future publishes.
  auto tree = std::make_unique<RStarTree>(writer_tree_->Clone());

  // Built over the clone — the exact tree this snapshot serves.
  auto iwp = std::make_unique<IwpIndex>(IwpIndex::Build(*tree));

  // Freeze first so the copy carries clean prefix sums — a published grid
  // must never rebuild lazily under concurrent readers.
  writer_grid_->Freeze();
  auto grid = std::make_unique<DensityGrid>(*writer_grid_);

  auto session = std::make_shared<const Session>(
      Session::FromParts(std::move(tree), std::move(iwp), std::move(grid)));

  std::lock_guard<std::mutex> lock(publish_mu_);
  published_ = std::move(session);
  ++epoch_;
  unpublished_mutations_ = 0;
  return SnapshotRef{published_, epoch_};
}

}  // namespace nwc
