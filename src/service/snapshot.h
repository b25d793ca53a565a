#ifndef NWC_SERVICE_SNAPSHOT_H_
#define NWC_SERVICE_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/status.h"
#include "geometry/point.h"
#include "service/session.h"

namespace nwc {

/// One data mutation: inserting or deleting a single object. Deletes match
/// by exact (id, position) pair, like RStarTree::Delete.
struct Mutation {
  enum class Kind : uint8_t { kInsert = 0, kDelete = 1 };

  Kind kind = Kind::kInsert;
  DataObject object;

  static Mutation Insert(const DataObject& object) { return Mutation{Kind::kInsert, object}; }
  static Mutation Delete(const DataObject& object) { return Mutation{Kind::kDelete, object}; }

  friend bool operator==(const Mutation& a, const Mutation& b) {
    return a.kind == b.kind && a.object == b.object;
  }
};

/// An ordered group of mutations applied (and usually published) together.
using MutationBatch = std::vector<Mutation>;

/// The rule every batch passes before any of its mutations is applied:
/// each position is finite (a NaN or infinite coordinate would poison the
/// tree's MBRs and the grid's cells). Returns InvalidArgument naming the
/// first offender.
Status CheckMutationBatch(const MutationBatch& batch);

/// Epoch-based copy-on-write snapshot manager over the index stack — the
/// one thing every serving backend serves from. Every epoch carries the
/// whole stack: the R*-tree, the IWP index and the density grid.
///
/// Epoch 1 is the index the store is opened with, built by Session::Open
/// (or a caller's Session, borrowed), with no copy. The store keeps a
/// *writer* stack — a mutable R*-tree plus an incrementally-maintained
/// density grid — that it builds on the first Apply() by cloning the
/// published snapshot, so a store that never receives an update costs what
/// a Session costs. Apply() mutates only the writer stack; Publish() clones
/// it (deep tree copy, grid copy with frozen prefix sums, and an IWP built
/// over the clone, since its pointer tables name the node ids and MBRs of
/// the exact tree they were built over) into a fresh Session and
/// atomically swaps it in under a new epoch number. Readers that
/// Acquire()d the previous epoch keep their shared_ptr — and therefore
/// bit-exact answers for that epoch — until they drop it; the old Session
/// is destroyed when the last holder releases.
///
/// ThreadSafety: Acquire()/epoch() are safe from any thread at any time;
/// each takes `publish_mu_` for a pointer copy, which contends only with
/// the swap at the end of a publish. Apply()/Publish()/ApplyAndPublish()
/// are serialized internally, so multiple writers do not corrupt the
/// stack — but the store is designed for the one-writer/many-readers
/// regime the service exposes.
class SnapshotStore {
 public:
  struct Config {
    SessionConfig session;
  };

  /// A pinned view: the Session plus the epoch it was published under.
  /// Holding the shared_ptr keeps the whole epoch alive; the epoch number
  /// keys the result cache so answers never migrate across publishes.
  struct SnapshotRef {
    std::shared_ptr<const Session> session;
    uint64_t epoch = 0;
  };

  /// Per-batch application outcome (counts, not statuses).
  struct ApplyStats {
    size_t inserts = 0;
    size_t deletes = 0;
    size_t delete_misses = 0;  ///< deletes whose (id, position) was absent
  };

  /// Opens `tree` with Session::Open (building the IWP index and the
  /// density grid) and publishes the result as epoch 1. The grid's data
  /// space is fixed at open time (config or tree bounds); later inserts
  /// outside it clamp to the boundary cells, which keeps the DEP bound
  /// sound (every object is in some cell) at some pruning-precision cost.
  static Result<std::unique_ptr<SnapshotStore>> Open(RStarTree tree, const Config& config);

  /// A store whose epoch 1 is `session`, borrowed: it must outlive the
  /// store and is never mutated (the first Apply() clones it).
  explicit SnapshotStore(const Session& session);

  /// The currently-published snapshot. Never null after Open().
  SnapshotRef Acquire() const;

  /// Epoch of the currently-published snapshot (starts at 1).
  uint64_t epoch() const;

  /// Applies `batch` in order to the writer stack only — readers see
  /// nothing until Publish(). A batch failing CheckMutationBatch is
  /// rejected whole with its InvalidArgument. Otherwise inserts always
  /// succeed; a delete whose exact (id, position) is absent is skipped and
  /// counted in `stats->delete_misses`. Returns NotFound if any delete
  /// missed (the rest of the batch is still applied), Ok otherwise.
  Status Apply(const MutationBatch& batch, ApplyStats* stats = nullptr);

  /// Publishes the writer stack as a new immutable Session under the next
  /// epoch and returns a ref to it. When nothing was applied since the
  /// last publish, returns the current snapshot without cloning.
  SnapshotRef Publish();

  /// Apply() + Publish() under one writer-lock acquisition — the typed
  /// update API's path. A rejected batch publishes nothing (`out` is then
  /// the current snapshot). `stats` and `out` may be null.
  Status ApplyAndPublish(const MutationBatch& batch, ApplyStats* stats, SnapshotRef* out);

  /// Number of objects in the *writer* stack (>= published when unflushed
  /// inserts exist, etc.); the published count until the first Apply().
  size_t writer_object_count() const;

 private:
  explicit SnapshotStore(std::shared_ptr<const Session> epoch_one)
      : published_(std::move(epoch_one)), epoch_(1) {}

  Status ApplyLocked(const MutationBatch& batch, ApplyStats* stats);
  SnapshotRef PublishLocked();

  /// Serializes writers (Apply/Publish). Never held while executing
  /// queries; readers don't touch it.
  mutable std::mutex writer_mu_;
  /// Null until the first Apply() clones the published snapshot.
  std::unique_ptr<RStarTree> writer_tree_;
  std::unique_ptr<DensityGrid> writer_grid_;
  size_t unpublished_mutations_ = 0;

  /// Guards the published (session, epoch) pair; held only for the swap in
  /// Publish() and the copy in Acquire().
  mutable std::mutex publish_mu_;
  std::shared_ptr<const Session> published_;
  uint64_t epoch_ = 0;
};

}  // namespace nwc

#endif  // NWC_SERVICE_SNAPSHOT_H_
