#ifndef JANUS_CORE_CATCHUP_H_
#define JANUS_CORE_CATCHUP_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/dpt.h"
#include "data/column_store.h"
#include "util/mutex.h"
#include "util/rng.h"

namespace janus {

/// The archive as it stood when a tree was built: what catch-up samples.
///
/// A view is copy-on-write over the live table, a page of kPageRows
/// positions at a time: n0 (|D| when taken) plus a copy of every page a
/// delete has touched since. Before every swap-remove the table's owner
/// calls BeforeDelete() under its update mutex, and the view copies the
/// pages of the row the delete overwrites and of the last row it vacates,
/// each before its first change. Inserts only fill positions at or above
/// the live size, so a page no delete has touched still holds its rows
/// from the start in the table, and the copies never hold more than the n0
/// rows of a full copy. Loaded and row-vector snapshots own their rows.
class ArchiveSnapshot {
 public:
  /// The delete that touches a page first pays for its copy, so the page
  /// size bounds what one delete can add to its own latency.
  static constexpr size_t kPageRows = 1024;

  /// View of `live` as it stands now; `mu` is the owner's update mutex.
  ArchiveSnapshot(const ColumnStore& live, Mutex* mu);
  explicit ArchiveSnapshot(ColumnStore store);

  size_t size() const { return n0_; }
  bool owned() const { return store_ != nullptr; }
  /// Rows a view has copied out of the live table so far.
  size_t copied_rows() const { return copied_rows_; }

  /// Owner hook (mu held): a delete is about to swap-remove row `pos`.
  void BeforeDelete(size_t pos) {
    if (owned()) return;
    for (const size_t p : {pos, live_->size() - 1}) {
      if (p < n0_ && pages_[p / kPageRows] == nullptr) CopyPage(p / kPageRows);
    }
  }
  /// The rows at `positions`, in order, gathered in one hold of mu.
  std::vector<Tuple> Gather(const std::vector<size_t>& positions);
  /// ColumnStore::SaveTo's bytes for a copy taken at the start (quiesced).
  void SaveTo(persist::Writer* w) const;
  void LoadFrom(persist::Reader* r);  ///< owned snapshots only

 private:
  void CopyPage(size_t page);

  Mutex own_mu_;
  Mutex* mu_;
  std::unique_ptr<ColumnStore> store_;  ///< an owned snapshot's rows
  const ColumnStore* live_;             ///< the owner's table, or store_
  size_t n0_;
  /// Page -> its rows at the start, once a delete has touched it.
  std::vector<std::unique_ptr<ColumnStore>> pages_;
  size_t copied_rows_ = 0;
};

/// The catch-up process of Sec. 4.3 (step 5): random samples of the archival
/// snapshot refine the approximate node statistics in the background until a
/// user-chosen goal (e.g. 0.1 * |D| samples) is reached.
///
/// The engine samples an ArchiveSnapshot taken at (re-)initialization, so
/// its estimates target exactly the population the deltas are measured
/// against (tuples inserted/deleted later are covered by the per-node
/// deltas — see Dpt). Samples are drawn with replacement, which
/// keeps the Horvitz-Thompson scaling unbiased at any stopping point; this
/// is why queries issued mid-catch-up are valid, just wider (Sec. 4.3).
class CatchupEngine {
 public:
  /// `goal_samples` caps the catch-up (the paper runs until 0.1 * |D|).
  /// Engines built together may share one snapshot.
  CatchupEngine(Dpt* dpt, std::shared_ptr<ArchiveSnapshot> snapshot,
                size_t goal_samples, uint64_t seed);

  /// Row-vector snapshot (tests / stream boundary); transposed on entry.
  CatchupEngine(Dpt* dpt, const std::vector<Tuple>& snapshot,
                size_t goal_samples, uint64_t seed);

  /// Process up to `batch` samples; returns how many were absorbed.
  size_t Step(size_t batch);

  /// Run to the goal.
  void RunToGoal();

  bool Done() const { return processed_ >= goal_; }
  size_t processed() const { return processed_; }
  size_t goal() const { return goal_; }
  const ArchiveSnapshot& snapshot() const { return *snapshot_; }
  ArchiveSnapshot& snapshot() { return *snapshot_; }

  /// CPU time spent absorbing samples (the "processing" cost of Fig. 7; the
  /// "loading" cost is measured by the broker samplers).
  double processing_seconds() const { return processing_seconds_; }

  /// Snapshot persistence: the archival snapshot, progress counters and
  /// the draw RNG, so a restored catch-up draws the same remaining sample
  /// sequence as the uninterrupted one. The owning Dpt pointer is set at
  /// construction and not serialized.
  void SaveTo(persist::Writer* w) const;
  void LoadFrom(persist::Reader* r);

 private:
  Dpt* dpt_;
  std::shared_ptr<ArchiveSnapshot> snapshot_;
  size_t goal_;
  size_t processed_ = 0;
  double processing_seconds_ = 0;
  Rng rng_;
};

}  // namespace janus

#endif  // JANUS_CORE_CATCHUP_H_
