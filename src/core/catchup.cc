#include "core/catchup.h"

#include <algorithm>
#include <cassert>

#include "data/scan.h"
#include "persist/serde.h"
#include "util/timer.h"

namespace janus {

ArchiveSnapshot::ArchiveSnapshot(const ColumnStore& live, Mutex* mu)
    : mu_(mu), live_(&live), n0_(live.size()), pages_(n0_ / kPageRows + 1) {}

ArchiveSnapshot::ArchiveSnapshot(ColumnStore store)
    : mu_(&own_mu_),
      store_(std::make_unique<ColumnStore>(std::move(store))),
      live_(store_.get()),
      n0_(live_->size()),
      pages_(n0_ / kPageRows + 1) {}

void ArchiveSnapshot::CopyPage(size_t page) {
  const size_t begin = page * kPageRows;
  const size_t end = std::min(begin + kPageRows, n0_);
  // No delete has touched the page, so none has vacated its rows either.
  assert(end <= live_->size());
  auto rows = std::make_unique<ColumnStore>(live_->schema());
  rows->Reserve(end - begin);
  rows->AppendRange(*live_, begin, end);
  pages_[page] = std::move(rows);
  copied_rows_ += end - begin;
}

std::vector<Tuple> ArchiveSnapshot::Gather(
    const std::vector<size_t>& positions) {
  std::vector<Tuple> rows(positions.size());
  // Serial: a fan-out on the pool would stretch the hold whenever a helper
  // is descheduled.
  MutexLock lock(mu_);
  for (size_t i = 0; i < positions.size(); ++i) {
    const size_t p = positions[i];
    const ColumnStore* page = pages_[p / kPageRows].get();
    rows[i] =
        page != nullptr ? page->RowTuple(p % kPageRows) : live_->RowTuple(p);
  }
  return rows;
}

void ArchiveSnapshot::SaveTo(persist::Writer* w) const {
  std::vector<ColumnStore::Run> runs;
  runs.reserve(pages_.size());
  for (size_t page = 0; page < pages_.size(); ++page) {
    const size_t begin = page * kPageRows;
    const size_t end = std::min(begin + kPageRows, n0_);
    runs.push_back(pages_[page] != nullptr
                       ? ColumnStore::Run{pages_[page].get(), 0, end - begin}
                       : ColumnStore::Run{live_, begin, end});
  }
  live_->SaveRuns(runs, w);
}

void ArchiveSnapshot::LoadFrom(persist::Reader* r) {
  assert(owned());
  store_->LoadFrom(r);
  n0_ = store_->size();
  pages_.clear();
  pages_.resize(n0_ / kPageRows + 1);
}

CatchupEngine::CatchupEngine(Dpt* dpt,
                             std::shared_ptr<ArchiveSnapshot> snapshot,
                             size_t goal_samples, uint64_t seed)
    : dpt_(dpt),
      snapshot_(std::move(snapshot)),
      goal_(snapshot_->size() == 0 ? 0 : goal_samples),
      rng_(seed) {}

CatchupEngine::CatchupEngine(Dpt* dpt, const std::vector<Tuple>& snapshot,
                             size_t goal_samples, uint64_t seed)
    : CatchupEngine(dpt,
                    std::make_shared<ArchiveSnapshot>(
                        scan::ToColumnStore(snapshot, {})),
                    goal_samples, seed) {}

size_t CatchupEngine::Step(size_t batch) {
  if (Done() || snapshot_->size() == 0) return 0;
  const size_t todo = std::min(batch, goal_ - processed_);
  Timer timer;
  // Draw positions serially (the RNG sequence is part of the persisted
  // state). Then, a slice at a time, gather their rows through the snapshot
  // and absorb them leaf-partitioned — parallel under the Dpt's exec
  // context, bit-identical to the one-at-a-time loop. A gather holds the
  // owner's update mutex, which does not queue its waiters; the absorb
  // between two holds lets a waiting updater in, so it waits for one slice
  // at most.
  constexpr size_t kSlice = 8192;
  std::vector<size_t> positions;
  for (size_t at = 0; at < todo; at += kSlice) {
    positions.resize(std::min(kSlice, todo - at));
    for (size_t& p : positions) p = rng_.NextUint64(snapshot_->size());
    dpt_->AddCatchupSamples(snapshot_->Gather(positions));
  }
  processing_seconds_ += timer.ElapsedSeconds();
  processed_ += todo;
  return todo;
}

void CatchupEngine::RunToGoal() {
  // Batches large enough that the leaf-partitioned parallel path engages
  // (the draw sequence, and hence the result, is independent of batching).
  while (!Done()) Step(16384);
}

void CatchupEngine::SaveTo(persist::Writer* w) const {
  snapshot_->SaveTo(w);
  w->Size(goal_);
  w->Size(processed_);
  w->F64(processing_seconds_);
  rng_.SaveTo(w);
}

void CatchupEngine::LoadFrom(persist::Reader* r) {
  snapshot_->LoadFrom(r);
  goal_ = r->Size();
  processed_ = r->Size();
  processing_seconds_ = r->F64();
  rng_.LoadFrom(r);
}

}  // namespace janus
