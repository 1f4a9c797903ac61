#include "data/column_store.h"

#include <cassert>

#include "data/parallel_scan.h"
#include "persist/common.h"
#include "util/invariants.h"

namespace janus {

namespace {

size_t WidthFor(const Schema& schema) {
  const int n = schema.num_columns();
  if (n <= 0) return static_cast<size_t>(kMaxColumns);
  return static_cast<size_t>(n < kMaxColumns ? n : kMaxColumns);
}

}  // namespace

ColumnStore::ColumnStore(Schema schema)
    : schema_(std::move(schema)), columns_(WidthFor(schema_)) {}

ColumnStore::ColumnStore(int num_columns)
    : columns_(static_cast<size_t>(
          num_columns < 1 ? 1
                          : (num_columns > kMaxColumns ? kMaxColumns
                                                       : num_columns))) {}

void ColumnStore::Reserve(size_t rows) {
  for (auto& col : columns_) col.reserve(rows);
  ids_.reserve(rows);
}

void ColumnStore::Insert(const Tuple& t) {
  EnsureIndex();
  assert(index_.find(t.id) == index_.end());
  index_[t.id] = ids_.size();
  ids_.push_back(t.id);
  for (size_t c = 0; c < columns_.size(); ++c) {
    columns_[c].push_back(t.values[c]);
  }
}

void ColumnStore::BulkAppend(const std::vector<Tuple>& rows) {
  Reserve(ids_.size() + rows.size());
  for (const Tuple& t : rows) {
    ids_.push_back(t.id);
    for (size_t c = 0; c < columns_.size(); ++c) {
      columns_[c].push_back(t.values[c]);
    }
  }
  indexed_ = false;
}

void ColumnStore::AppendRange(const ColumnStore& src, size_t begin,
                              size_t end) {
  assert(src.columns_.size() == columns_.size() && end <= src.size());
  const auto b = static_cast<std::ptrdiff_t>(begin);
  const auto e = static_cast<std::ptrdiff_t>(end);
  ids_.insert(ids_.end(), src.ids_.begin() + b, src.ids_.begin() + e);
  for (size_t c = 0; c < columns_.size(); ++c) {
    const std::vector<double>& from = src.columns_[c];
    columns_[c].insert(columns_[c].end(), from.begin() + b, from.begin() + e);
  }
  indexed_ = false;
}

ColumnStore ColumnStore::WithoutIndex() const {
  ColumnStore copy(schema_);
  copy.columns_ = columns_;
  copy.ids_ = ids_;
  copy.indexed_ = false;
  return copy;
}

void ColumnStore::EnsureIndex() const {
  if (indexed_) return;
  index_.clear();
  index_.reserve(ids_.size());
  for (size_t pos = 0; pos < ids_.size(); ++pos) index_[ids_[pos]] = pos;
  indexed_ = true;
}

std::optional<Tuple> ColumnStore::Find(uint64_t id) const {
  EnsureIndex();
  auto it = index_.find(id);
  if (it == index_.end()) return std::nullopt;
  return RowTuple(it->second);
}

Tuple ColumnStore::RowTuple(size_t pos) const {
  Tuple t;
  t.id = ids_[pos];
  for (size_t c = 0; c < columns_.size(); ++c) {
    t.values[c] = columns_[c][pos];
  }
  return t;
}

std::vector<Tuple> ColumnStore::SampleUniform(Rng* rng, size_t k) const {
  std::vector<size_t> idx = rng->SampleIndices(ids_.size(), k);
  std::vector<Tuple> out;
  out.reserve(idx.size());
  for (size_t i : idx) out.push_back(RowTuple(i));
  return out;
}

std::vector<Tuple> ColumnStore::SampleUniform(
    Rng* rng, size_t k, const scan::ExecContext& exec) const {
  std::vector<size_t> idx = rng->SampleIndices(ids_.size(), k);
  std::vector<Tuple> out(idx.size());
  // Each tuple copy gathers `width` doubles — far heavier than a kernel
  // row, so the fan-out cutoff sits well below parallel_min_rows.
  constexpr size_t kMinSampleDraws = 8192;
  const scan::MorselPlan plan =
      scan::PlanMorselsAtCutoff(exec, idx.size(), kMinSampleDraws,
                                scan::MorselCost::kHeavyItems);
  scan::ForEachMorsel(exec, idx.size(), plan,
                      [&](size_t, size_t, size_t begin, size_t end) {
                        for (size_t i = begin; i < end; ++i) {
                          out[i] = RowTuple(idx[i]);
                        }
                      });
  return out;
}

Tuple ColumnStore::SampleOne(Rng* rng) const {
  assert(!ids_.empty());
  return RowTuple(rng->NextUint64(ids_.size()));
}

size_t ColumnStore::MemoryBytes() const {
  size_t bytes = 0;
  for (const auto& col : columns_) bytes += col.capacity() * sizeof(double);
  bytes += ids_.capacity() * sizeof(uint64_t);
  // Open-addressing-agnostic estimate of the unordered_map footprint: one
  // bucket pointer plus one heap node (key, value, next) per entry.
  bytes += index_.bucket_count() * sizeof(void*) +
           index_.size() * (sizeof(uint64_t) + sizeof(size_t) + sizeof(void*));
  return bytes;
}

void ColumnStore::SaveTo(persist::Writer* w) const {
  SaveRuns({{this, 0, size()}}, w);
}

void ColumnStore::SaveRuns(const std::vector<Run>& runs,
                           persist::Writer* w) const {
  size_t rows = 0;
  for (const Run& r : runs) rows += r.end - r.begin;
  persist::SaveSchema(schema_, w);
  w->U32(static_cast<uint32_t>(columns_.size()));
  // The bytes of U64Vec/F64Vec over the concatenated runs: a length, then
  // each value's native 8 bytes.
  w->Size(rows);
  for (const Run& r : runs) {
    w->Bytes(r.store->ids_.data() + r.begin, (r.end - r.begin) * 8);
  }
  for (size_t c = 0; c < columns_.size(); ++c) {
    w->Size(rows);
    for (const Run& r : runs) {
      assert(r.store->columns_.size() == columns_.size());
      w->Bytes(r.store->columns_[c].data() + r.begin, (r.end - r.begin) * 8);
    }
  }
}

void ColumnStore::LoadFrom(persist::Reader* r) {
  const Schema loaded = persist::LoadSchema(r);
  const uint32_t width = r->U32();
  if (width == 0 || width > static_cast<uint32_t>(kMaxColumns)) {
    throw persist::PersistError("snapshot corrupt: bad column-store width");
  }
  // The snapshot must have been written under the same schema this store
  // was configured with: column indexes in the owner's config refer to this
  // layout, so silently adopting a different one would corrupt every scan.
  if (loaded.column_names != schema_.column_names ||
      width != columns_.size()) {
    throw persist::PersistError(
        "snapshot mismatch: archive schema differs from the engine's "
        "configured schema (recreate the engine with the schema the "
        "snapshot was written under)");
  }
  schema_ = loaded;
  ids_ = r->U64Vec();
  columns_.assign(width, {});
  for (std::vector<double>& col : columns_) {
    col = r->F64Vec();
    if (col.size() != ids_.size()) {
      throw persist::PersistError(
          "snapshot corrupt: column length does not match id column");
    }
  }
  index_.clear();
  indexed_ = false;
}

void ColumnStore::CheckInvariants() const {
  for (size_t c = 0; c < columns_.size(); ++c) {
    invariants::Require(
        columns_[c].size() == ids_.size(), "ColumnStore",
        "column " + std::to_string(c) + " has " +
            std::to_string(columns_[c].size()) + " values for " +
            std::to_string(ids_.size()) + " rows");
  }
  if (indexed_) {
    invariants::Require(index_.size() == ids_.size(), "ColumnStore",
                        "index holds " + std::to_string(index_.size()) +
                            " entries for " + std::to_string(ids_.size()) +
                            " rows");
    for (size_t pos = 0; pos < ids_.size(); ++pos) {
      const auto it = index_.find(ids_[pos]);
      invariants::Require(it != index_.end(), "ColumnStore",
                          "live id " + std::to_string(ids_[pos]) +
                              " missing from the id index");
      invariants::Require(
          it->second == pos, "ColumnStore",
          "index maps id " + std::to_string(ids_[pos]) + " to position " +
              std::to_string(it->second) + ", actual position " +
              std::to_string(pos));
    }
    // index.size() == rows plus every row resolving to itself makes the
    // index a bijection, which also proves id uniqueness.
  } else {
    std::unordered_map<uint64_t, size_t> seen;
    seen.reserve(ids_.size());
    for (size_t pos = 0; pos < ids_.size(); ++pos) {
      const auto [it, inserted] = seen.emplace(ids_[pos], pos);
      invariants::Require(inserted, "ColumnStore",
                          "duplicate id " + std::to_string(ids_[pos]) +
                              " at positions " + std::to_string(it->second) +
                              " and " + std::to_string(pos));
    }
  }
}

}  // namespace janus
