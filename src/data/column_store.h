#ifndef JANUS_DATA_COLUMN_STORE_H_
#define JANUS_DATA_COLUMN_STORE_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "data/exec_context.h"
#include "data/schema.h"
#include "util/rng.h"

namespace janus {

namespace persist {
class Writer;
class Reader;
}  // namespace persist

/// Zero-copy view of one column: a contiguous run of doubles, one value per
/// live row, positionally aligned with ColumnStore::ids().
struct ColumnSpan {
  const double* data = nullptr;
  size_t size = 0;

  const double* begin() const { return data; }
  const double* end() const { return data + size; }
  double operator[](size_t i) const { return data[i]; }
  bool empty() const { return size == 0; }
};

/// Structure-of-arrays tuple storage: one contiguous std::vector<double> per
/// schema column plus an id column and an id→position index. Live rows are
/// kept dense (swap-remove on delete), so archival scans are sequential reads
/// of exactly the columns a kernel touches and uniform sampling is O(1) per
/// draw.
///
/// Only `schema.num_columns()` columns are allocated (an empty schema falls
/// back to kMaxColumns so schema-less callers keep the full Tuple width).
/// Inserting a tuple stores its first num_columns() values; reads of columns
/// outside the schema return 0.0, matching Tuple's zero-initialized slots.
class ColumnStore {
 public:
  explicit ColumnStore(Schema schema);
  /// Anonymous schema of `num_columns` columns (scratch stores built from
  /// row vectors by the scan kernels and tests).
  explicit ColumnStore(int num_columns);

  const Schema& schema() const { return schema_; }
  int num_columns() const { return static_cast<int>(columns_.size()); }

  size_t size() const { return ids_.size(); }
  bool empty() const { return ids_.empty(); }

  /// Room for `rows` rows in the columns and the id column. The id index is
  /// sized when it is (re)built.
  void Reserve(size_t rows);

  /// Insert a tuple. Ids must be unique among live rows.
  void Insert(const Tuple& t);

  /// Append rows without maintaining the id index — the fast path for
  /// scan-only scratch stores and snapshots (the index is the dominant cost
  /// of a bulk load). The index is rebuilt lazily by the first id lookup
  /// (Find/Contains/Delete/Insert).
  void BulkAppend(const std::vector<Tuple>& rows);

  /// Append rows [begin, end) of `src` (same schema) in position order,
  /// index-free like BulkAppend.
  void AppendRange(const ColumnStore& src, size_t begin, size_t end);

  /// Copy of this store carrying only the columns and ids (snapshots that
  /// only scan or sample never pay for the id index).
  ColumnStore WithoutIndex() const;

  /// Delete a live row by id (swap-remove, one id lookup). Returns false if
  /// not live. `before(pos)` runs first, with the row's position, while the
  /// store is unchanged (copy-on-write snapshots save the rows it moves).
  bool Delete(uint64_t id) { return Delete(id, [](size_t) {}); }
  template <typename Fn>
  bool Delete(uint64_t id, Fn&& before) {
    EnsureIndex();
    const auto it = index_.find(id);
    if (it == index_.end()) return false;
    const size_t pos = it->second;
    before(pos);
    const size_t last = ids_.size() - 1;
    if (pos != last) {
      ids_[pos] = ids_[last];
      for (auto& col : columns_) col[pos] = col[last];
      index_[ids_[pos]] = pos;
    }
    ids_.pop_back();
    for (auto& col : columns_) col.pop_back();
    index_.erase(it);
    return true;
  }

  bool Contains(uint64_t id) const {
    EnsureIndex();
    return index_.contains(id);
  }

  /// Materialize a live row by id; nullopt if absent.
  std::optional<Tuple> Find(uint64_t id) const;

  uint64_t id_at(size_t pos) const { return ids_[pos]; }
  double value(size_t pos, int col) const {
    return static_cast<size_t>(col) < columns_.size()
               ? columns_[static_cast<size_t>(col)][pos]
               : 0.0;
  }

  /// Materialize the row at `pos` as a Tuple (columns outside the schema
  /// stay zero).
  Tuple RowTuple(size_t pos) const;

  /// Zero-copy view of one column. Columns outside the schema yield an empty
  /// span.
  ColumnSpan column(int col) const {
    if (static_cast<size_t>(col) >= columns_.size()) return {};
    return {columns_[static_cast<size_t>(col)].data(), ids_.size()};
  }

  const std::vector<uint64_t>& ids() const { return ids_; }

  /// Uniform random sample (without replacement) of k live rows,
  /// materialized.
  std::vector<Tuple> SampleUniform(Rng* rng, size_t k) const;

  /// SampleUniform with morsel-parallel row materialization. The index
  /// draws stay serial — the persisted RNG stream must be independent of
  /// the thread count — and each drawn row fills its own output slot, so
  /// the result is bit-identical to the serial overload.
  std::vector<Tuple> SampleUniform(Rng* rng, size_t k,
                                   const scan::ExecContext& exec) const;

  /// One uniform random live row (with replacement semantics across calls).
  Tuple SampleOne(Rng* rng) const;

  /// Heap footprint of the archive: column data + id column + id index.
  size_t MemoryBytes() const;

  /// Snapshot persistence. Rows serialize in physical position order, so a
  /// restored store has the identical layout (swap-remove history included)
  /// and every position-based scan or sample replays bit-identically. The id
  /// index is not serialized; it is rebuilt lazily by the first id lookup.
  void SaveTo(persist::Writer* w) const;
  void LoadFrom(persist::Reader* r);

  /// Rows [begin, end) of `store`.
  struct Run {
    const ColumnStore* store;
    size_t begin, end;
  };
  /// SaveTo's bytes for a store of this schema holding the rows of `runs`,
  /// in order, without assembling it (stores of the same schema).
  void SaveRuns(const std::vector<Run>& runs, persist::Writer* w) const;

  /// Structural audit: every column is exactly ids().size() long, ids are
  /// unique, and — when the id index has been built — it is a bijection onto
  /// the live positions (index[id] == pos && ids[pos] == id, one entry per
  /// row). Throws InvariantViolation on the first inconsistency.
  void CheckInvariants() const;

 private:
  /// Test-only backdoor (tests/invariant_audit_test.cc) for corrupting the
  /// private index so the negative audit tests can prove CheckInvariants()
  /// actually detects damage.
  friend struct InvariantTestPeer;
  /// Rebuild the id index after BulkAppend left it stale. Not thread-safe
  /// with concurrent readers; stores shared across threads (DynamicTable)
  /// never go through BulkAppend, so their index is always current.
  void EnsureIndex() const;

  Schema schema_;
  std::vector<std::vector<double>> columns_;  // [col][row]
  std::vector<uint64_t> ids_;                 // [row]
  mutable std::unordered_map<uint64_t, size_t> index_;  // id -> row position
  mutable bool indexed_ = true;
};

}  // namespace janus

#endif  // JANUS_DATA_COLUMN_STORE_H_
