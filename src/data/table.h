#ifndef JANUS_DATA_TABLE_H_
#define JANUS_DATA_TABLE_H_

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "data/column_store.h"
#include "data/schema.h"
#include "util/rng.h"

namespace janus {

/// The evolving database D(i) of Sec. 2.1: a table modified by a stream of
/// insertions and deletions, with "cold/archival storage" access for
/// initialization, re-optimization and catch-up (slow, offline reads are
/// allowed; query processing must not touch it).
///
/// Storage is columnar (ColumnStore): one contiguous array per schema column
/// with swap-remove deletes, so archival scans run through the vectorized
/// kernels in data/scan.h instead of materializing row tuples. Hot paths read
/// columns zero-copy via store()/column().
class DynamicTable {
 public:
  explicit DynamicTable(Schema schema) : store_(std::move(schema)) {}

  const Schema& schema() const { return store_.schema(); }

  /// Insert a tuple. Ids must be unique among live tuples.
  void Insert(const Tuple& t) { store_.Insert(t); }

  /// Delete a live tuple by id. Returns false if the id is not live. See
  /// ColumnStore::Delete for `before`.
  bool Delete(uint64_t id) { return store_.Delete(id); }
  template <typename Fn>
  bool Delete(uint64_t id, Fn&& before) {
    return store_.Delete(id, std::forward<Fn>(before));
  }

  /// Materialize a live tuple by id; nullopt if absent.
  std::optional<Tuple> Find(uint64_t id) const { return store_.Find(id); }

  size_t size() const { return store_.size(); }
  bool empty() const { return store_.empty(); }

  /// Zero-copy columnar view of the archive (the scan-kernel entry point).
  const ColumnStore& store() const { return store_; }

  /// Zero-copy view of one column, positionally aligned with store().ids().
  ColumnSpan column(int col) const { return store_.column(col); }

  /// Uniform random sample (without replacement) of k live tuples.
  std::vector<Tuple> SampleUniform(Rng* rng, size_t k) const {
    return store_.SampleUniform(rng, k);
  }

  /// SampleUniform with morsel-parallel row materialization (serial index
  /// draws, bit-identical results; see ColumnStore::SampleUniform).
  std::vector<Tuple> SampleUniform(Rng* rng, size_t k,
                                   const scan::ExecContext& exec) const {
    return store_.SampleUniform(rng, k, exec);
  }

  /// One uniform random live tuple (with replacement semantics across calls).
  Tuple SampleOne(Rng* rng) const { return store_.SampleOne(rng); }

  /// Heap footprint of the archive (columns + ids + id index).
  size_t MemoryBytes() const { return store_.MemoryBytes(); }

  /// Snapshot persistence (delegates to the columnar store).
  void SaveTo(persist::Writer* w) const { store_.SaveTo(w); }
  void LoadFrom(persist::Reader* r) { store_.LoadFrom(r); }

 private:
  ColumnStore store_;
};

}  // namespace janus

#endif  // JANUS_DATA_TABLE_H_
