#ifndef JANUS_PERSIST_COMMON_H_
#define JANUS_PERSIST_COMMON_H_

// Serializers for the small value types shared by every engine's snapshot
// (tuples, rectangles, schemas, moment accumulators). Classes with private
// state (ColumnStore, Dpt, the index trees, ...) implement their own
// SaveTo/LoadFrom members instead; this header covers the plain structs.

#include "data/schema.h"
#include "index/dynamic_kd_tree.h"
#include "persist/serde.h"
#include "util/stats.h"

namespace janus {
namespace persist {

inline void SaveTuple(const Tuple& t, Writer* w) {
  w->U64(t.id);
  for (int c = 0; c < kMaxColumns; ++c) w->F64(t.values[static_cast<size_t>(c)]);
}

inline Tuple LoadTuple(Reader* r) {
  Tuple t;
  t.id = r->U64();
  for (int c = 0; c < kMaxColumns; ++c) {
    t.values[static_cast<size_t>(c)] = r->F64();
  }
  return t;
}

inline void SaveTupleVec(const std::vector<Tuple>& v, Writer* w) {
  w->Size(v.size());
  for (const Tuple& t : v) SaveTuple(t, w);
}

inline std::vector<Tuple> LoadTupleVec(Reader* r) {
  std::vector<Tuple> v(r->Count(8 * (1 + kMaxColumns)));
  for (Tuple& t : v) t = LoadTuple(r);
  return v;
}

inline void SaveRectangle(const Rectangle& rect, Writer* w) {
  const int d = rect.dims();
  w->I32(d);
  for (int i = 0; i < d; ++i) w->F64(rect.lo(i));
  for (int i = 0; i < d; ++i) w->F64(rect.hi(i));
}

inline Rectangle LoadRectangle(Reader* r) {
  const int d = r->I32();
  if (d < 0 || static_cast<size_t>(d) > r->remaining()) {
    throw PersistError("snapshot corrupt: bad rectangle dimensionality");
  }
  std::vector<double> lo(static_cast<size_t>(d)), hi(static_cast<size_t>(d));
  for (double& x : lo) x = r->F64();
  for (double& x : hi) x = r->F64();
  return Rectangle(std::move(lo), std::move(hi));
}

inline void SaveSchema(const Schema& s, Writer* w) {
  w->StrVec(s.column_names);
}

inline Schema LoadSchema(Reader* r) {
  Schema s;
  s.column_names = r->StrVec();
  return s;
}

inline void SaveMoments(const MomentAccumulator& m, Writer* w) {
  w->F64(m.count);
  w->F64(m.sum);
  w->F64(m.sum_sq);
}

inline MomentAccumulator LoadMoments(Reader* r) {
  MomentAccumulator m;
  m.count = r->F64();
  m.sum = r->F64();
  m.sum_sq = r->F64();
  return m;
}

inline void SaveTreeAgg(const TreeAgg& a, Writer* w) {
  w->F64(a.count);
  w->F64(a.sum);
  w->F64(a.sumsq);
}

inline TreeAgg LoadTreeAgg(Reader* r) {
  TreeAgg a;
  a.count = r->F64();
  a.sum = r->F64();
  a.sumsq = r->F64();
  return a;
}

inline void SaveKdPoint(const KdPoint& p, Writer* w) {
  for (int d = 0; d < kMaxColumns; ++d) w->F64(p.x[static_cast<size_t>(d)]);
  w->F64(p.a);
  w->U64(p.id);
}

inline KdPoint LoadKdPoint(Reader* r) {
  KdPoint p;
  for (int d = 0; d < kMaxColumns; ++d) {
    p.x[static_cast<size_t>(d)] = r->F64();
  }
  p.a = r->F64();
  p.id = r->U64();
  return p;
}

}  // namespace persist
}  // namespace janus

#endif  // JANUS_PERSIST_COMMON_H_
