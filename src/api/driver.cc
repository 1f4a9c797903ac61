#include "api/driver.h"

namespace janus {

EngineDriver::EngineDriver(AqpEngine* engine, Broker* broker,
                           EngineDriverOptions opts)
    : engine_(engine), broker_(broker), opts_(opts) {}

size_t EngineDriver::PumpOnce() {
  size_t consumed = 0;

  // Data updates first, so queries in the same round see them (the streams
  // are independent topics; arrival order across topics is per-round).
  std::vector<Tuple> batch;
  const size_t ins = broker_->insert_topic()->Poll(insert_offset_,
                                                   opts_.poll_batch, &batch);
  engine_->InsertBatch(batch);
  insert_offset_ += ins;
  stats_.inserts += ins;
  consumed += ins;

  batch.clear();
  const size_t del = broker_->delete_topic()->Poll(delete_offset_,
                                                   opts_.poll_batch, &batch);
  for (const Tuple& t : batch) engine_->Delete(t.id);
  delete_offset_ += del;
  stats_.deletes += del;
  consumed += del;

  if (opts_.catchup_step > 0) engine_->StepCatchup(opts_.catchup_step);

  // Periodic snapshots: count data records only (queries carry no state).
  if (opts_.snapshot_every > 0 && !opts_.snapshot_path.empty()) {
    records_since_snapshot_ += ins + del;
    if (records_since_snapshot_ >= opts_.snapshot_every) {
      SaveSnapshot(opts_.snapshot_path);
      records_since_snapshot_ = 0;
    }
  }

  std::vector<AggQuery> queries;
  const size_t qs = broker_->query_topic()->Poll(query_offset_,
                                                 opts_.poll_batch, &queries);
  for (const AggQuery& q : queries) results_.push_back(engine_->Query(q));
  query_offset_ += qs;
  stats_.queries += qs;
  consumed += qs;

  return consumed;
}

std::vector<QueryResult> EngineDriver::TakeResults() {
  std::vector<QueryResult> out;
  out.swap(results_);
  return out;
}

size_t EngineDriver::Drain() {
  size_t total = 0;
  while (true) {
    const size_t n = PumpOnce();
    if (n == 0) break;
    total += n;
  }
  return total;
}

void EngineDriver::SaveSnapshot(const std::string& path) const {
  SnapshotMeta meta;
  meta.insert_offset = insert_offset_;
  meta.delete_offset = delete_offset_;
  meta.query_offset = query_offset_;
  engine_->Save(path, meta);
}

void EngineDriver::LoadSnapshot(const std::string& path) {
  const SnapshotMeta meta = engine_->Load(path);
  insert_offset_ = meta.insert_offset;
  delete_offset_ = meta.delete_offset;
  query_offset_ = meta.query_offset;
  records_since_snapshot_ = 0;
}

}  // namespace janus
