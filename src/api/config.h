#ifndef JANUS_API_CONFIG_H_
#define JANUS_API_CONFIG_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/spt.h"
#include "data/exec_context.h"
#include "data/schema.h"

namespace janus {

/// The one flag parser shared by every bench, example and tool. Accepts
/// "key=value", "--key value" and "--key=value" tokens interchangeably
/// (leading dashes are stripped, so "--rows 100" and "rows=100" are the same
/// argument). Later occurrences of a key win.
///
/// Numeric getters parse strictly (full-token, errno-checked, like
/// scan::ParseScanThreads): negative values for unsigned getters, trailing
/// garbage ("10x"), non-numbers and out-of-range values all return the
/// caller's default and warn once per key on stderr — "rows=-1" no longer
/// wraps to 2^64-1 silently.
class ArgMap {
 public:
  ArgMap() = default;
  ArgMap(int argc, char** argv);
  /// Parse pre-split "key=value" (or bare "key" => "1") tokens — the
  /// spec-file and wire-config paths reuse the CLI parsing rules verbatim.
  explicit ArgMap(const std::vector<std::string>& tokens);

  bool Has(const std::string& key) const;

  std::string GetString(const std::string& key, const std::string& def) const;
  size_t GetSize(const std::string& key, size_t def) const;
  uint64_t GetUint64(const std::string& key, uint64_t def) const;
  int GetInt(const std::string& key, int def) const;
  double GetDouble(const std::string& key, double def) const;
  /// "1"/"true"/"on"/"yes" => true; "0"/"false"/"off"/"no" => false.
  bool GetBool(const std::string& key, bool def) const;
  /// Comma-separated integer list, e.g. "pred=0,5".
  std::vector<int> GetIntList(const std::string& key,
                              std::vector<int> def) const;

  // Fail-fast variants for parsers that must reject malformed input instead
  // of warning and defaulting (WorkloadSpec::FromFile): absent keys leave
  // *out untouched and return true; present-but-malformed values return
  // false (same strict full-token parse as the Get* family, no warning).
  bool TryGetSize(const std::string& key, size_t* out) const;
  bool TryGetDouble(const std::string& key, double* out) const;
  bool TryGetBool(const std::string& key, bool* out) const;

  /// All keys present, sorted (map order).
  std::vector<std::string> Keys() const;

  const std::map<std::string, std::string>& entries() const { return kv_; }

 private:
  std::map<std::string, std::string> kv_;
};

/// Unified configuration every engine in the registry is created from. One
/// struct covers all six backends; each adapter reads the subset it
/// understands and ignores the rest, so the same config can be replayed
/// against any engine name (the conformance suite does exactly that).
///
/// CLI keys (via FromArgs): engine, agg, pred, tracked, columns, leaves,
/// sample_rate (alias alpha), catchup_rate (alias catchup), confidence,
/// focus, algorithm, triggers, beta, check_interval, starvation, psi,
/// reopt_mode, reopt_delta_tail, strata, train_fraction, shards,
/// scan_threads, parallel_min_rows, snapshot_path, snapshot_every, seed.
struct EngineConfig {
  /// Registry name: "janus", "multi", "rs", "srs", "spn", "spt", or a
  /// composed "sharded:<inner>" key.
  std::string engine = "janus";

  /// Archive schema. When set, every backend's table allocates exactly
  /// schema.num_columns() columns; empty falls back to kMaxColumns-wide
  /// storage (safe for schema-less callers).
  Schema schema;

  // --- query template -------------------------------------------------------
  int agg_column = 1;
  std::vector<int> predicate_columns = {0};
  /// Additional aggregate columns with maintained statistics (Sec. 5.5).
  std::vector<int> extra_tracked_columns;
  /// Columns a learned model (SPN) covers; empty derives the set from the
  /// template columns above.
  std::vector<int> model_columns;

  // --- synopsis shape -------------------------------------------------------
  int num_leaves = 128;
  double sample_rate = 0.01;
  double catchup_rate = 0.10;
  double confidence = 0.95;
  AggFunc focus = AggFunc::kSum;
  PartitionAlgorithm algorithm = PartitionAlgorithm::kBinarySearch;

  // --- re-partitioning triggers (janus; multi runs none) -------------------
  bool enable_triggers = true;
  double beta = 10.0;
  uint64_t trigger_check_interval = 64;
  double starvation_factor = 0.25;
  int partial_repartition_psi = 0;
  /// Who drives the re-optimization pipeline: "blocking" runs its stages
  /// back to back on the updater whose trigger fired (the paper's behavior);
  /// "background" starts a per-engine maintenance thread that runs them off
  /// the update path (janus; multi routes Reinitialize() through it). Any
  /// other value is rejected at engine construction.
  std::string reopt_mode = "blocking";
  /// Re-optimization pipeline: the build keeps pre-draining the captured
  /// update buffer until at most this many ops remain for the exclusive
  /// adoption step.
  size_t reopt_delta_tail = 1024;

  // --- baselines ------------------------------------------------------------
  /// Strata count of the SRS baseline; 0 means "use num_leaves".
  int num_strata = 0;
  /// Fraction of the live table a learned model (re)trains on.
  double train_fraction = 0.10;

  // --- sharding ("sharded:<inner>" engines) ---------------------------------
  /// Number of hash shards, each with its own inner engine and maintenance
  /// thread. Ignored by non-sharded engines.
  int num_shards = 4;

  // --- parallel scan execution ----------------------------------------------
  /// Worker cap for morsel-parallel archival scans (exact initialization,
  /// catch-up batches, strata construction): 0 = all shared-pool threads
  /// (hardware concurrency / JANUS_SCAN_THREADS), 1 = serial, N = at most N
  /// workers per scan.
  int scan_threads = 0;
  /// Cost cutoff: scans under this many rows stay serial.
  size_t parallel_min_rows = scan::kDefaultParallelMinRows;

  // --- snapshot persistence -------------------------------------------------
  /// Where EngineDriver writes periodic snapshots (AqpEngine::Save format);
  /// empty disables automatic snapshotting.
  std::string snapshot_path;
  /// Data records (inserts + deletes) consumed between automatic snapshots;
  /// 0 disables. Requires snapshot_path.
  uint64_t snapshot_every = 0;

  uint64_t seed = 42;

  /// One entry of the engine-config key registry: the CLI/wire key plus a
  /// one-line summary (the README config table and the serving tier's
  /// config-echo response are generated from the same rows).
  struct KeyInfo {
    const char* key;
    const char* summary;
  };

  /// Every key FromArgs understands (aliases included), in presentation
  /// order. The single source of truth for the unknown-key error message,
  /// the README table and the wire-level config echo.
  static const std::vector<KeyInfo>& KnownKeys();

  /// Parse from shared CLI args. Keys that are neither in KnownKeys() nor
  /// in `extra_known` (the caller's own flags — benches pass "rows" etc.)
  /// fail fast with an ApiException(kUnknownConfigKey) listing every
  /// offender, with a did-you-mean suggestion for near-misses: a typo like
  /// scan_thread=8 aborts the run instead of silently configuring nothing.
  static EngineConfig FromArgs(const ArgMap& args,
                               const std::vector<std::string>& extra_known = {});

  /// Canonical "key=value ..." rendering (logging / reproducibility).
  std::string ToString() const;
};

/// Names for AggFunc / PartitionAlgorithm config values ("sum", "bs", ...);
/// nullopt for a name that is neither.
std::optional<AggFunc> ParseAggFunc(const std::string& name);
std::optional<PartitionAlgorithm> ParsePartitionAlgorithm(
    const std::string& name);
/// reopt_mode values: "blocking" or "background"; nullopt for anything else.
std::optional<std::string> ParseReoptMode(const std::string& name);
const char* PartitionAlgorithmName(PartitionAlgorithm a);

}  // namespace janus

#endif  // JANUS_API_CONFIG_H_
