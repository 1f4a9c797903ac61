#include "api/config.h"

#include "api/error.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <set>
#include <sstream>
#include <string_view>

namespace janus {

namespace {

std::string StripDashes(const std::string& s) {
  size_t i = 0;
  while (i < s.size() && s[i] == '-') ++i;
  return s.substr(i);
}

std::string Lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

// Strict numeric parsing, same rules as scan::ParseScanThreads: the whole
// token must be consumed (trailing whitespace tolerated), errno/end-pointer
// checked. Without this, strtoull-style getters wrap "rows=-1" to 2^64-1
// and read "10x" as 10 with the garbage silently ignored.

bool ParseUnsignedStrict(const std::string& s, uint64_t* out) {
  const char* text = s.c_str();
  const char* p = text;
  while (*p == ' ' || *p == '\t') ++p;
  if (*p == '-') return false;  // strtoull wraps negatives instead of failing
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(p, &end, 10);
  while (end != nullptr && (*end == ' ' || *end == '\t')) ++end;
  if (end == p || end == nullptr || *end != '\0' || errno == ERANGE) {
    return false;
  }
  *out = static_cast<uint64_t>(v);
  return true;
}

bool ParseSignedStrict(const std::string& s, long long* out) {
  const char* text = s.c_str();
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text, &end, 10);
  while (end != nullptr && (*end == ' ' || *end == '\t')) ++end;
  if (end == text || end == nullptr || *end != '\0' || errno == ERANGE) {
    return false;
  }
  *out = v;
  return true;
}

bool ParseDoubleStrict(const std::string& s, double* out) {
  const char* text = s.c_str();
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  while (end != nullptr && (*end == ' ' || *end == '\t')) ++end;
  if (end == text || end == nullptr || *end != '\0' || errno == ERANGE) {
    return false;
  }
  *out = v;
  return true;
}

// Warn once per key per process (mirrors the shared scan pool's one-shot
// warning): repeated lookups of the same malformed flag stay quiet.
void WarnBadValueOnce(const std::string& key, const std::string& value,
                      const std::string& fallback) {
  static std::mutex mu;
  static std::set<std::string>* warned = new std::set<std::string>();
  {
    std::lock_guard<std::mutex> lock(mu);
    if (!warned->insert(key).second) return;
  }
  std::fprintf(stderr,
               "[janus] ArgMap: %s=\"%s\" is not a valid number; using "
               "default %s\n",
               key.c_str(), value.c_str(), fallback.c_str());
}

}  // namespace

ArgMap::ArgMap(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string tok = argv[i];
    const size_t eq = tok.find('=');
    if (eq != std::string::npos) {
      kv_[StripDashes(tok.substr(0, eq))] = tok.substr(eq + 1);
      continue;
    }
    if (tok.size() > 1 && tok[0] == '-') {
      // "--key value" when a value follows; bare "--flag" means true. A
      // dash-prefixed token still counts as a value when it is a negative
      // number ("--beta -2.5"), not another flag.
      const std::string key = StripDashes(tok);
      const char* next = i + 1 < argc ? argv[i + 1] : nullptr;
      // The next token is this flag's value unless it is another flag
      // (dash-prefixed, negative numbers excepted) or a key=value pair.
      const bool next_is_value =
          next != nullptr &&
          std::string_view(next).find('=') == std::string_view::npos &&
          (next[0] != '-' ||
           std::isdigit(static_cast<unsigned char>(next[1])) ||
           next[1] == '.');
      if (next_is_value) {
        kv_.insert_or_assign(key, std::string(argv[++i]));
      } else {
        // std::string avoids a GCC 12 -Wrestrict false positive (PR105329)
        // on const char* assignment through insert_or_assign.
        kv_.insert_or_assign(key, std::string("1"));
      }
    }
    // Bare positional tokens are ignored.
  }
}

ArgMap::ArgMap(const std::vector<std::string>& tokens) {
  for (const std::string& tok : tokens) {
    const size_t eq = tok.find('=');
    if (eq != std::string::npos) {
      kv_[StripDashes(tok.substr(0, eq))] = tok.substr(eq + 1);
    } else if (!tok.empty()) {
      // std::string for the same GCC 12 -Wrestrict false positive
      // (PR105329) as above, here at -O3.
      kv_[StripDashes(tok)] = std::string("1");
    }
  }
}

bool ArgMap::Has(const std::string& key) const {
  return kv_.contains(key);
}

std::vector<std::string> ArgMap::Keys() const {
  std::vector<std::string> out;
  out.reserve(kv_.size());
  for (const auto& [k, v] : kv_) out.push_back(k);
  return out;
}

bool ArgMap::TryGetSize(const std::string& key, size_t* out) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return true;
  uint64_t v = 0;
  if (!ParseUnsignedStrict(it->second, &v)) return false;
  if constexpr (sizeof(size_t) < sizeof(uint64_t)) {
    if (v > std::numeric_limits<size_t>::max()) return false;
  }
  *out = static_cast<size_t>(v);
  return true;
}

bool ArgMap::TryGetDouble(const std::string& key, double* out) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return true;
  double v = 0.0;
  if (!ParseDoubleStrict(it->second, &v)) return false;
  *out = v;
  return true;
}

bool ArgMap::TryGetBool(const std::string& key, bool* out) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return true;
  const std::string v = Lower(it->second);
  if (v == "1" || v == "true" || v == "on" || v == "yes") {
    *out = true;
    return true;
  }
  if (v == "0" || v == "false" || v == "off" || v == "no") {
    *out = false;
    return true;
  }
  return false;
}

std::string ArgMap::GetString(const std::string& key,
                              const std::string& def) const {
  const auto it = kv_.find(key);
  return it == kv_.end() ? def : it->second;
}

size_t ArgMap::GetSize(const std::string& key, size_t def) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return def;
  uint64_t v = 0;
  if (!ParseUnsignedStrict(it->second, &v)) {
    WarnBadValueOnce(key, it->second, std::to_string(def));
    return def;
  }
  if constexpr (sizeof(size_t) < sizeof(uint64_t)) {
    if (v > std::numeric_limits<size_t>::max()) {
      WarnBadValueOnce(key, it->second, std::to_string(def));
      return def;
    }
  }
  return static_cast<size_t>(v);
}

uint64_t ArgMap::GetUint64(const std::string& key, uint64_t def) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return def;
  uint64_t v = 0;
  if (!ParseUnsignedStrict(it->second, &v)) {
    WarnBadValueOnce(key, it->second, std::to_string(def));
    return def;
  }
  return v;
}

int ArgMap::GetInt(const std::string& key, int def) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return def;
  long long v = 0;
  if (!ParseSignedStrict(it->second, &v) ||
      v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max()) {
    WarnBadValueOnce(key, it->second, std::to_string(def));
    return def;
  }
  return static_cast<int>(v);
}

double ArgMap::GetDouble(const std::string& key, double def) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return def;
  double v = 0.0;
  if (!ParseDoubleStrict(it->second, &v)) {
    WarnBadValueOnce(key, it->second, std::to_string(def));
    return def;
  }
  return v;
}

bool ArgMap::GetBool(const std::string& key, bool def) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return def;
  const std::string v = Lower(it->second);
  if (v == "1" || v == "true" || v == "on" || v == "yes") return true;
  if (v == "0" || v == "false" || v == "off" || v == "no") return false;
  return def;
}

std::vector<int> ArgMap::GetIntList(const std::string& key,
                                    std::vector<int> def) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return def;
  std::vector<int> out;
  std::stringstream ss(it->second);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) {
      out.push_back(static_cast<int>(std::strtol(item.c_str(), nullptr, 10)));
    }
  }
  return out.empty() ? def : out;
}

std::optional<AggFunc> ParseAggFunc(const std::string& name) {
  const std::string v = Lower(name);
  if (v == "sum") return AggFunc::kSum;
  if (v == "count" || v == "cnt") return AggFunc::kCount;
  if (v == "avg") return AggFunc::kAvg;
  if (v == "min") return AggFunc::kMin;
  if (v == "max") return AggFunc::kMax;
  return std::nullopt;
}

std::optional<PartitionAlgorithm> ParsePartitionAlgorithm(
    const std::string& name) {
  const std::string v = Lower(name);
  if (v == "bs" || v == "binary-search") return PartitionAlgorithm::kBinarySearch;
  if (v == "dp" || v == "dynamic-program") return PartitionAlgorithm::kDynamicProgram;
  if (v == "ed" || v == "equal-depth") return PartitionAlgorithm::kEqualDepth;
  if (v == "kd" || v == "kd-tree") return PartitionAlgorithm::kKdTree;
  return std::nullopt;
}

std::optional<std::string> ParseReoptMode(const std::string& name) {
  if (name == "blocking" || name == "background") return name;
  return std::nullopt;
}

const char* PartitionAlgorithmName(PartitionAlgorithm a) {
  switch (a) {
    case PartitionAlgorithm::kBinarySearch:
      return "bs";
    case PartitionAlgorithm::kDynamicProgram:
      return "dp";
    case PartitionAlgorithm::kEqualDepth:
      return "ed";
    case PartitionAlgorithm::kKdTree:
      return "kd";
  }
  return "?";
}

const std::vector<EngineConfig::KeyInfo>& EngineConfig::KnownKeys() {
  static const std::vector<KeyInfo>* keys = new std::vector<KeyInfo>{
      {"engine", "registry backend name (janus, multi, rs, srs, spn, spt, "
                 "sharded:<inner>)"},
      {"agg", "aggregate column index"},
      {"pred", "predicate column indices, comma-separated"},
      {"tracked", "extra tracked aggregate columns (Sec. 5.5)"},
      {"columns", "columns a learned model (SPN) covers"},
      {"leaves", "partition-tree leaf count"},
      {"sample_rate", "synopsis sample rate"},
      {"alpha", "alias of sample_rate"},
      {"catchup_rate", "catch-up sample goal as a table fraction"},
      {"catchup", "alias of catchup_rate"},
      {"confidence", "CI confidence level"},
      {"focus", "optimizer focus aggregate (sum, count, avg, min, max)"},
      {"algorithm", "partitioner (bs, dp, ed, kd)"},
      {"triggers", "re-partitioning triggers on/off (janus)"},
      {"beta", "trigger sensitivity"},
      {"check_interval", "updates between trigger checks"},
      {"starvation", "starvation factor of the trigger policy"},
      {"psi", "partial re-partition subtree size (0 = always full)"},
      {"reopt_mode", "blocking | background re-optimization"},
      {"reopt_delta_tail", "max delta ops left for background adoption"},
      {"strata", "SRS strata count (0 = num_leaves)"},
      {"train_fraction", "fraction of live table a model retrains on"},
      {"shards", "hash-shard count of sharded:* engines"},
      {"scan_threads", "morsel-parallel scan worker cap (0 = all, 1 = "
                       "serial)"},
      {"parallel_min_rows", "scans under this many rows stay serial"},
      {"snapshot_path", "periodic snapshot file (empty = off)"},
      {"snapshot_every", "records between automatic snapshots (0 = off)"},
      {"seed", "RNG seed"},
  };
  return *keys;
}

namespace {

/// Levenshtein distance with early-out; used only for did-you-mean hints on
/// the (cold) unknown-key error path.
size_t EditDistance(const std::string& a, const std::string& b) {
  std::vector<size_t> prev(b.size() + 1), cur(b.size() + 1);
  for (size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (size_t j = 1; j <= b.size(); ++j) {
      const size_t sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

/// Value of a key whose value must be one of a fixed set of names; an
/// unrecognized name is a typed error naming the key and the value.
template <typename T, typename Parse>
T ParseNamed(const ArgMap& args, const std::string& key, T def, Parse parse) {
  if (!args.Has(key)) return def;
  const std::string name = args.GetString(key, "");
  const std::optional<T> v = parse(name);
  if (!v.has_value()) {
    throw ApiException(ApiErrorCode::kInvalidArgument,
                       "config key '" + key + "' has unknown value '" + name +
                           "'");
  }
  return *v;
}

}  // namespace

EngineConfig EngineConfig::FromArgs(const ArgMap& args,
                                    const std::vector<std::string>& extra_known) {
  // Collect unknown keys first and fail fast with the whole list: a typo
  // like scan_thread=8 must abort the run, not silently configure nothing.
  std::set<std::string> known;
  for (const KeyInfo& k : KnownKeys()) known.insert(k.key);
  for (const std::string& k : extra_known) known.insert(k);
  std::string unknown;
  for (const std::string& key : args.Keys()) {
    if (known.contains(key)) continue;
    if (!unknown.empty()) unknown += ", ";
    unknown += key;
    // Did-you-mean: the closest known key within edit distance 2.
    size_t best = 3;
    const std::string* suggestion = nullptr;
    for (const std::string& cand : known) {
      const size_t d = EditDistance(key, cand);
      if (d < best) {
        best = d;
        suggestion = &cand;
      }
    }
    if (suggestion != nullptr) unknown += " (did you mean " + *suggestion + "?)";
  }
  if (!unknown.empty()) {
    throw ApiException(ApiErrorCode::kUnknownConfigKey,
                       "unknown config keys: " + unknown);
  }

  EngineConfig c;
  c.engine = args.GetString("engine", c.engine);
  c.agg_column = args.GetInt("agg", c.agg_column);
  c.predicate_columns = args.GetIntList("pred", c.predicate_columns);
  c.extra_tracked_columns =
      args.GetIntList("tracked", c.extra_tracked_columns);
  c.model_columns = args.GetIntList("columns", c.model_columns);
  c.num_leaves = args.GetInt("leaves", c.num_leaves);
  c.sample_rate =
      args.GetDouble("sample_rate", args.GetDouble("alpha", c.sample_rate));
  c.catchup_rate =
      args.GetDouble("catchup_rate", args.GetDouble("catchup", c.catchup_rate));
  c.confidence = args.GetDouble("confidence", c.confidence);
  c.focus = ParseNamed(args, "focus", c.focus, ParseAggFunc);
  c.algorithm =
      ParseNamed(args, "algorithm", c.algorithm, ParsePartitionAlgorithm);
  c.enable_triggers = args.GetBool("triggers", c.enable_triggers);
  c.beta = args.GetDouble("beta", c.beta);
  c.trigger_check_interval =
      args.GetUint64("check_interval", c.trigger_check_interval);
  c.starvation_factor = args.GetDouble("starvation", c.starvation_factor);
  c.partial_repartition_psi = args.GetInt("psi", c.partial_repartition_psi);
  c.reopt_mode = ParseNamed(args, "reopt_mode", c.reopt_mode, ParseReoptMode);
  c.reopt_delta_tail = args.GetSize("reopt_delta_tail", c.reopt_delta_tail);
  c.num_strata = args.GetInt("strata", c.num_strata);
  c.train_fraction = args.GetDouble("train_fraction", c.train_fraction);
  c.num_shards = args.GetInt("shards", c.num_shards);
  c.scan_threads = args.GetInt("scan_threads", c.scan_threads);
  c.parallel_min_rows = args.GetSize("parallel_min_rows", c.parallel_min_rows);
  c.snapshot_path = args.GetString("snapshot_path", c.snapshot_path);
  c.snapshot_every = args.GetUint64("snapshot_every", c.snapshot_every);
  c.seed = args.GetUint64("seed", c.seed);
  return c;
}

std::string EngineConfig::ToString() const {
  std::ostringstream os;
  auto list = [](const std::vector<int>& v) {
    std::string s;
    for (size_t i = 0; i < v.size(); ++i) {
      if (i) s += ',';
      s += std::to_string(v[i]);
    }
    return s;
  };
  os << "engine=" << engine << " agg=" << agg_column
     << " pred=" << list(predicate_columns);
  if (!extra_tracked_columns.empty()) {
    os << " tracked=" << list(extra_tracked_columns);
  }
  if (!model_columns.empty()) os << " columns=" << list(model_columns);
  os << " leaves=" << num_leaves << " sample_rate=" << sample_rate
     << " catchup_rate=" << catchup_rate << " confidence=" << confidence
     << " focus=" << AggFuncName(focus)
     << " algorithm=" << PartitionAlgorithmName(algorithm)
     << " triggers=" << (enable_triggers ? "on" : "off") << " beta=" << beta
     << " check_interval=" << trigger_check_interval
     << " starvation=" << starvation_factor
     << " psi=" << partial_repartition_psi
     << " reopt_mode=" << reopt_mode
     << " reopt_delta_tail=" << reopt_delta_tail;
  if (num_strata > 0) os << " strata=" << num_strata;
  os << " train_fraction=" << train_fraction << " shards=" << num_shards
     << " scan_threads=" << scan_threads
     << " parallel_min_rows=" << parallel_min_rows;
  if (!snapshot_path.empty()) os << " snapshot_path=" << snapshot_path;
  if (snapshot_every > 0) os << " snapshot_every=" << snapshot_every;
  os << " seed=" << seed;
  return os.str();
}

}  // namespace janus
