#include <fstream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "api/config.h"
#include "api/error.h"
#include "workload/spec.h"

namespace janus {
namespace workload {

namespace {

[[noreturn]] void BadSpec(const std::string& path, const std::string& section,
                          const std::string& what) {
  throw ApiException(ApiErrorCode::kBadSpecFile,
                     "spec file " + path +
                         (section.empty() ? "" : " [" + section + "]") + ": " +
                         what);
}

std::string Trim(const std::string& s) {
  const size_t begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  const size_t end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

/// One section's "key = value" lines behind the strict ArgMap parsers.
/// Every getter registers its key as known; Finish() rejects the rest, so
/// a typo like "zpif_s" fails the parse instead of silently keeping the
/// default skew.
class SectionParser {
 public:
  SectionParser(std::string path, std::string section,
                const std::vector<std::string>& tokens)
      : path_(std::move(path)),
        section_(std::move(section)),
        args_(tokens) {}

  std::string GetString(const std::string& key, const std::string& def) {
    known_.insert(key);
    return args_.GetString(key, def);
  }

  size_t GetSize(const std::string& key, size_t def) {
    known_.insert(key);
    size_t v = def;
    if (!args_.TryGetSize(key, &v)) FailValue(key);
    return v;
  }

  double GetDouble(const std::string& key, double def) {
    known_.insert(key);
    double v = def;
    if (!args_.TryGetDouble(key, &v)) FailValue(key);
    return v;
  }

  bool GetBool(const std::string& key, bool def) {
    known_.insert(key);
    bool v = def;
    if (!args_.TryGetBool(key, &v)) FailValue(key);
    return v;
  }

  /// Fraction in [lo, hi]; out-of-range values are spec errors, not clamps.
  double GetFraction(const std::string& key, double def, double lo,
                     double hi) {
    const double v = GetDouble(key, def);
    if (v < lo || v > hi) {
      Fail("key '" + key + "' must be in [" + std::to_string(lo) + ", " +
           std::to_string(hi) + "], got " + std::to_string(v));
    }
    return v;
  }

  AggFunc GetAggFunc(const std::string& key, AggFunc def) {
    known_.insert(key);
    if (!args_.Has(key)) return def;
    const std::string name = args_.GetString(key, "");
    const std::optional<AggFunc> f = ParseAggFunc(name);
    if (!f.has_value()) {
      Fail("key '" + key + "' names an unknown aggregate '" + name + "'");
    }
    return *f;
  }

  /// Distribution family under `prefix`: <prefix>_dist picks the kind, the
  /// remaining <prefix>_* keys set that family's parameters.
  DistSpec GetDist(const std::string& prefix, const DistSpec& def) {
    DistSpec d = def;
    const std::string kind_key = prefix + "_dist";
    known_.insert(kind_key);
    if (args_.Has(kind_key)) {
      const std::string name = args_.GetString(kind_key, "");
      const DistKind a = ParseDistKind(name, DistKind::kUniform);
      const DistKind b = ParseDistKind(name, DistKind::kZipfian);
      if (a != b) {
        Fail("key '" + kind_key + "' names an unknown distribution '" + name +
             "' (uniform, zipfian, hotspot, lognormal)");
      }
      d.kind = a;
    }
    d.zipf_s = GetDouble(prefix + "_zipf_s", d.zipf_s);
    d.zipf_n = GetSize(prefix + "_zipf_n", d.zipf_n);
    if (d.zipf_n == 0) Fail("key '" + prefix + "_zipf_n' must be positive");
    d.scramble = GetBool(prefix + "_scramble", d.scramble);
    d.hot_fraction = GetFraction(prefix + "_hot_fraction", d.hot_fraction,
                                 0.0, 1.0);
    d.hot_probability =
        GetFraction(prefix + "_hot_probability", d.hot_probability, 0.0, 1.0);
    d.lognormal_mu = GetDouble(prefix + "_lognormal_mu", d.lognormal_mu);
    d.lognormal_sigma =
        GetDouble(prefix + "_lognormal_sigma", d.lognormal_sigma);
    if (d.lognormal_sigma <= 0) {
      Fail("key '" + prefix + "_lognormal_sigma' must be positive");
    }
    return d;
  }

  /// Reject every key no getter claimed.
  void Finish() const {
    std::vector<std::string> unknown;
    for (const std::string& key : args_.Keys()) {
      if (known_.find(key) == known_.end()) unknown.push_back(key);
    }
    if (unknown.empty()) return;
    std::string list;
    for (const std::string& key : unknown) {
      if (!list.empty()) list += ", ";
      list += key;
    }
    Fail("unknown keys: " + list);
  }

  [[noreturn]] void Fail(const std::string& what) const {
    BadSpec(path_, section_, what);
  }

 private:
  [[noreturn]] void FailValue(const std::string& key) const {
    Fail("key '" + key + "' has a malformed value '" +
         args_.GetString(key, "") + "'");
  }

  std::string path_;
  std::string section_;
  ArgMap args_;
  std::set<std::string> known_;
};

void ParseGlobal(const std::string& path,
                 const std::vector<std::string>& tokens, WorkloadSpec* spec) {
  SectionParser p(path, "", tokens);
  spec->name = p.GetString("name", spec->name);
  spec->load_rows = p.GetSize("load_rows", spec->load_rows);
  const size_t pred = p.GetSize(
      "pred_columns", static_cast<size_t>(spec->num_predicate_columns));
  if (pred == 0 || pred >= static_cast<size_t>(kMaxColumns)) {
    p.Fail("pred_columns must be in [1, " + std::to_string(kMaxColumns - 1) +
           "] (one column is reserved for the aggregate)");
  }
  spec->num_predicate_columns = static_cast<int>(pred);
  spec->load_dist = p.GetDist("load", spec->load_dist);
  p.Finish();
}

PhaseSpec ParsePhase(const std::string& path, const std::string& name,
                     const std::vector<std::string>& tokens) {
  PhaseSpec phase;
  phase.name = name;
  SectionParser p(path, "phase " + name, tokens);
  phase.ops = p.GetSize("ops", phase.ops);
  phase.seconds = p.GetDouble("seconds", phase.seconds);
  if (phase.seconds < 0) p.Fail("seconds must be non-negative");
  phase.mix.insert = p.GetFraction("insert", phase.mix.insert, 0.0, 1.0);
  phase.mix.del = p.GetFraction("delete", phase.mix.del, 0.0, 1.0);
  phase.mix.query = p.GetFraction("query", phase.mix.query, 0.0, 1.0);
  phase.mix.Normalize();
  phase.func = p.GetAggFunc("func", phase.func);
  phase.key_dist = p.GetDist("key", phase.key_dist);
  phase.rect.placement = p.GetDist("place", phase.rect.placement);
  phase.rect.width = p.GetDist("width", phase.rect.width);
  phase.rect.min_width_frac = p.GetFraction(
      "min_width_frac", phase.rect.min_width_frac, 0.0, 1.0);
  phase.rect.max_width_frac = p.GetFraction(
      "max_width_frac", phase.rect.max_width_frac, 0.0, 1.0);
  if (phase.rect.min_width_frac > phase.rect.max_width_frac) {
    p.Fail("min_width_frac exceeds max_width_frac");
  }
  p.Finish();
  return phase;
}

}  // namespace

WorkloadSpec WorkloadSpec::FromFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) BadSpec(path, "", "cannot open the file");

  // Split into a global section followed by [phase NAME] sections; defer
  // parsing until the sections are complete so every key of a section is
  // validated together.
  std::vector<std::string> global_tokens;
  std::vector<std::pair<std::string, std::vector<std::string>>> phase_tokens;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    line = Trim(line);
    if (line.empty()) continue;
    if (line.front() == '[') {
      if (line.back() != ']') {
        BadSpec(path, "", "line " + std::to_string(line_no) +
                              ": unterminated section header '" + line + "'");
      }
      const std::string header = Trim(line.substr(1, line.size() - 2));
      constexpr const char kPhasePrefix[] = "phase ";
      if (header.rfind(kPhasePrefix, 0) != 0 ||
          Trim(header.substr(sizeof(kPhasePrefix) - 1)).empty()) {
        BadSpec(path, "",
                "line " + std::to_string(line_no) + ": section '" + header +
                    "' is not of the form [phase NAME]");
      }
      phase_tokens.emplace_back(Trim(header.substr(sizeof(kPhasePrefix) - 1)),
                                std::vector<std::string>());
      continue;
    }
    const size_t eq = line.find('=');
    if (eq == std::string::npos) {
      BadSpec(path, "", "line " + std::to_string(line_no) +
                            ": expected 'key = value', got '" + line + "'");
    }
    const std::string key = Trim(line.substr(0, eq));
    const std::string value = Trim(line.substr(eq + 1));
    if (key.empty() || value.empty()) {
      BadSpec(path, "", "line " + std::to_string(line_no) +
                            ": empty key or value in '" + line + "'");
    }
    std::vector<std::string>& sink =
        phase_tokens.empty() ? global_tokens : phase_tokens.back().second;
    sink.push_back(key + "=" + value);
  }

  WorkloadSpec spec;
  spec.phases.clear();
  ParseGlobal(path, global_tokens, &spec);
  for (const auto& [name, tokens] : phase_tokens) {
    spec.phases.push_back(ParsePhase(path, name, tokens));
  }
  if (spec.phases.empty()) {
    BadSpec(path, "", "the spec defines no [phase NAME] sections");
  }
  return spec;
}

}  // namespace workload
}  // namespace janus
