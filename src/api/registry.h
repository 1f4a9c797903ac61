#ifndef JANUS_API_REGISTRY_H_
#define JANUS_API_REGISTRY_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/config.h"
#include "api/engine.h"

namespace janus {

/// Factory signature: build an engine from the unified config.
using EngineFactory =
    std::function<std::unique_ptr<AqpEngine>(const EngineConfig&)>;

/// String-keyed engine factory. The global instance comes pre-loaded with
/// the built-in backends:
///   janus  - JanusAQP: DPT + catch-up + re-partitioning triggers (Sec. 4/5)
///   multi  - JanusAQP routing each query template to its own tree
///            (Sec. 5.5), no triggers
///   rs     - uniform reservoir-sample baseline (Sec. 6.1.3)
///   srs    - stratified reservoir baseline, fixed equal-depth strata
///   spn    - mini sum-product-network, the DeepDB stand-in
///   spt    - static PASS partition tree, never re-optimized (Sec. 2.3)
/// Additional engines can be registered at runtime (tests do).
class EngineRegistry {
 public:
  /// The process-wide registry with the built-ins registered.
  static EngineRegistry& Global();

  /// Register (or replace) a factory under `name`.
  void Register(const std::string& name, const std::string& description,
                EngineFactory factory);

  bool Contains(const std::string& name) const;
  std::vector<std::string> Names() const;  ///< sorted
  std::string Description(const std::string& name) const;

  /// Create an engine; throws std::invalid_argument for unknown names
  /// (the message lists the registered ones).
  std::unique_ptr<AqpEngine> CreateEngine(const std::string& name,
                                          const EngineConfig& config) const;

  /// Convenience on the global registry.
  static std::unique_ptr<AqpEngine> Create(const std::string& name,
                                           const EngineConfig& config);
  /// Creates config.engine.
  static std::unique_ptr<AqpEngine> Create(const EngineConfig& config);

 private:
  struct Entry {
    std::string description;
    EngineFactory factory;
  };
  std::map<std::string, Entry> engines_;
};

}  // namespace janus

#endif  // JANUS_API_REGISTRY_H_
