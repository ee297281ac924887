// CostEvaluator: the sample → load → replay → calculate → iterate framework
// of paper §5.3. Given an engine (one candidate configuration), a resource
// instance type and a recorded/synthesized trace, it measures
// MaxPerf (saturated replay throughput) and MaxSpace (payload capacity at
// the measured expansion factor), then computes CPQPS/CPGB/PC/SC/C.

#ifndef TIERBASE_COSTMODEL_EVALUATOR_H_
#define TIERBASE_COSTMODEL_EVALUATOR_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/kv_engine.h"
#include "costmodel/cost_model.h"
#include "workload/trace.h"

namespace tierbase {
namespace costmodel {

struct EvaluationInput {
  workload::Trace trace;
  /// Keys [0, preload_keys) are inserted during the load phase.
  uint64_t preload_keys = 0;
  /// The production workload's demands that the measured configuration
  /// must be provisioned for.
  WorkloadDemand demand;
  /// Client threads used for the replay (typically = instance cores).
  int replay_threads = 1;
  /// Space-cost replication factor. The §6.4 dual-replica configurations
  /// set it to 2, doubling the space demand of the measured single copy.
  /// This is the only model of replica space cost: a measured engine
  /// always holds one copy.
  double replication_factor = 1.0;
  /// Tolerance head-room ratios (§2.1).
  double perf_tolerance = 1.0;
  double space_tolerance = 1.0;
};

struct EvaluationResult {
  std::string config_name;
  CapacityProfile capacity;
  CostMetrics metrics;
  CostBreakdown cost;
  workload::RunResult replay;
  UsageStats usage;          // After replay.
  double payload_bytes = 0;  // Ground-truth bytes of user data resident.
  double expansion_dram = 0;   // memory_bytes / payload.
  double expansion_pmem = 0;
  double expansion_disk = 0;
};

class CostEvaluator {
 public:
  /// Steps 2-4 of the framework: load, replay, calculate, for one
  /// already-constructed engine. The engine is consumed (left loaded).
  EvaluationResult Evaluate(const std::string& config_name, KvEngine* engine,
                            const ResourceInstance& instance,
                            const EvaluationInput& input);

  /// Step 5 (iterate): evaluates every candidate and returns all results
  /// plus the index of the cost-optimal one.
  struct Candidate {
    std::string name;
    ResourceInstance instance;
    std::function<std::unique_ptr<KvEngine>()> make_engine;
    /// Per-candidate overrides; <= 0 keeps the input default.
    int replay_threads = 0;
    double replication_factor = 0;
  };
  struct Sweep {
    std::vector<EvaluationResult> results;
    size_t best = 0;
  };
  Sweep Iterate(const std::vector<Candidate>& candidates,
                const EvaluationInput& input);
};

}  // namespace costmodel
}  // namespace tierbase

#endif  // TIERBASE_COSTMODEL_EVALUATOR_H_
