#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/amalur.h"
#include "serving/deployed_model.h"
#include "serving/model_registry.h"
#include "trace.h"

/// \file e2ebench.h
/// The end-to-end benchmark: seeded silos are driven through the public
/// facade (register → Integrate → Train → Deploy → PredictBatch), every
/// output is checked, and each run reports the metrics named in
/// BENCHMARK.json. A traced run additionally replays each layer's public
/// calls under spans to attribute the pipeline's time to layers.

namespace amalur {
namespace e2ebench {

/// Worker threads every timed call runs with. Pinned, not read from the
/// environment, so two commits measured on one machine run one program.
inline constexpr size_t kThreads = 4;

/// Set-ups timed per pipeline pass. The first one or two after a pass
/// run on cold caches and take about twice as long; with this many, the
/// median lies well inside the warm set-ups instead of on the boundary.
inline constexpr size_t kSetupRepeats = 31;

/// Target rows per serving request.
inline constexpr size_t kBatchRows = 256;

/// The quantile of its samples train_s reports (every other end-to-end
/// timing reports its fastest sample). A four-thread Train speeds up by a
/// further fifth in the rare stretches when the host leaves all four cores
/// free, so its fastest sample depends on whether a run met one; the
/// tenth percentile lies on the floor most of the run reaches. run.py
/// applies the same quantile to the samples it pools.
inline constexpr double kTrainQuantile = 0.10;

/// A join edge's surrogate key, as the generator wrote it (the relational
/// layer replay matches rows on it).
struct JoinKey {
  std::string parent;
  std::string child;
  std::string key;
};

/// One workload's generated inputs and the pipeline the user runs on them.
struct Scenario {
  std::string name;
  std::vector<core::SourceEntry> sources;
  core::IntegrationSpec spec;
  std::vector<JoinKey> join_keys;
  core::TrainRequest request;
  /// The strategy the optimizer must pick on these inputs.
  core::ExecutionStrategy expected_strategy = core::ExecutionStrategy::kFactorize;
  /// `serve_clients` > 0 adds a closed-loop serving phase after the
  /// deploy.
  size_t serve_clients = 0;
  size_t requests_per_client = 0;
  /// Federated workloads: max |w - reference| the output check accepts.
  double weight_tolerance = 0.0;
  /// Times an untraced pass runs the pinned-thread Train on its
  /// integration, each timed on its own. More samples of a short
  /// four-thread Train let its fastest one reach the quiet stretches of a
  /// shared host.
  size_t train_repeats = 1;

  /// Federated models are not deployed; every other model is.
  bool deploys() const {
    return expected_strategy != core::ExecutionStrategy::kFederate;
  }
};

/// Generates the workload's silos from `seed`; apart from them, the seed
/// only picks the serving phase's rows. `toy` shrinks every shape for the
/// self-test.
Result<Scenario> MakeScenario(const std::string& name, uint64_t seed, bool toy);

/// Facade configuration shared by every workload: generated tables carry
/// generic short column names (x0, u0, ...), which need the stricter
/// matching threshold to keep only the key and shared-column matches.
core::AmalurOptions SystemOptions();

/// Operations attempted and failed. Each facade call and each output check
/// is one operation.
class OpCounter {
 public:
  /// Records one operation; a failure is reported on stderr with `what`.
  bool Record(bool ok, const std::string& what);
  /// Records `attempted` operations of one kind, `failed` of which failed.
  void RecordMany(size_t attempted, size_t failed, const std::string& what);
  size_t attempted() const { return attempted_; }
  size_t failed() const { return failed_; }

 private:
  size_t attempted_ = 0;
  size_t failed_ = 0;
};

/// One pass of the user's pipeline through the facade.
struct PipelineRun {
  std::unique_ptr<core::Amalur> system;
  core::IntegrationHandle integration;
  core::ModelHandle model;
  std::unique_ptr<serving::ModelRegistry> registry;
  std::shared_ptr<const serving::DeployedModel> deployed;
  /// One entry per set-up (`kSetupRepeats` per pass).
  std::vector<double> setup_s;
  double integrate_s = 0.0;
  /// One entry per pinned-thread Train (`Scenario::train_repeats` per
  /// untraced pass, else one); `model` is the last one's.
  std::vector<double> train_s;
  double train_serial_s = 0.0;
  double deploy_s = 0.0;

  /// Registered silos to a model ready to serve, through the pass's first
  /// Train.
  double pipeline_s() const { return integrate_s + train_s.front() + deploy_s; }
};

/// Runs setup → Integrate → Train (→ the further Trains and the Train at
/// one thread when `end_to_end`) → Deploy, timing each step and recording
/// spans under the innermost open span of `tracer` (null = untraced).
/// Returns false once an operation failed; later steps are skipped.
bool RunPipeline(const Scenario& scenario, bool end_to_end, Tracer* tracer,
                 OpCounter* ops, PipelineRun* run);

/// Closed-loop serving: `clients` threads each send `requests` batches of
/// `kBatchRows` random target rows, one after another, and check every
/// score bitwise against `expected` (the model's in-sample `Predict()`).
struct ServingResult {
  std::vector<double> latencies_s;
  double wall_s = 0.0;
  size_t rows = 0;
  size_t failed_requests = 0;
  size_t mismatched_scores = 0;
};
ServingResult RunServing(const serving::DeployedModel& model,
                         const la::DenseMatrix& expected, size_t clients,
                         size_t requests, uint64_t seed);

/// Output checks of one pipeline pass (strategy plus the workload's own
/// reference). `corrupt_reference` perturbs every reference so the checks
/// must fail — the self-test's proof that they can.
void CheckOutputs(const Scenario& scenario, const PipelineRun& run,
                  bool corrupt_reference, OpCounter* ops);

/// A named metric value with its unit.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// Per-layer metrics of one traced pass: replays each layer's public calls
/// for `run`'s integration and model under spans below the innermost open
/// span, plus the probes (forced-strategy decision check, Paillier
/// primitives, single-client batches) below their own span.
std::vector<Metric> MeasureLayers(const Scenario& scenario,
                                  const PipelineRun& run, Tracer* tracer,
                                  OpCounter* ops);

/// Median of `values` (0 for an empty set).
double Median(std::vector<double> values);
/// Smallest of `values` (0 for an empty set).
double Fastest(const std::vector<double>& values);
/// Nearest-rank quantile `q` in [0, 1] of `values`.
double Quantile(std::vector<double> values, double q);

}  // namespace e2ebench
}  // namespace amalur
