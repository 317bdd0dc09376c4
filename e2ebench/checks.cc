#include <cstdio>
#include <string>
#include <vector>

#include "common/parallel_for.h"
#include "common/status.h"
#include "e2ebench.h"
#include "ml/linear_models.h"
#include "ml/training_matrix.h"
#include "relational/join.h"

namespace amalur {
namespace e2ebench {

namespace {

/// Centralized dense gradient descent over the integration's materialized
/// target — the reference the factorized and FedAvg runs must reproduce.
la::DenseMatrix DenseReferenceWeights(const core::IntegrationHandle& integration,
                                      const core::TrainRequest& request) {
  common::ScopedNumThreads threads(kThreads);
  const la::DenseMatrix target = integration.metadata.MaterializeTargetMatrix();
  const size_t label = *integration.metadata.target_schema().IndexOf(
      request.label_column);
  std::vector<size_t> feature_cols;
  for (size_t j = 0; j < target.cols(); ++j) {
    if (j != label) feature_cols.push_back(j);
  }
  ml::MaterializedMatrix features(target.SelectColumns(feature_cols));
  return ml::TrainLinearRegression(features, target.SelectColumns({label}),
                                   request.gd)
      .weights;
}

void CheckWeights(const std::string& what, const la::DenseMatrix& got,
                  la::DenseMatrix reference, double tolerance, bool corrupt,
                  OpCounter* ops) {
  if (corrupt) reference.At(0, 0) += 10.0 * tolerance + 1e-6;
  const bool same_shape =
      got.rows() == reference.rows() && got.cols() == reference.cols();
  const double diff = same_shape ? got.MaxAbsDiff(reference) : -1.0;
  std::printf("check %-38s max |w - ref| = %.3e (tolerance %.0e)\n",
              what.c_str(), diff, tolerance);
  char detail[128];
  std::snprintf(detail, sizeof(detail), "%.3e > %.0e", diff, tolerance);
  ops->Record(same_shape && diff <= tolerance, what + ": " + detail);
}

}  // namespace

void CheckOutputs(const Scenario& scenario, const PipelineRun& run,
                  bool corrupt_reference, OpCounter* ops) {
  const core::ExecutionStrategy picked = run.model.plan().strategy;
  ops->Record(picked == scenario.expected_strategy,
              std::string("optimizer picked ") +
                  core::ExecutionStrategyToString(picked) + ", expected " +
                  core::ExecutionStrategyToString(scenario.expected_strategy));

  if (scenario.name == "augment_snowflake") {
    // Factorized training must reproduce dense training over the joined
    // target up to summation order.
    CheckWeights("factorized vs materialized weights", run.model.weights(),
                 DenseReferenceWeights(run.integration, scenario.request),
                 1e-9, corrupt_reference, ops);
  } else if (scenario.name == "integrate_wide") {
    // The integrated target has exactly the inner join's rows.
    const rel::Table& base = scenario.sources[0].table;
    const rel::Table& other = scenario.sources[1].table;
    Result<rel::JoinResult> join = rel::HashJoin(
        base, other, {scenario.join_keys[0].key}, {scenario.join_keys[0].key},
        rel::JoinKind::kInnerJoin);
    if (!ops->Record(join.ok(), "HashJoin: " + join.status().ToString())) {
      return;
    }
    size_t expected_rows = join->table.NumRows();
    if (corrupt_reference) ++expected_rows;
    const size_t target_rows = run.integration.metadata.target_rows();
    std::printf("check %-38s %zu target rows, inner join has %zu\n",
                "target rows vs rel::HashJoin", target_rows, expected_rows);
    ops->Record(target_rows == expected_rows,
                "target rows vs rel::HashJoin: " + std::to_string(target_rows) +
                    " != " + std::to_string(expected_rows));
  } else if (scenario.name == "federated_vfl") {
    // Paillier moves fixed-point encodings of the same residuals the
    // plaintext protocol sends, so both runs agree up to the encoding's
    // rounding.
    core::TrainRequest plaintext = scenario.request;
    plaintext.privacy = federated::VflPrivacy::kPlaintext;
    Result<core::ModelHandle> reference =
        run.system->Train(run.integration, plaintext);
    if (!ops->Record(reference.ok(), "plaintext VFL reference: " +
                                         reference.status().ToString())) {
      return;
    }
    CheckWeights("Paillier vs plaintext VFL weights", run.model.weights(),
                 reference->weights(), scenario.weight_tolerance,
                 corrupt_reference, ops);
  }
}

}  // namespace e2ebench
}  // namespace amalur
