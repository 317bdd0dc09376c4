// Feature augmentation (use case 1, §II.B): a clinic's base table is
// augmented with a discovered laboratory table. The example shows
//   1. that augmentation improves model quality (lower MSE than training on
//      the base silo alone), and
//   2. how the optimizer trades factorized vs materialized execution as the
//      join fan-out (target redundancy) grows.

#include <cstdio>

#include "common/stopwatch.h"
#include "core/amalur.h"
#include "factorized/scenario_builder.h"
#include "ml/linear_models.h"
#include "ml/training_matrix.h"
#include "relational/generator.h"

namespace {

using namespace amalur;

/// MSE of linear regression trained on the base silo only.
double BaselineMse(const rel::Table& base, size_t iterations) {
  std::vector<size_t> feature_cols;
  size_t label_col = 0;
  for (size_t j = 0; j < base.NumColumns(); ++j) {
    const std::string& name = base.column(j).name();
    if (name == "y") {
      label_col = j;
    } else if (name != "k") {
      feature_cols.push_back(j);
    }
  }
  ml::MaterializedMatrix features(*base.ToMatrix(feature_cols));
  la::DenseMatrix labels = *base.ToMatrix({label_col});
  ml::GradientDescentOptions gd;
  gd.iterations = iterations;
  gd.learning_rate = 0.05;
  return ml::TrainLinearRegression(features, labels, gd).loss_history.back();
}

}  // namespace

int main() {
  // The lab table holds 40 informative assay columns; each lab panel row
  // serves many clinic visits (fan-out 8 -> redundant target).
  rel::SiloPairSpec spec;
  spec.kind = rel::JoinKind::kLeftJoin;
  spec.base_rows = 4000;
  spec.other_rows = 500;  // tuple ratio 8
  spec.base_features = 2;
  spec.other_features = 40;
  spec.seed = 2024;
  rel::SiloPair pair = rel::GenerateSiloPair(spec);
  pair.base.set_name("clinic_visits");
  pair.other.set_name("lab_panels");

  std::printf("Base silo: %zu rows x %zu cols; discovered lab silo: %zu rows "
              "x %zu cols\n\n",
              pair.base.NumRows(), pair.base.NumColumns(),
              pair.other.NumRows(), pair.other.NumColumns());

  // Generic short column names (x0, z0, ...) need strong evidence to match;
  // a stricter threshold keeps the key match and rejects lookalike noise.
  core::AmalurOptions options;
  options.matcher.threshold = 0.75;
  core::Amalur system(options);
  AMALUR_CHECK_OK(system.catalog()->RegisterSource(
      {"clinic", pair.base, "clinic", false}));
  AMALUR_CHECK_OK(system.catalog()->RegisterSource(
      {"lab", pair.other, "laboratory", false}));

  core::IntegrationSpec integration_spec;
  integration_spec.name = "clinic-lab";
  integration_spec.edges = {{"clinic", "lab", rel::JoinKind::kLeftJoin}};
  auto integration = system.Integrate(integration_spec);
  AMALUR_CHECK(integration.ok()) << integration.status();
  std::printf("Integrated target schema: %s\n",
              integration->mapping.target_schema().ToString().c_str());
  std::printf("Tuple ratio %.1f, feature ratio %.1f\n\n",
              integration->metadata.TupleRatio(1),
              integration->metadata.FeatureRatio(1));

  core::Plan plan = system.Explain(*integration);
  std::printf("Optimizer: %s\n\n", plan.explanation.c_str());

  // --- Quality: augmentation beats the base-only model.
  const size_t iterations = 150;
  const double base_only = BaselineMse(pair.base, iterations);
  core::TrainRequest request;
  request.label_column = "y";
  request.gd.iterations = iterations;
  request.gd.learning_rate = 0.05;
  auto model = system.Train(*integration, request, "augmented-model");
  AMALUR_CHECK(model.ok()) << model.status();
  std::printf("MSE base silo only : %.4f\n", base_only);
  std::printf("MSE augmented      : %.4f   (strategy: %s, %.3fs)\n\n",
              model->outcome().loss_history.back(),
              core::ExecutionStrategyToString(model->outcome().strategy_used),
              model->outcome().seconds);

  // --- Performance: force both strategies through the facade and time them.
  request.force_strategy = core::ExecutionStrategy::kFactorize;
  auto fact = system.Train(*integration, request);
  request.force_strategy = core::ExecutionStrategy::kMaterialize;
  auto mat = system.Train(*integration, request);
  AMALUR_CHECK(fact.ok() && mat.ok()) << "execution failed";
  std::printf("Forced factorized  : %.3fs\n", fact->outcome().seconds);
  std::printf("Forced materialized: %.3fs\n", mat->outcome().seconds);
  std::printf("Weight agreement   : max |Δw| = %.2e (factorization does not "
              "change the model)\n",
              fact->weights().MaxAbsDiff(mat->weights()));
  return 0;
}
