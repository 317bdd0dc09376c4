// Quickstart: the paper's running example (Figures 2 and 4), end to end.
//
// Two hospital departments hold patient tables: the ER department's
// S1(m, n, a, hr) with the mortality label, and the pulmonary department's
// S2(m, n, a, o, dd) with blood-oxygen readings. Amalur discovers the shared
// columns, synthesizes the mediated schema T(m, a, hr, o), resolves Jane as
// the shared entity, derives the mapping/indicator/redundancy matrices, and
// trains a mortality model — choosing factorized or materialized execution
// by cost. The trained ModelHandle then serves predictions and an
// evaluation over the materialized target.

#include <cstdio>

#include "core/amalur.h"
#include "integration/running_example.h"

int main() {
  using namespace amalur;

  integration::RunningExample example = integration::MakeRunningExample();
  std::printf("=== Source silos ===\n%s\n%s\n",
              example.s1.ToString().c_str(), example.s2.ToString().c_str());

  core::Amalur system;
  AMALUR_CHECK_OK(system.catalog()->RegisterSource(
      {"S1", example.s1, "hospital-er", /*privacy_sensitive=*/false}));
  AMALUR_CHECK_OK(system.catalog()->RegisterSource(
      {"S2", example.s2, "hospital-pulmonary", /*privacy_sensitive=*/false}));

  core::IntegrationSpec spec;
  spec.name = "er-pulmonary";  // stored in the catalog for later reuse
  spec.edges = {{"S1", "S2", rel::JoinKind::kFullOuterJoin}};
  auto integration = system.Integrate(spec);
  AMALUR_CHECK(integration.ok()) << integration.status();

  std::printf("=== Discovered column matches ===\n");
  for (const auto& match : integration->edge_matches[0]) {
    std::printf("  S1.%s  ~  S2.%s   (score %.2f)\n",
                example.s1.column(match.left_column).name().c_str(),
                example.s2.column(match.right_column).name().c_str(),
                match.score);
  }

  std::printf("\n=== Generated schema mapping (s-t tgds, Table I) ===\n%s\n",
              integration->mapping.ToString().c_str());

  std::printf("=== Entity resolution ===\n");
  for (const auto& [l, r] : integration->matchings[0].matched) {
    std::printf("  S1 row %zu  ==  S2 row %zu   (%s)\n", l, r,
                example.s1.column(1).GetValue(l).str().c_str());
  }

  const metadata::DiMetadata& md = integration->metadata;
  std::printf("\n=== The three matrices (Figure 4) ===\n");
  for (size_t k = 0; k < md.num_sources(); ++k) {
    std::printf("  %s: %s, %s, %s\n", md.source(k).name.c_str(),
                md.source(k).mapping.ToString().c_str(),
                md.source(k).indicator.ToString().c_str(),
                md.source(k).redundancy.ToString().c_str());
  }
  std::printf("\nMaterialized target (matrix form):\n%s\n",
              md.MaterializeTargetMatrix().ToString().c_str());

  core::Plan plan = system.Explain(*integration);
  std::printf("=== Optimizer ===\n  %s\n\n", plan.explanation.c_str());

  core::TrainRequest request;
  request.task = core::TrainingTask::kLogisticRegression;
  request.label_column = "m";
  request.gd.iterations = 500;
  request.gd.learning_rate = 0.0001;  // features are unnormalized (age, HR, O2)
  auto model = system.Train(*integration, request, "mortality-model");
  AMALUR_CHECK(model.ok()) << model.status();

  std::printf("=== Trained mortality model (%s) ===\n",
              core::ExecutionStrategyToString(model->outcome().strategy_used));
  std::printf("  final log-loss: %.4f   (started at %.4f)\n",
              model->outcome().loss_history.back(),
              model->outcome().loss_history.front());
  std::printf("  weights (a, hr, o): ");
  for (size_t j = 0; j < model->weights().rows(); ++j) {
    std::printf("%+.4f ", model->weights().At(j, 0));
  }

  // Serve the model on relational data: score the materialized target.
  rel::Table target = rel::Table::FromMatrix(
      "target", md.MaterializeTargetMatrix(), md.target_schema().Names());
  auto report = model->Evaluate(target);
  AMALUR_CHECK(report.ok()) << report.status();
  std::printf("\n\n=== In-sample evaluation ===\n");
  std::printf("  rows %zu, accuracy %.2f, log-loss %.4f\n", report->rows,
              report->accuracy, report->log_loss);
  std::printf("\nModel registered as 'mortality-model'; integration "
              "registered as 'er-pulmonary' (%zu in catalog).\n",
              system.catalog()->IntegrationNames().size());
  return 0;
}
