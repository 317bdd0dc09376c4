// Multi-silo star schema: a fact table (insurance claims) joined to three
// dimension silos (patients, providers, regions) — the n-source
// generalization of the paper's two-table examples, driven entirely through
// the system facade: register the silos, describe the scenario with an
// IntegrationSpec, and let Amalur discover the join keys, synthesize the
// target schema and derive one indicator/mapping/redundancy triple per
// silo. Training is forced onto both backends to show the growing
// factorization advantage as dimensions widen.

#include <cstdio>

#include "common/rng.h"
#include "core/amalur.h"
#include "relational/table.h"

namespace {

using namespace amalur;

rel::Table MakeDimension(const std::string& name, const std::string& key,
                         size_t rows, size_t features, Rng* rng) {
  rel::Table table(name);
  std::vector<int64_t> keys(rows);
  for (size_t i = 0; i < rows; ++i) keys[i] = static_cast<int64_t>(i);
  AMALUR_CHECK_OK(table.AddColumn(rel::Column::FromInt64s(key, keys)));
  for (size_t f = 0; f < features; ++f) {
    std::vector<double> values(rows);
    for (double& v : values) v = rng->NextGaussian();
    AMALUR_CHECK_OK(table.AddColumn(rel::Column::FromDoubles(
        name.substr(0, 3) + "_" + std::to_string(f), values)));
  }
  return table;
}

}  // namespace

int main() {
  Rng rng(2026);
  const size_t kClaims = 60000;
  rel::Table patients = MakeDimension("patients", "patient_id", 6000, 12, &rng);
  rel::Table providers = MakeDimension("providers", "provider_id", 300, 8, &rng);
  rel::Table regions = MakeDimension("regions", "region_id", 50, 6, &rng);

  // Fact table: claims referencing all three dimensions.
  rel::Table claims("claims");
  {
    std::vector<int64_t> pid(kClaims), prid(kClaims), rid(kClaims);
    std::vector<double> amount(kClaims), cost(kClaims);
    for (size_t i = 0; i < kClaims; ++i) {
      pid[i] = static_cast<int64_t>(rng.NextUint64(6000));
      prid[i] = static_cast<int64_t>(rng.NextUint64(300));
      rid[i] = static_cast<int64_t>(rng.NextUint64(50));
      amount[i] = rng.NextGaussian();
      cost[i] = amount[i] * 1.7 + rng.NextGaussian() * 0.3;
    }
    AMALUR_CHECK_OK(claims.AddColumn(rel::Column::FromInt64s("patient_id", pid)));
    AMALUR_CHECK_OK(
        claims.AddColumn(rel::Column::FromInt64s("provider_id", prid)));
    AMALUR_CHECK_OK(claims.AddColumn(rel::Column::FromInt64s("region_id", rid)));
    AMALUR_CHECK_OK(claims.AddColumn(rel::Column::FromDoubles("cost", cost)));
    AMALUR_CHECK_OK(claims.AddColumn(rel::Column::FromDoubles("amount", amount)));
  }

  std::printf("Fact: claims %zu rows; dimensions: patients %zu, providers %zu, "
              "regions %zu\n\n",
              claims.NumRows(), patients.NumRows(), providers.NumRows(),
              regions.NumRows());

  // ---- Register the silos and describe the star declaratively. The facade
  // discovers the *_id join keys by schema matching, keeps them out of the
  // feature space, and derives the per-silo metadata triples.
  core::Amalur system;
  AMALUR_CHECK_OK(system.catalog()->RegisterSource({"claims", claims,
                                                    "claims-dept", false}));
  AMALUR_CHECK_OK(system.catalog()->RegisterSource({"patients", patients,
                                                    "patient-registry", false}));
  AMALUR_CHECK_OK(system.catalog()->RegisterSource({"providers", providers,
                                                    "provider-registry", false}));
  AMALUR_CHECK_OK(system.catalog()->RegisterSource({"regions", regions,
                                                    "geo-service", false}));

  core::IntegrationSpec spec;
  spec.name = "claims-star";
  spec.edges = {{"claims", "patients", rel::JoinKind::kLeftJoin},
                {"claims", "providers", rel::JoinKind::kLeftJoin},
                {"claims", "regions", rel::JoinKind::kLeftJoin}};
  auto integration = system.Integrate(spec);
  AMALUR_CHECK(integration.ok()) << integration.status();

  const metadata::DiMetadata& metadata = integration->metadata;
  std::printf("Target: %zu x %zu; per-silo tuple ratios:",
              metadata.target_rows(), metadata.target_cols());
  for (size_t k = 1; k < metadata.num_sources(); ++k) {
    std::printf(" %s=%.0f", metadata.source(k).name.c_str(),
                metadata.TupleRatio(k));
  }
  std::printf("\nOptimizer: %s\n\n", system.Explain(*integration).explanation.c_str());

  // ---- Factorized vs materialized training over four silos, both forced
  // through the same facade path.
  core::TrainRequest request;
  request.label_column = "cost";
  request.gd.iterations = 25;
  request.gd.learning_rate = 0.05;

  request.force_strategy = core::ExecutionStrategy::kFactorize;
  auto factorized = system.Train(*integration, request, "claims-cost-model");
  AMALUR_CHECK(factorized.ok()) << factorized.status();

  request.force_strategy = core::ExecutionStrategy::kMaterialize;
  auto materialized = system.Train(*integration, request);
  AMALUR_CHECK(materialized.ok()) << materialized.status();

  std::printf("Factorized over 4 silos : %.3fs  (MSE %.4f)\n",
              factorized->outcome().seconds,
              factorized->outcome().loss_history.back());
  std::printf("Materialize then train  : %.3fs  (MSE %.4f)\n",
              materialized->outcome().seconds,
              materialized->outcome().loss_history.back());
  std::printf("Weight agreement        : %.2e\n",
              factorized->weights().MaxAbsDiff(materialized->weights()));
  std::printf("Speedup                 : %.2fx\n",
              materialized->outcome().seconds /
                  factorized->outcome().seconds);

  // ---- Serve the registered model in-sample: the factorized-plan model
  // scores the target rows straight off the silo matrices — the rT x cT
  // table is never materialized for serving either.
  auto report = factorized->Evaluate();
  AMALUR_CHECK(report.ok()) << report.status();
  std::printf("In-sample evaluation    : MSE %.4f over %zu rows "
              "(served factorized)\n",
              report->mse, report->rows);
  return 0;
}
