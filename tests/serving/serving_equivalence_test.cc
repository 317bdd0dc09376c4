#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/amalur.h"
#include "relational/generator.h"
#include "serving/deployed_model.h"
#include "serving/model_registry.h"

/// Regression suite for the serving rewrite: on every Table I integration
/// scenario the batched factorized scorer (partial-score cache) must agree
/// with the dense baseline to 1e-12, and must reproduce the training-time
/// in-sample predictions bit for bit. This pins the serving tier to the
/// paper's core equivalence claim — factorization never changes the answer.

namespace amalur {
namespace serving {
namespace {

struct Scenario {
  std::string name;
  std::unique_ptr<core::Amalur> system;
  core::IntegrationHandle integration;
};

core::Amalur* NewSystem(std::vector<Scenario>* out, const char* name) {
  core::AmalurOptions options;
  options.matcher.threshold = 0.75;  // generic short names need evidence
  out->push_back({name, std::make_unique<core::Amalur>(options), {}});
  return out->back().system.get();
}

void FinishScenario(std::vector<Scenario>* out,
                    const core::IntegrationSpec& spec) {
  auto integration = out->back().system->Integrate(spec);
  AMALUR_CHECK(integration.ok()) << integration.status();
  out->back().integration = *std::move(integration);
}

/// The bench's seven Table I scenarios at test-sized row counts (same
/// generator seeds and shapes as bench_table1_scenarios.cc).
std::vector<Scenario> MakeScenarios() {
  std::vector<Scenario> out;

  const auto pair_scenario = [&out](const char* name, rel::SiloPairSpec spec) {
    core::Amalur* system = NewSystem(&out, name);
    rel::SiloPair pair = rel::GenerateSiloPair(spec);
    AMALUR_CHECK_OK(
        system->catalog()->RegisterSource({"S1", pair.base, "silo-1", false}));
    AMALUR_CHECK_OK(
        system->catalog()->RegisterSource({"S2", pair.other, "silo-2", false}));
    core::IntegrationSpec integration_spec;
    integration_spec.edges = {{"S1", "S2", spec.kind}};
    FinishScenario(&out, integration_spec);
  };

  {
    rel::SiloPairSpec spec;
    spec.kind = rel::JoinKind::kFullOuterJoin;
    spec.base_rows = 500;
    spec.other_rows = 200;
    spec.base_features = 4;
    spec.other_features = 40;
    spec.shared_features = 2;
    spec.match_fraction = 0.5;
    spec.row_overlap = 0.5;
    spec.seed = 11;
    pair_scenario("full_outer_join", spec);
  }
  {
    rel::SiloPairSpec spec;
    spec.kind = rel::JoinKind::kInnerJoin;
    spec.base_rows = 500;
    spec.other_rows = 500;
    spec.base_features = 4;
    spec.other_features = 40;
    spec.match_fraction = 1.0;
    spec.row_overlap = 1.0;
    spec.seed = 12;
    pair_scenario("inner_join", spec);
  }
  {
    rel::SiloPairSpec spec;
    spec.kind = rel::JoinKind::kLeftJoin;
    spec.base_rows = 1000;
    spec.other_rows = 100;  // fan-out 10
    spec.base_features = 2;
    spec.other_features = 60;
    spec.seed = 13;
    pair_scenario("left_join", spec);
  }
  {
    rel::SiloPairSpec spec;
    spec.kind = rel::JoinKind::kUnion;
    spec.base_rows = 500;
    spec.other_rows = 500;
    spec.base_features = 0;
    spec.other_features = 0;
    spec.shared_features = 30;
    spec.match_fraction = 0.0;
    spec.row_overlap = 0.0;
    spec.other_has_label = true;
    spec.seed = 14;
    pair_scenario("union", spec);
  }
  {
    rel::SnowflakeSpec spec;
    spec.fact_rows = 1000;
    spec.fact_features = 2;
    spec.level_rows = {50, 5};
    spec.level_features = {30, 20};
    spec.seed = 15;
    rel::Snowflake snowflake = rel::GenerateSnowflake(spec);
    core::Amalur* system = NewSystem(&out, "snowflake");
    for (const rel::Table& table : snowflake.tables) {
      AMALUR_CHECK_OK(
          system->catalog()->RegisterSource({table.name(), table, "", false}));
    }
    core::IntegrationSpec integration_spec;
    integration_spec.edges = {{"fact", "dim0", rel::JoinKind::kLeftJoin},
                              {"dim0", "dim1", rel::JoinKind::kLeftJoin}};
    FinishScenario(&out, integration_spec);
  }
  {
    rel::UnionOfStarsSpec spec;
    spec.shards = 2;
    spec.fact_rows = 500;
    spec.fact_features = 2;
    spec.dim_rows = 25;
    spec.dim_features = 30;
    spec.seed = 16;
    rel::UnionOfStars scenario = rel::GenerateUnionOfStars(spec);
    core::Amalur* system = NewSystem(&out, "union_of_stars");
    for (const rel::Table& table : scenario.tables) {
      AMALUR_CHECK_OK(
          system->catalog()->RegisterSource({table.name(), table, "", false}));
    }
    core::IntegrationSpec integration_spec;
    integration_spec.edges = {{"fact0", "dim0", rel::JoinKind::kLeftJoin},
                              {"fact0", "fact1", rel::JoinKind::kUnion},
                              {"fact1", "dim1", rel::JoinKind::kLeftJoin}};
    FinishScenario(&out, integration_spec);
  }
  {
    rel::ConformedSnowflakeSpec spec;
    spec.fact_rows = 1000;
    spec.fact_features = 2;
    spec.branches = 2;
    spec.branch_rows = 25;
    spec.branch_features = 20;
    spec.shared_rows = 5;
    spec.shared_features = 20;
    spec.seed = 17;
    rel::ConformedSnowflake scenario = rel::GenerateConformedSnowflake(spec);
    core::Amalur* system = NewSystem(&out, "conformed_snowflake");
    for (const rel::Table& table : scenario.tables) {
      AMALUR_CHECK_OK(
          system->catalog()->RegisterSource({table.name(), table, "", false}));
    }
    core::IntegrationSpec integration_spec;
    integration_spec.edges = {{"fact", "branch0", rel::JoinKind::kLeftJoin},
                              {"fact", "branch1", rel::JoinKind::kLeftJoin},
                              {"branch0", "shared", rel::JoinKind::kLeftJoin},
                              {"branch1", "shared", rel::JoinKind::kLeftJoin}};
    FinishScenario(&out, integration_spec);
  }
  return out;
}

TEST(ServingEquivalenceTest, BatchedFactorizedMatchesDenseOnAllScenarios) {
  for (Scenario& scenario : MakeScenarios()) {
    SCOPED_TRACE(scenario.name);

    core::TrainRequest request;
    request.label_column = "y";
    request.gd.iterations = 20;
    request.gd.learning_rate = 0.05;
    request.force_strategy = core::ExecutionStrategy::kFactorize;
    auto model = scenario.system->Train(scenario.integration, request);
    ASSERT_TRUE(model.ok()) << model.status();

    ModelRegistry registry;
    DeployOptions options;
    options.enable_dense_scoring = true;
    auto deployed = model->Deploy(&registry, "scorer", options);
    ASSERT_TRUE(deployed.ok()) << deployed.status();
    ASSERT_EQ((*deployed)->rows(),
              scenario.integration.metadata.target_rows());

    std::vector<RowRef> batch((*deployed)->rows());
    for (size_t i = 0; i < batch.size(); ++i) batch[i].row = i;

    auto factorized = (*deployed)->PredictBatch(batch);
    auto dense = (*deployed)->PredictBatchDense(batch);
    ASSERT_TRUE(factorized.ok()) << factorized.status();
    ASSERT_TRUE(dense.ok()) << dense.status();

    // The paper's equivalence claim, serving edition: the partial-score
    // cache and a dense dot product over the materialized target differ by
    // summation order only.
    EXPECT_LT(factorized->MaxAbsDiff(*dense), 1e-12);

    // And the cache reproduces the training-time in-sample predictions bit
    // for bit (same factorized view, same mapped-pair order).
    auto in_sample = model->Predict();
    ASSERT_TRUE(in_sample.ok()) << in_sample.status();
    EXPECT_EQ(*factorized, *in_sample);
  }
}

}  // namespace
}  // namespace serving
}  // namespace amalur
