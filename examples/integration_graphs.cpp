// Integration graphs: `IntegrationSpec` edge lists beyond pairs and stars.
// A *snowflake* chains dimensions of
// dimensions (sales -> stores -> regions), so a fact row reaches the leaf
// dimension through two composed key hops; a *union-of-stars* stacks
// horizontally partitioned fact shards — each a star with its own private
// dimension — into one target (paper Table I's union relationship between
// silos that are themselves stars); a *conformed snowflake* is a DAG: one
// shared dimension (think a warehouse `date` or `region` table) referenced
// through several parents, integrated once. All run entirely through the
// facade: describe the graph as edges, and Amalur validates it, discovers
// the keys per edge, derives the composed/stacked/merged metadata and
// trains either factorized or materialized with identical results.

#include <cstdio>

#include "core/amalur.h"
#include "relational/generator.h"

namespace {

using namespace amalur;

void TrainBothWays(core::Amalur* system,
                   const core::IntegrationHandle& integration,
                   const char* label) {
  core::TrainRequest request;
  request.label_column = "y";
  request.gd.iterations = 30;
  request.gd.learning_rate = 0.05;

  request.force_strategy = core::ExecutionStrategy::kFactorize;
  auto factorized = system->Train(integration, request);
  AMALUR_CHECK(factorized.ok()) << factorized.status();
  request.force_strategy = core::ExecutionStrategy::kMaterialize;
  auto materialized = system->Train(integration, request);
  AMALUR_CHECK(materialized.ok()) << materialized.status();

  auto in_sample = factorized->Evaluate();  // served factorized, in-sample
  AMALUR_CHECK(in_sample.ok()) << in_sample.status();
  std::printf(
      "%s: factorized %.3fs vs materialized %.3fs, weight agreement %.2e,\n"
      "  in-sample MSE %.4f over %zu rows\n",
      label, factorized->outcome().seconds, materialized->outcome().seconds,
      factorized->weights().MaxAbsDiff(materialized->weights()),
      in_sample->mse, in_sample->rows);
}

}  // namespace

int main() {
  // Generic short column names need strong matching evidence.
  core::AmalurOptions options;
  options.matcher.threshold = 0.75;

  // ---- Snowflake: sales(40k) -> stores(2k) -> regions(50).
  {
    rel::SnowflakeSpec spec;
    spec.fact_rows = 40000;
    spec.fact_features = 2;
    spec.level_rows = {2000, 50};
    spec.level_features = {8, 6};
    spec.seed = 2026;
    rel::Snowflake snowflake = rel::GenerateSnowflake(spec);

    core::Amalur system(options);
    const char* roles[] = {"sales-dept", "store-registry", "geo-service"};
    for (size_t k = 0; k < snowflake.tables.size(); ++k) {
      AMALUR_CHECK_OK(system.catalog()->RegisterSource(
          {snowflake.tables[k].name(), snowflake.tables[k], roles[k], false}));
    }

    core::IntegrationSpec spec_graph;
    spec_graph.name = "sales-snowflake";
    spec_graph.edges = {{"fact", "dim0", rel::JoinKind::kLeftJoin},
                        {"dim0", "dim1", rel::JoinKind::kLeftJoin}};
    auto integration = system.Integrate(spec_graph);
    AMALUR_CHECK(integration.ok()) << integration.status();
    std::printf("Snowflake target %zu x %zu\n  %s\n",
                integration->metadata.target_rows(),
                integration->metadata.target_cols(),
                system.Explain(*integration).explanation.c_str());
    TrainBothWays(&system, *integration, "  snowflake");
  }

  // ---- Union-of-stars: three fact shards of 15k rows, each with its own
  // 500-row dimension (horizontally partitioned silos).
  {
    rel::UnionOfStarsSpec spec;
    spec.shards = 3;
    spec.fact_rows = 15000;
    spec.fact_features = 3;
    spec.dim_rows = 500;
    spec.dim_features = 10;
    spec.seed = 2027;
    rel::UnionOfStars scenario = rel::GenerateUnionOfStars(spec);

    core::Amalur system(options);
    for (const rel::Table& table : scenario.tables) {
      AMALUR_CHECK_OK(
          system.catalog()->RegisterSource({table.name(), table, "", false}));
    }

    core::IntegrationSpec spec_graph;
    spec_graph.name = "claims-shards";
    spec_graph.edges = {{"fact0", "dim0", rel::JoinKind::kLeftJoin},
                        {"fact0", "fact1", rel::JoinKind::kUnion},
                        {"fact1", "dim1", rel::JoinKind::kLeftJoin},
                        {"fact0", "fact2", rel::JoinKind::kUnion},
                        {"fact2", "dim2", rel::JoinKind::kLeftJoin}};
    auto integration = system.Integrate(spec_graph);
    AMALUR_CHECK(integration.ok()) << integration.status();
    std::printf("\nUnion-of-stars target %zu x %zu (%zu shards)\n  %s\n",
                integration->metadata.target_rows(),
                integration->metadata.target_cols(),
                integration->metadata.num_shards(),
                system.Explain(*integration).explanation.c_str());
    TrainBothWays(&system, *integration, "  union-of-stars");
  }

  // ---- Conformed dimension: orders(30k) references both a customer-facing
  // and a supplier-facing dimension (1k rows each), and BOTH reference one
  // shared 40-row region table — a DAG with a conformed dimension. The
  // shared silo's columns land in the target exactly once, and the second
  // fact->branch edge is an inner join, so orders without a resolvable
  // branch1 reference drop from the target (here: none, full coverage).
  {
    rel::ConformedSnowflakeSpec spec;
    spec.fact_rows = 30000;
    spec.fact_features = 2;
    spec.branches = 2;
    spec.branch_rows = 1000;
    spec.branch_features = 6;
    spec.shared_rows = 40;
    spec.shared_features = 5;
    spec.seed = 2028;
    rel::ConformedSnowflake scenario = rel::GenerateConformedSnowflake(spec);

    core::Amalur system(options);
    for (const rel::Table& table : scenario.tables) {
      AMALUR_CHECK_OK(
          system.catalog()->RegisterSource({table.name(), table, "", false}));
    }

    core::IntegrationSpec spec_graph;
    spec_graph.name = "orders-conformed";
    spec_graph.edges = {{"fact", "branch0", rel::JoinKind::kLeftJoin},
                        {"fact", "branch1", rel::JoinKind::kInnerJoin},
                        {"branch0", "shared", rel::JoinKind::kLeftJoin},
                        {"branch1", "shared", rel::JoinKind::kLeftJoin}};
    auto integration = system.Integrate(spec_graph);
    AMALUR_CHECK(integration.ok()) << integration.status();
    std::printf(
        "\nConformed snowflake target %zu x %zu (%zu shared dimension(s))\n"
        "  %s\n",
        integration->metadata.target_rows(),
        integration->metadata.target_cols(),
        integration->metadata.num_shared_dimensions(),
        system.Explain(*integration).explanation.c_str());
    TrainBothWays(&system, *integration, "  conformed");
  }
  return 0;
}
