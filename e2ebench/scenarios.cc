// The workloads. Each one stresses a different layer, so a change to one
// layer should move one workload and leave the others flat. Shares are of
// the traced pipeline's time (seed 1, 4 threads):
//  - augment_snowflake: 100x fan-out snowflake; factorized operators take
//    about half, dedup during integration 35-40%, and GD itself under a
//    tenth. The only workload that serves.
//  - integrate_wide: 1:1 inner join of two wide silos; integration (mostly
//    dedup) takes 75-80%, the dense operators most of the rest, and the
//    factorized layer does no work.
//  - federated_vfl: privacy-constrained snowflake; Paillier vertical FL
//    takes over 99%.
// A FedAvg workload (union of four stars) was tried and left out: the
// median of its four-thread training time spread more from run to run
// than any bound the benchmark can hold.

#include <string>
#include <vector>

#include "common/status.h"
#include "e2ebench.h"
#include "relational/generator.h"

namespace amalur {
namespace e2ebench {

namespace {

size_t Scaled(size_t full, size_t toy_size, bool toy) {
  return toy ? toy_size : full;
}

core::TrainRequest PinnedRequest(size_t iterations, double learning_rate) {
  core::TrainRequest request;
  request.label_column = "y";
  request.gd.iterations = iterations;
  request.gd.learning_rate = learning_rate;
  request.num_threads = kThreads;
  return request;
}

Scenario AugmentSnowflake(uint64_t seed, bool toy) {
  rel::SnowflakeSpec spec;
  spec.fact_rows = Scaled(50000, 4000, toy);
  spec.fact_features = 2;
  spec.level_rows = {Scaled(500, 40, toy), Scaled(50, 4, toy)};
  spec.level_features = {8, 6};
  spec.seed = seed;
  rel::Snowflake snowflake = rel::GenerateSnowflake(spec);

  Scenario s;
  s.name = "augment_snowflake";
  for (rel::Table& table : snowflake.tables) {
    const std::string name = table.name();
    s.sources.push_back({name, std::move(table), "warehouse", false});
  }
  s.spec.edges = {{"fact", "dim0", rel::JoinKind::kLeftJoin},
                  {"dim0", "dim1", rel::JoinKind::kLeftJoin}};
  s.join_keys = {{"fact", "dim0", snowflake.chain_keys[0]},
                 {"dim0", "dim1", snowflake.chain_keys[1]}};
  s.request = PinnedRequest(100, 0.05);
  s.expected_strategy = core::ExecutionStrategy::kFactorize;
  s.serve_clients = 2;
  s.requests_per_client = Scaled(1000, 200, toy);
  return s;
}

Scenario IntegrateWide(uint64_t seed, bool toy) {
  rel::SiloPairSpec spec;
  spec.kind = rel::JoinKind::kInnerJoin;
  spec.base_rows = Scaled(20000, 2000, toy);
  spec.other_rows = spec.base_rows;
  spec.base_features = 4;
  spec.other_features = 40;
  spec.match_fraction = 1.0;
  spec.row_overlap = 1.0;
  spec.seed = seed;
  rel::SiloPair pair = rel::GenerateSiloPair(spec);

  Scenario s;
  s.name = "integrate_wide";
  s.sources.push_back({"S1", std::move(pair.base), "silo-1", false});
  s.sources.push_back({"S2", std::move(pair.other), "silo-2", false});
  s.spec.edges = {{"S1", "S2", rel::JoinKind::kInnerJoin}};
  s.join_keys = {{"S1", "S2", "k"}};
  s.request = PinnedRequest(20, 0.05);
  s.expected_strategy = core::ExecutionStrategy::kMaterialize;
  // Train takes about a fifth of a pass here, and at four threads it is
  // the step a busy host slows most.
  s.train_repeats = 4;
  return s;
}

Scenario FederatedVfl(uint64_t seed, bool toy) {
  rel::SnowflakeSpec spec;
  spec.fact_rows = Scaled(500, 60, toy);
  spec.fact_features = 2;
  spec.level_rows = {Scaled(50, 12, toy), Scaled(10, 3, toy)};
  spec.level_features = {3, 2};
  spec.seed = seed;
  rel::Snowflake snowflake = rel::GenerateSnowflake(spec);

  Scenario s;
  s.name = "federated_vfl";
  for (rel::Table& table : snowflake.tables) {
    const std::string name = table.name();
    s.sources.push_back({name, std::move(table), "hospital-" + name, true});
  }
  s.spec.edges = {{"fact", "dim0", rel::JoinKind::kLeftJoin},
                  {"dim0", "dim1", rel::JoinKind::kLeftJoin}};
  s.join_keys = {{"fact", "dim0", snowflake.chain_keys[0]},
                 {"dim0", "dim1", snowflake.chain_keys[1]}};
  s.request = PinnedRequest(2, 0.1);
  s.request.privacy = federated::VflPrivacy::kPaillier;
  s.expected_strategy = core::ExecutionStrategy::kFederate;
  // Residuals travel as 12-bit fixed point (step 2^-12 ~ 2.4e-4); over 2
  // rounds at learning rate 0.1 the rounding moves weights by well under
  // 1e-3 (measured: ~5e-6). The 500 fact rows also even out the
  // data-dependent cost of homomorphic scaling across seeds.
  s.weight_tolerance = 1e-3;
  return s;
}

}  // namespace

Result<Scenario> MakeScenario(const std::string& name, uint64_t seed,
                              bool toy) {
  if (name == "augment_snowflake") return AugmentSnowflake(seed, toy);
  if (name == "integrate_wide") return IntegrateWide(seed, toy);
  if (name == "federated_vfl") return FederatedVfl(seed, toy);
  return Status::InvalidArgument("unknown workload '", name, "'");
}

core::AmalurOptions SystemOptions() {
  core::AmalurOptions options;
  options.matcher.threshold = 0.75;
  return options;
}

}  // namespace e2ebench
}  // namespace amalur
