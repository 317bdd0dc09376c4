// Per-layer attribution for the traced run. Each layer's public functions
// are called again from here, under spans, on the integration and model
// the traced pipeline pass produced — the same inputs, thread count and
// order the facade used — so every span times one layer's work.

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/parallel_for.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "cost/cost_features.h"
#include "e2ebench.h"
#include "factorized/factorized_table.h"
#include "federated/paillier.h"
#include "federated/vfl.h"
#include "integration/entity_resolution.h"
#include "integration/schema_matching.h"
#include "metadata/di_metadata.h"
#include "ml/linear_models.h"
#include "ml/training_matrix.h"
#include "relational/join.h"

namespace amalur {
namespace e2ebench {

namespace {

/// Forwards a training backend and records a span around each of its two
/// GD operators, so the spans below the training span split ML time from
/// the backend's operator time.
class TracedMatrix : public ml::TrainingMatrix {
 public:
  TracedMatrix(const ml::TrainingMatrix& inner, Tracer* tracer,
               const char* lmm_name, const char* tlmm_name)
      : inner_(inner), tracer_(tracer), lmm_(lmm_name), tlmm_(tlmm_name) {}

  size_t rows() const override { return inner_.rows(); }
  size_t cols() const override { return inner_.cols(); }
  la::DenseMatrix LeftMultiply(const la::DenseMatrix& x) const override {
    ScopedSpan span(tracer_, lmm_);
    return inner_.LeftMultiply(x);
  }
  la::DenseMatrix TransposeLeftMultiply(const la::DenseMatrix& x) const override {
    ScopedSpan span(tracer_, tlmm_);
    return inner_.TransposeLeftMultiply(x);
  }
  la::DenseMatrix RowSquaredNorms() const override {
    return inner_.RowSquaredNorms();
  }
  la::DenseMatrix ColSums() const override { return inner_.ColSums(); }

 private:
  const ml::TrainingMatrix& inner_;
  Tracer* tracer_;
  const char* lmm_;
  const char* tlmm_;
};

/// Seconds of each span named `name` below `root`, as a median.
double MedianSpan(const Tracer& tracer, const std::string& name, size_t root) {
  return Median(tracer.Durations(name, root));
}

/// Times `count` calls of `op` and returns microseconds per call.
template <typename Op>
double MicrosPerOp(size_t count, Op op) {
  Stopwatch watch;
  for (size_t i = 0; i < count; ++i) op(i);
  return watch.ElapsedSeconds() * 1e6 / static_cast<double>(count);
}

}  // namespace

std::vector<Metric> MeasureLayers(const Scenario& scenario,
                                  const PipelineRun& run, Tracer* tracer,
                                  OpCounter* ops) {
  common::ScopedNumThreads threads(kThreads);
  const core::IntegrationHandle& integration = run.integration;
  const metadata::DiMetadata& metadata = integration.metadata;
  const core::ExecutionStrategy strategy = run.model.plan().strategy;
  const size_t label =
      *metadata.target_schema().IndexOf(scenario.request.label_column);
  const core::AmalurOptions options = SystemOptions();

  std::map<std::string, const rel::Table*> table_of;
  for (const core::SourceEntry& source : scenario.sources) {
    table_of[source.name] = &source.table;
  }
  std::vector<const rel::Table*> tables;
  std::map<std::string, size_t> index_of;
  for (const std::string& name : integration.source_names) {
    index_of[name] = tables.size();
    tables.push_back(table_of.at(name));
  }

  double column_pairs = 0.0;
  double dedup_cells = 0.0;
  size_t layers_root = 0;
  {
    ScopedSpan layers(tracer, "layers");
    layers_root = layers.index();
    for (const JoinKey& join : scenario.join_keys) {
      ScopedSpan span(tracer, "relational.match_rows");
      Result<rel::RowMatching> matching = rel::MatchRowsOnKeys(
          *table_of.at(join.parent), *table_of.at(join.child), {join.key},
          {join.key});
      ops->Record(matching.ok(), "MatchRowsOnKeys " + join.parent + "->" +
                                     join.child + ": " +
                                     matching.status().ToString());
    }
    for (const core::IntegrationEdge& edge : integration.edges) {
      const rel::Table& left = *table_of.at(edge.left);
      const rel::Table& right = *table_of.at(edge.right);
      ScopedSpan span(tracer, "integration.match_schemas");
      integration::MatchSchemas(left, right, options.matcher);
      column_pairs +=
          static_cast<double>(left.NumColumns() * right.NumColumns());
    }
    for (size_t k = 0; k < tables.size(); ++k) {
      std::vector<size_t> columns;
      for (const std::string& name : integration.mapping.MappedColumns(k)) {
        columns.push_back(*tables[k]->ColumnIndex(name));
      }
      ScopedSpan span(tracer, "integration.dedup");
      integration::DuplicateRatio(*tables[k], columns);
      dedup_cells += static_cast<double>(tables[k]->NumRows() * columns.size());
    }
    {
      ScopedSpan span(tracer, "metadata.derive");
      Result<metadata::DiMetadata> derived = [&] {
        if (integration.shape == metadata::IntegrationShape::kPairwise) {
          return metadata::DiMetadata::Derive(integration.mapping, tables,
                                              integration.matchings[0]);
        }
        std::vector<metadata::MetadataEdge> edges;
        for (const core::IntegrationEdge& edge : integration.edges) {
          edges.push_back(
              {index_of.at(edge.left), index_of.at(edge.right), edge.kind});
        }
        return metadata::DiMetadata::DeriveGraph(integration.mapping, tables,
                                                 edges, integration.matchings);
      }();
      ops->Record(derived.ok(), "metadata derivation: " +
                                    derived.status().ToString());
    }
    if (!integration.privacy_constrained) {
      // Privacy-forced plans skip the cost model.
      ScopedSpan span(tracer, "cost.features");
      cost::CostFeatures::FromMetadata(metadata);
    }
    {
      ScopedSpan span(tracer, "core.plan");
      run.system->Explain(integration);
    }
    if (strategy == core::ExecutionStrategy::kFactorize) {
      std::shared_ptr<factorized::FactorizedTable> table;
      {
        ScopedSpan span(tracer, "factorized.build");
        table = std::make_shared<factorized::FactorizedTable>(metadata);
      }
      ml::FactorizedFeatures features(table, label);
      const la::DenseMatrix labels = features.Labels();
      TracedMatrix traced(features, tracer, "factorized.lmm",
                          "factorized.tlmm");
      ScopedSpan span(tracer, "ml.train.factorized");
      ml::TrainLinearRegression(traced, labels, scenario.request.gd);
    } else if (strategy == core::ExecutionStrategy::kMaterialize) {
      la::DenseMatrix target;
      {
        ScopedSpan span(tracer, "la.materialize");
        target = metadata.MaterializeTargetMatrix();
      }
      std::vector<size_t> feature_cols;
      for (size_t j = 0; j < target.cols(); ++j) {
        if (j != label) feature_cols.push_back(j);
      }
      ml::MaterializedMatrix features(target.SelectColumns(feature_cols));
      const la::DenseMatrix labels = target.SelectColumns({label});
      TracedMatrix traced(features, tracer, "la.dense_lmm", "la.dense_tlmm");
      ScopedSpan span(tracer, "ml.train.materialized");
      ml::TrainLinearRegression(traced, labels, scenario.request.gd);
    } else {
      ScopedSpan span(tracer, "federated.align");
      const Status aligned =
          federated::AlignForVflNary(metadata, label).status();
      ops->Record(aligned.ok(), "federated alignment: " + aligned.ToString());
    }
  }
  const double derive_s = tracer->Total("metadata.derive", layers_root);
  const double dedup_s = tracer->Total("integration.dedup", layers_root);
  const double features_s = tracer->Total("cost.features", layers_root);
  const double plan_s = tracer->Total("core.plan", layers_root);

  // Probes: work the pipeline does not do, measured to explain it.
  double decision_correct = 1.0;
  double encrypt_us = 0.0;
  double decrypt_us = 0.0;
  double scale_us = 0.0;
  double batch_us = 0.0;
  {
    ScopedSpan probes(tracer, "probes");
    if (strategy != core::ExecutionStrategy::kFederate) {
      // Was the chosen strategy the faster one? Both forced runs go
      // through the facade, planning included, as the user would.
      double seconds[2] = {0.0, 0.0};
      const core::ExecutionStrategy forced[2] = {
          core::ExecutionStrategy::kFactorize,
          core::ExecutionStrategy::kMaterialize};
      for (int i = 0; i < 2; ++i) {
        core::TrainRequest request = scenario.request;
        request.force_strategy = forced[i];
        ScopedSpan span(tracer, i == 0 ? "core.train.force_factorize"
                                       : "core.train.force_materialize");
        Stopwatch watch;
        Result<core::ModelHandle> model =
            run.system->Train(integration, request);
        seconds[i] = watch.ElapsedSeconds();
        ops->Record(model.ok(), "forced Train: " + model.status().ToString());
      }
      const core::ExecutionStrategy faster =
          seconds[0] <= seconds[1] ? forced[0] : forced[1];
      decision_correct = strategy == faster ? 1.0 : 0.0;
    }
    if (scenario.request.privacy == federated::VflPrivacy::kPaillier) {
      // The key size and fixed-point precision the VFL protocol runs with.
      const federated::VflOptions vfl;
      const federated::Paillier paillier(
          federated::Paillier::GenerateKeys(vfl.seed, vfl.paillier_prime_bits),
          vfl.fractional_bits);
      Rng rng(vfl.seed);
      const size_t count = 2000;
      std::vector<federated::PaillierCiphertext> ciphertexts(count);
      {
        ScopedSpan span(tracer, "federated.paillier_encrypt");
        encrypt_us = MicrosPerOp(count, [&](size_t i) {
          ciphertexts[i] = paillier.EncryptDouble(
              static_cast<double>(i % 97) * 0.01 - 0.5, &rng);
        });
      }
      double sink = 0.0;
      {
        ScopedSpan span(tracer, "federated.paillier_decrypt");
        decrypt_us = MicrosPerOp(count, [&](size_t i) {
          sink += paillier.DecryptDouble(ciphertexts[i]);
        });
      }
      {
        ScopedSpan span(tracer, "federated.paillier_scale");
        scale_us = MicrosPerOp(count, [&](size_t i) {
          ciphertexts[i] = paillier.CipherScale(ciphertexts[i], 3 + i % 5);
        });
      }
      ops->Record(std::isfinite(sink), "Paillier round trip");
    }
    if (run.deployed != nullptr) {
      // One client, one request at a time, at the pinned thread count.
      ScopedSpan span(tracer, "serving.batch");
      Rng rng(17);
      std::vector<serving::RowRef> batch(kBatchRows);
      std::vector<double> latencies;
      size_t failed = 0;
      for (size_t r = 0; r < 500; ++r) {
        for (serving::RowRef& ref : batch) {
          ref.row = rng.NextUint64(run.deployed->rows());
        }
        Stopwatch watch;
        if (!run.deployed->PredictBatch(batch).ok()) ++failed;
        latencies.push_back(watch.ElapsedSeconds());
      }
      ops->Record(failed == 0, "single-client PredictBatch");
      batch_us = Median(latencies) * 1e6;
    }
  }

  const double iterations = static_cast<double>(scenario.request.gd.iterations);
  const double gd_factorized =
      tracer->Total("ml.train.factorized", layers_root) / iterations;
  const double gd_materialized =
      tracer->Total("ml.train.materialized", layers_root) / iterations;
  const core::TrainOutcome& outcome = run.model.outcome();
  const double align_s = tracer->Total("federated.align", layers_root);
  const double rounds = static_cast<double>(outcome.federated_rounds);
  const bool federated = strategy == core::ExecutionStrategy::kFederate;

  std::vector<Metric> metrics = {
      {"relational.match_rows_s", "s",
       tracer->Total("relational.match_rows", layers_root)},
      {"integration.match_schemas_s", "s",
       tracer->Total("integration.match_schemas", layers_root)},
      {"integration.column_pairs", "count", column_pairs},
      {"integration.dedup_s", "s", dedup_s},
      {"integration.dedup_cells", "count", dedup_cells},
      {"metadata.derive_s", "s", derive_s},
      {"metadata.derive_self_s", "s", derive_s - dedup_s},
      {"metadata.target_cells", "count",
       static_cast<double>(metadata.target_rows() * metadata.target_cols())},
      {"cost.features_s", "s", features_s},
      {"core.plan_s", "s", plan_s},
      {"cost.decision_correct", "ratio", decision_correct},
      {"factorized.build_s", "s",
       tracer->Total("factorized.build", layers_root)},
      {"factorized.lmm_s", "s",
       MedianSpan(*tracer, "factorized.lmm", layers_root)},
      {"factorized.tlmm_s", "s",
       MedianSpan(*tracer, "factorized.tlmm", layers_root)},
      {"la.materialize_s", "s", tracer->Total("la.materialize", layers_root)},
      {"la.dense_lmm_s", "s", MedianSpan(*tracer, "la.dense_lmm", layers_root)},
      {"la.dense_tlmm_s", "s",
       MedianSpan(*tracer, "la.dense_tlmm", layers_root)},
      {"ml.gd_iter_s.factorized", "s", gd_factorized},
      {"ml.gd_iter_s.materialized", "s", gd_materialized},
      {"federated.align_s", "s", align_s},
      {"federated.round_s", "s",
       federated && rounds > 0 ? (outcome.seconds - align_s) / rounds : 0.0},
      {"federated.bytes_per_round", "B",
       federated && rounds > 0
           ? static_cast<double>(outcome.bytes_transferred) / rounds
           : 0.0},
      {"federated.paillier_encrypt_us", "us", encrypt_us},
      {"federated.paillier_decrypt_us", "us", decrypt_us},
      {"federated.paillier_scale_us", "us", scale_us},
      {"serving.deploy_s", "s", run.deploy_s},
      {"serving.batch_us", "us", batch_us},
  };

  // Each layer's self time as a share of the traced pipeline. Operator
  // spans sit inside the training span, so ML's share is the training
  // span minus its operators.
  const double pipeline_s = run.pipeline_s();
  const auto self_of = [&](const char* name) {
    double self = 0.0;
    const auto& spans = tracer->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].name == name &&
          spans[i].parent == static_cast<int64_t>(layers_root)) {
        self += tracer->SelfSeconds(i);
      }
    }
    return self;
  };
  const std::vector<std::pair<const char*, double>> self_s = {
      {"relational", tracer->Total("relational.match_rows", layers_root)},
      {"integration", tracer->Total("integration.match_schemas", layers_root) +
                          dedup_s},
      {"metadata", derive_s - dedup_s},
      {"cost", features_s},
      // Explain runs the cost features inside; the two are timed apart,
      // so noise can push the difference below zero.
      {"core", std::max(0.0, plan_s - features_s)},
      {"factorized", tracer->Total("factorized.build", layers_root) +
                         tracer->Total("factorized.lmm", layers_root) +
                         tracer->Total("factorized.tlmm", layers_root)},
      {"la", tracer->Total("la.materialize", layers_root) +
                 tracer->Total("la.dense_lmm", layers_root) +
                 tracer->Total("la.dense_tlmm", layers_root)},
      {"ml", self_of("ml.train.factorized") + self_of("ml.train.materialized")},
      {"federated", federated ? outcome.seconds : 0.0},
      {"serving", run.deploy_s},
  };
  for (const auto& [layer, seconds] : self_s) {
    metrics.push_back({std::string(layer) + ".self_share", "ratio",
                       pipeline_s > 0.0 ? seconds / pipeline_s : 0.0});
  }
  return metrics;
}

}  // namespace e2ebench
}  // namespace amalur
