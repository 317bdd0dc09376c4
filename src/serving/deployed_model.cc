#include "serving/deployed_model.h"

#include <utility>

#include "common/parallel_for.h"
#include "common/span.h"
#include "common/status.h"
#include "ml/metrics.h"

namespace amalur {
namespace serving {

namespace {
// ParallelFor grain for batch scoring: a row score is a handful of lookups,
// so chunks need some width before fan-out pays. Chunk boundaries are a pure
// function of (batch size, grain, thread count) and each chunk writes
// disjoint output rows — the house determinism pattern.
constexpr size_t kBatchGrain = 64;
}  // namespace

Result<std::shared_ptr<DeployedModel>> DeployedModel::Create(
    const std::string& name, const core::ModelHandle& model,
    const DeployOptions& options) {
  if (name.empty()) return Status::InvalidArgument("empty deployment name");

  std::shared_ptr<const metadata::DiMetadata> metadata;
  if (model.factorized_table() != nullptr) {
    // Factorized plans: alias the metadata inside the view training ran
    // over, so nothing is copied.
    metadata = std::shared_ptr<const metadata::DiMetadata>(
        model.factorized_table(), &model.factorized_table()->metadata());
  } else if (model.metadata() != nullptr) {
    metadata = model.metadata();
  } else {
    return Status::FailedPrecondition(
        "model for deployment '", name,
        "' carries no integration data; train it through Amalur::Train "
        "before deploying");
  }

  const size_t cols = metadata->target_cols();
  const size_t label = model.label_index();
  const la::DenseMatrix& weights = model.weights();
  if (weights.cols() != 1 || weights.rows() + 1 != cols || label >= cols) {
    return Status::FailedPrecondition(
        "model for deployment '", name, "' has ", weights.rows(),
        " weights but the target schema has ", cols, " columns (label at ",
        label, "); the handle is inconsistent");
  }

  auto out = std::shared_ptr<DeployedModel>(new DeployedModel());
  out->name_ = name;
  out->task_ = model.task();
  out->label_column_ = model.label_column();
  out->feature_names_ = model.feature_names();
  out->source_names_ = model.source_names();

  // Pad the weights to target-column space with a zero at the label — the
  // same layout FactorizedFeatures::PadToTarget gives the training LMM, so
  // the partial scores reproduce training-time predictions bit for bit.
  la::DenseMatrix target_weights(cols, 1);
  for (size_t j = 0, f = 0; j < cols; ++j) {
    if (j == label) continue;
    target_weights.At(j, 0) = weights.At(f++, 0);
  }
  out->target_weights_ = std::move(target_weights);
  out->partials_ =
      factorized::PartialScores::Extract(*metadata, out->target_weights_);

  // Labels read straight from the sources: each target row adds, sources
  // ascending, the label cell of every source that maps the label where its
  // redundancy mask keeps it. Those are the LMM's nonzero additions in
  // `FactorizedFeatures::Labels`, so the labels match training's bit for bit.
  out->labels_ = la::DenseMatrix(metadata->target_rows(), 1);
  for (size_t k = 0; k < metadata->num_sources(); ++k) {
    const metadata::SourceMetadata& source = metadata->source(k);
    const int64_t d = source.mapping.At(label);
    if (d < 0) continue;
    for (size_t i = 0; i < metadata->target_rows(); ++i) {
      const int64_t j = source.indicator.At(i);
      if (j < 0 || source.redundancy.IsRedundant(i, label)) continue;
      out->labels_.At(i, 0) += source.data.At(static_cast<size_t>(j),
                                              static_cast<size_t>(d));
    }
  }
  if (options.enable_dense_scoring) {
    out->dense_target_ = metadata->MaterializeTargetMatrix();
  }
  out->metadata_ = std::move(metadata);
  return out;
}

Status DeployedModel::ValidateBatch(common::Span<RowRef> batch) const {
  const size_t limit = rows();
  for (size_t i = 0; i < batch.size(); ++i) {
    if (batch[i].row >= limit) {
      return Status::InvalidArgument(
          "batch entry ", i, " references target row ", batch[i].row,
          " but deployment '", name_, "' serves ", limit, " rows");
    }
  }
  return Status::OK();
}

Result<la::DenseMatrix> DeployedModel::PredictBatch(
    common::Span<RowRef> batch) const {
  AMALUR_RETURN_NOT_OK(ValidateBatch(batch));
  la::DenseMatrix out(batch.size(), 1);
  std::atomic<uint64_t> hits{0};
  common::ParallelFor(
      0, batch.size(), kBatchGrain, [&](size_t begin, size_t end) {
        size_t chunk_hits = 0;
        for (size_t i = begin; i < end; ++i) {
          out.At(i, 0) = partials_.ScoreRow(batch[i].row, &chunk_hits);
        }
        hits.fetch_add(chunk_hits, std::memory_order_relaxed);
      });
  if (task_ == core::TrainingTask::kLogisticRegression) out = ml::Sigmoid(out);
  requests_.fetch_add(1, std::memory_order_relaxed);
  rows_served_.fetch_add(batch.size(), std::memory_order_relaxed);
  cache_hits_.fetch_add(hits.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
  return out;
}

Result<la::DenseMatrix> DeployedModel::PredictBatchDense(
    common::Span<RowRef> batch) const {
  if (dense_target_.empty()) {
    return Status::FailedPrecondition(
        "deployment '", name_, "' was created without dense scoring; pass "
        "DeployOptions{.enable_dense_scoring = true} at deploy time");
  }
  AMALUR_RETURN_NOT_OK(ValidateBatch(batch));
  la::DenseMatrix out(batch.size(), 1);
  common::ParallelFor(
      0, batch.size(), kBatchGrain, [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          const double* row = dense_target_.RowPtr(batch[i].row);
          double acc = 0.0;
          // The label weight is 0, so the full-width dot product scores
          // features only.
          for (size_t j = 0; j < dense_target_.cols(); ++j) {
            acc += row[j] * target_weights_.At(j, 0);
          }
          out.At(i, 0) = acc;
        }
      });
  if (task_ == core::TrainingTask::kLogisticRegression) out = ml::Sigmoid(out);
  requests_.fetch_add(1, std::memory_order_relaxed);
  rows_served_.fetch_add(batch.size(), std::memory_order_relaxed);
  return out;
}

Result<core::EvaluationReport> DeployedModel::EvaluateBatch(
    common::Span<RowRef> batch) const {
  if (batch.empty()) {
    return Status::InvalidArgument(
        "cannot evaluate an empty batch: the all-zero report of a zero-row "
        "evaluation impersonates a perfect model");
  }
  AMALUR_ASSIGN_OR_RETURN(la::DenseMatrix predictions, PredictBatch(batch));
  la::DenseMatrix labels(batch.size(), 1);
  for (size_t i = 0; i < batch.size(); ++i) {
    labels.At(i, 0) = labels_.At(batch[i].row, 0);
  }
  core::EvaluationReport report;
  report.rows = batch.size();
  report.mse = ml::MeanSquaredError(predictions, labels);
  if (task_ == core::TrainingTask::kLogisticRegression) {
    report.log_loss = ml::LogLoss(predictions, labels);
    report.accuracy = ml::BinaryAccuracy(predictions, labels);
    report.primary = report.accuracy;
  } else {
    report.primary = report.mse;
  }
  return report;
}

ServingStats DeployedModel::stats() const {
  ServingStats stats;
  stats.requests = requests_.load(std::memory_order_relaxed);
  stats.rows = rows_served_.load(std::memory_order_relaxed);
  stats.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace serving
}  // namespace amalur
