#pragma once

#include <memory>

#include "common/status.h"
#include "factorized/factorized_table.h"
#include "la/dense_matrix.h"
#include "la/sparse_matrix.h"

/// \file training_matrix.h
/// The abstraction that lets one ML implementation train over either backend:
/// a `TrainingMatrix` exposes exactly the linear-algebra operators the
/// paper's factorization rewrites cover (LMM, transpose-LMM, aggregates), so
/// gradient-descent models are oblivious to whether the data is a
/// materialized dense matrix or a factorized view over silos. Equal inputs
/// produce bit-comparable results — factorization does not change accuracy
/// (§IV: "factorized learning does not affect model training accuracy").

namespace amalur {
namespace ml {

/// Read-only matrix interface for training-time linear algebra.
class TrainingMatrix {
 public:
  virtual ~TrainingMatrix() = default;

  virtual size_t rows() const = 0;
  virtual size_t cols() const = 0;

  /// M · X for X (cols × n).
  virtual la::DenseMatrix LeftMultiply(const la::DenseMatrix& x) const = 0;

  /// Mᵀ · X for X (rows × n).
  virtual la::DenseMatrix TransposeLeftMultiply(
      const la::DenseMatrix& x) const = 0;

  /// Per-row squared norms (rows × 1).
  virtual la::DenseMatrix RowSquaredNorms() const = 0;

  /// Column sums (1 × cols).
  virtual la::DenseMatrix ColSums() const = 0;
};

/// Backend over an ordinary dense matrix (the materialized path).
class MaterializedMatrix : public TrainingMatrix {
 public:
  explicit MaterializedMatrix(la::DenseMatrix data) : data_(std::move(data)) {}

  size_t rows() const override { return data_.rows(); }
  size_t cols() const override { return data_.cols(); }
  la::DenseMatrix LeftMultiply(const la::DenseMatrix& x) const override {
    return data_.Multiply(x);
  }
  la::DenseMatrix TransposeLeftMultiply(const la::DenseMatrix& x) const override {
    return data_.TransposeMultiply(x);
  }
  la::DenseMatrix RowSquaredNorms() const override;
  la::DenseMatrix ColSums() const override { return data_.ColSums(); }

  const la::DenseMatrix& data() const { return data_; }

 private:
  la::DenseMatrix data_;
};

/// Backend over a CSR sparse matrix: the middle ground between dense
/// materialization and factorization for null-heavy targets (outer joins
/// pad absent cells with zeros that a dense kernel multiplies through but
/// CSR skips). Used by the backend ablation study.
class SparseMaterializedMatrix : public TrainingMatrix {
 public:
  explicit SparseMaterializedMatrix(la::SparseMatrix data)
      : data_(std::move(data)) {}

  /// Builds from a dense matrix, dropping exact zeros.
  static SparseMaterializedMatrix FromDense(const la::DenseMatrix& dense) {
    return SparseMaterializedMatrix(la::SparseMatrix::FromDense(dense));
  }

  size_t rows() const override { return data_.rows(); }
  size_t cols() const override { return data_.cols(); }
  la::DenseMatrix LeftMultiply(const la::DenseMatrix& x) const override {
    return data_.Multiply(x);
  }
  la::DenseMatrix TransposeLeftMultiply(const la::DenseMatrix& x) const override {
    return data_.TransposeMultiply(x);
  }
  la::DenseMatrix RowSquaredNorms() const override;
  la::DenseMatrix ColSums() const override { return data_.ColSums(); }

  const la::SparseMatrix& data() const { return data_; }

 private:
  la::SparseMatrix data_;
};

/// Backend over a factorized target table (the pushed-down path). Operates
/// on a *feature view*: the label column of the target schema is excluded
/// from the virtual matrix, without materializing anything.
class FactorizedFeatures : public TrainingMatrix {
 public:
  /// Wraps `table`, excluding target column `label_column` from the view.
  FactorizedFeatures(std::shared_ptr<const factorized::FactorizedTable> table,
                     size_t label_column);

  size_t rows() const override { return table_->rows(); }
  size_t cols() const override { return table_->cols() - 1; }
  la::DenseMatrix LeftMultiply(const la::DenseMatrix& x) const override;
  la::DenseMatrix TransposeLeftMultiply(const la::DenseMatrix& x) const override;
  la::DenseMatrix RowSquaredNorms() const override;
  la::DenseMatrix ColSums() const override;

  /// The label column as a dense rows×1 vector (one cheap factorized LMM).
  la::DenseMatrix Labels() const;

  const factorized::FactorizedTable& table() const { return *table_; }

 private:
  /// Pads X (features-space, cols()×n) to target-space (cT×n) with a zero
  /// row at the label position.
  la::DenseMatrix PadToTarget(const la::DenseMatrix& x) const;
  /// Drops the label row from a target-space (cT×n) matrix.
  la::DenseMatrix DropLabelRow(const la::DenseMatrix& x) const;

  std::shared_ptr<const factorized::FactorizedTable> table_;
  size_t label_column_;
};

}  // namespace ml
}  // namespace amalur
