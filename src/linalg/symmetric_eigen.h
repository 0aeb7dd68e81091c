// Symmetric eigendecomposition via Householder tridiagonalisation
// followed by implicit-shift QL iteration (the EISPACK tred2/tql2 pair).
//
// Used for (a) the fast symmetric path of the nuclear-norm prox (the
// predictor matrix S stays symmetric for undirected social graphs) and
// (b) the reduced standard problem inside the generalized eigensolver
// that implements the paper's Theorem 1.

#ifndef SLAMPRED_LINALG_SYMMETRIC_EIGEN_H_
#define SLAMPRED_LINALG_SYMMETRIC_EIGEN_H_

#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "util/status.h"

namespace slampred {

/// Eigendecomposition A = Q Λ Qᵀ with eigenvalues sorted ascending.
struct SymmetricEigenResult {
  Vector eigenvalues;   ///< λ₁ ≤ λ₂ ≤ ... ≤ λ_n.
  Matrix eigenvectors;  ///< Column j is the eigenvector for eigenvalues[j].

  /// Reconstructs Q Λ Qᵀ (for testing / verification).
  Matrix Reconstruct() const;
};

/// Options controlling the QL iteration.
struct SymmetricEigenOptions {
  /// Cap on implicit QL iterations spent on any one eigenvalue (LAPACK's
  /// steqr allows 30; two or three is typical).
  int max_iterations = 30;
};

/// Computes the full eigendecomposition of the symmetric matrix `a`.
/// Eigenvector signs are arbitrary. Fails with kInvalidArgument if `a`
/// is empty, non-square, or visibly asymmetric, kNumericalError if it
/// holds NaN/Inf, and kNotConverged if an eigenvalue exhausts
/// `max_iterations`.
Result<SymmetricEigenResult> ComputeSymmetricEigen(
    const Matrix& a, const SymmetricEigenOptions& options = {});

}  // namespace slampred

#endif  // SLAMPRED_LINALG_SYMMETRIC_EIGEN_H_
