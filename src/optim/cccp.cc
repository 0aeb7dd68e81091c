#include "optim/cccp.h"

#include <algorithm>
#include <utility>

#include "optim/guarded_solver.h"
#include "optim/proximal.h"
#include "util/logging.h"

namespace slampred {

namespace {

// The dense step policy of the guarded drivers (optim/guarded_solver.h):
// an explicit gradient step, the nuclear and ℓ₁ proxes, box projection
// and symmetrisation, with ℓ₁ norms for the trace.
struct DenseStep {
  using Iterate = Matrix;
  using Half = Matrix;

  const Objective& objective;

  void BeginRound(int /*outer*/) {}

  Matrix Forward(Matrix s, double theta, int /*step*/) const {
    s -= SmoothGradient(objective, s) * theta;
    return s;
  }

  static Matrix* GradStepFaultTarget(Matrix* half) { return half; }
  static bool IsFinite(const Matrix& m) { return MatrixIsFinite(m); }

  Result<Matrix> Backward(Matrix s, double theta,
                          const ForwardBackwardOptions& options,
                          RecoveryStats* recovery) const {
    if (objective.tau > 0.0) {
      auto prox = GuardedProxNuclear(s, theta * objective.tau,
                                     options.guardrails, recovery);
      if (!prox.ok()) return prox.status();
      s = std::move(prox).value();
    }
    if (objective.gamma > 0.0) {
      s = ProxL1(s, theta * objective.gamma);
    }
    // Projection onto the admissible set 𝒮.
    if (options.project_unit_box) {
      for (double& v : s.data()) v = std::clamp(v, 0.0, 1.0);
    }
    if (options.keep_symmetric && s.IsSquare()) {
      s = s.Symmetrized();
    }
    return s;
  }

  static double Norm(const Matrix& s) { return s.NormL1(); }
  static double Distance(const Matrix& s, const Matrix& prev) {
    return (s - prev).NormL1();
  }
  void Accept(const Matrix& /*s*/) {}
};

void CheckShape(const Objective& objective, const Matrix& s0) {
  SLAMPRED_CHECK(s0.rows() == objective.a.rows() &&
                 s0.cols() == objective.a.cols())
      << "initial point shape mismatch";
}

}  // namespace

Result<Matrix> GeneralizedForwardBackward(
    const Objective& objective, const Matrix& s0,
    const ForwardBackwardOptions& options, IterationTrace* trace,
    RecoveryStats* recovery) {
  CheckShape(objective, s0);
  DenseStep step{objective};
  return RunForwardBackward(step, s0, options.theta, options, trace,
                            recovery);
}

Result<Matrix> SolveCccp(const Objective& objective,
                         const CccpOptions& options, CccpTrace* trace) {
  // The iterate is dense; densify the CSR adjacency once for S⁰ = Aᵗ.
  return SolveCccpFrom(objective, objective.a.ToDense(), options, trace);
}

Result<Matrix> SolveCccpFrom(const Objective& objective, const Matrix& s0,
                             const CccpOptions& options, CccpTrace* trace) {
  CheckShape(objective, s0);
  DenseStep step{objective};
  return RunCccp(step, s0, options, trace);
}

}  // namespace slampred
