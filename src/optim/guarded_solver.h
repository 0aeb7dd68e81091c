// Algorithm 1's control flow, written once for every iterate
// representation (internal to optim/). The dense backend (cccp.cc) and
// the factored backend (factored_solver.cc) each supply a small step
// policy and instantiate the two drivers below:
//
//   * RunForwardBackward — the guarded generalized forward–backward
//     inner loop: step → "fb.grad_step" fault hook → finiteness guard →
//     prox with rollback → finiteness guard → change and divergence
//     back-off → convergence test → trace.
//   * RunCccp — the CCCP outer loop: rounds of the inner loop, episodic
//     θ back-off and the in-solve checkpoint resume.
//
// A step policy P provides:
//
//   using Iterate = ...;  // the iterate S
//   using Half = ...;     // the forward (gradient) step's output
//   void BeginRound(int outer);             // per-CCCP-round state
//   Half Forward(Iterate s, double theta, int step);
//   static Matrix* GradStepFaultTarget(Half* half);
//   static bool IsFinite(const Half&);      // and IsFinite(const Iterate&)
//   Result<Iterate> Backward(Half half, double theta,
//                            const ForwardBackwardOptions& options,
//                            RecoveryStats* recovery);
//       // prox chain, projection, symmetrisation; fails only when the
//       // nuclear prox fails
//   static double Norm(const Iterate& s);
//   static double Distance(const Iterate& s, const Iterate& prev);
//   void Accept(const Iterate& s);          // after each accepted step
//
// Norm and Distance are the trace and convergence norms: ℓ₁ for the
// dense iterate, Frobenius for the factored one.

#ifndef SLAMPRED_OPTIM_GUARDED_SOLVER_H_
#define SLAMPRED_OPTIM_GUARDED_SOLVER_H_

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "linalg/factored_matrix.h"
#include "linalg/matrix.h"
#include "linalg/svd.h"
#include "optim/cccp.h"
#include "optim/forward_backward.h"
#include "optim/guardrails.h"
#include "util/fault_injection.h"
#include "util/status.h"

namespace slampred {

inline bool IsFinite(const Matrix& m) { return MatrixIsFinite(m); }
inline bool IsFinite(const FactoredMatrix& m) { return m.IsFinite(); }

/// Poisons `target` when the "fb.grad_step" site fires. Fail kinds are
/// mapped to poisoning too: from the solver's point of view a failed
/// gradient step *is* a corrupted iterate.
inline void ApplyGradStepFault(Matrix* target) {
  const FaultKind kind = SLAMPRED_FAULT_HIT("fb.grad_step");
  if (kind == FaultKind::kNone || target->empty()) return;
  target->data()[0] = kind == FaultKind::kPoisonInf
                          ? std::numeric_limits<double>::infinity()
                          : std::numeric_limits<double>::quiet_NaN();
}

/// The nuclear prox's fallback chain. `primary` is the first attempt's
/// result; on kNotConverged / kNumericalError or non-finite output,
/// `attempt(svd_options)` is retried with a doubled SVD sweep budget up
/// to max_svd_fallbacks times. Each fallback taken is counted in
/// `stats` (when non-null). With guardrails off, `primary` is returned
/// as is.
template <typename T, typename Attempt>
Result<T> ProxWithSvdFallback(Result<T> primary, const Attempt& attempt,
                              const GuardrailOptions& guardrails,
                              RecoveryStats* stats) {
  if (primary.ok() && IsFinite(primary.value())) return primary;
  if (!guardrails.enabled) return primary;

  // Only decomposition trouble is retryable; argument errors are not.
  if (!primary.ok() &&
      primary.status().code() != StatusCode::kNotConverged &&
      primary.status().code() != StatusCode::kNumericalError) {
    return primary;
  }

  Status last = primary.ok() ? Status::NumericalError(
                                   "nuclear prox produced non-finite entries")
                             : primary.status();
  SvdOptions svd_options;
  for (int retry = 0; retry < guardrails.max_svd_fallbacks; ++retry) {
    svd_options.max_sweeps *= 2;
    auto fallback = attempt(svd_options);
    if (fallback.ok() && IsFinite(fallback.value())) {
      if (stats != nullptr) ++stats->svd_fallbacks;
      return fallback;
    }
    last = fallback.ok() ? Status::NumericalError(
                               "fallback nuclear prox non-finite")
                         : fallback.status();
  }
  return last;
}

/// The guarded inner loop from `s` at step size `theta`. `trace` is
/// appended to when non-null; recovery actions are counted into
/// `recovery` when non-null. Fails with kNotConverged when the recovery
/// budget is exhausted, or propagates the nuclear-prox failure directly
/// when guardrails are disabled.
template <typename Policy>
Result<typename Policy::Iterate> RunForwardBackward(
    Policy& policy, typename Policy::Iterate s, double theta,
    const ForwardBackwardOptions& options, IterationTrace* trace,
    RecoveryStats* recovery) {
  using Iterate = typename Policy::Iterate;
  const GuardrailOptions& guard = options.guardrails;
  // Guardrail bookkeeping. `best_s`/`best_change` track the iterate with
  // the smallest accepted step change — the rollback target when the
  // trajectory diverges. On the healthy path these are pure observers.
  int recoveries = 0;
  double best_change = std::numeric_limits<double>::infinity();
  Iterate best_s = s;
  int divergence_streak = 0;
  bool budget_exhausted = false;

  // Rolls back to `good` after a bad step and backs θ off; returns
  // false once the recovery budget is spent.
  const auto roll_back = [&](const Iterate& good, int RecoveryStats::*counter) {
    s = good;
    ++recoveries;
    if (recovery != nullptr) ++(recovery->*counter);
    theta *= guard.backoff_factor;
    budget_exhausted = recoveries > guard.max_recoveries;
    return !budget_exhausted;
  };

  bool converged = false;
  int it = 0;
  for (; it < options.max_iterations && !converged; ++it) {
    const Iterate prev = s;

    // Forward (gradient) step on the smooth linearised part.
    typename Policy::Half half = policy.Forward(std::move(s), theta, it);
    ApplyGradStepFault(Policy::GradStepFaultTarget(&half));

    // Guardrail: a non-finite gradient step never reaches the prox.
    if (guard.enabled && !Policy::IsFinite(half)) {
      if (!roll_back(prev, &RecoveryStats::nan_rollbacks)) break;
      continue;
    }

    // Backward steps: the proxes of the non-smooth regularizers.
    auto stepped = policy.Backward(std::move(half), theta, options, recovery);
    if (!stepped.ok()) {
      if (!guard.enabled) return stepped.status();
      if (!roll_back(prev, &RecoveryStats::prox_rollbacks)) break;
      continue;
    }
    s = std::move(stepped).value();

    // Guardrail: the prox/projection chain must keep the iterate finite.
    if (guard.enabled && !Policy::IsFinite(s)) {
      if (!roll_back(prev, &RecoveryStats::nan_rollbacks)) break;
      continue;
    }

    const double change = Policy::Distance(s, prev);
    const double norm = Policy::Norm(s);

    // Guardrail: divergence detection. A healthy run shrinks the step
    // change; only a blow-up far past the best value seen — sustained
    // for several consecutive steps — triggers a rollback.
    if (guard.enabled) {
      if (change < best_change) {
        best_change = change;
        best_s = s;
        divergence_streak = 0;
      } else if (change >
                 guard.divergence_factor * std::max(best_change, 1e-12)) {
        if (++divergence_streak >= guard.divergence_window) {
          divergence_streak = 0;
          if (!roll_back(best_s, &RecoveryStats::divergence_backoffs)) break;
          continue;
        }
      }
    }

    converged = change / std::max(1.0, norm) < options.tol;
    policy.Accept(s);

    if (trace != nullptr) {
      trace->s_norm_l1.push_back(norm);
      trace->s_change_l1.push_back(change);
    }
  }

  if (trace != nullptr) {
    trace->converged = converged;
    trace->iterations += it;
  }
  if (budget_exhausted) {
    return Status::NotConverged(
        "forward-backward recovery budget exhausted after " +
        std::to_string(recoveries) + " recoveries");
  }
  return s;
}

/// The CCCP outer loop from `s`: each round runs the guarded inner loop
/// on the (constant) linearised objective, warm-started from the last
/// round's iterate.
template <typename Policy>
Result<typename Policy::Iterate> RunCccp(Policy& policy,
                                         typename Policy::Iterate s,
                                         const CccpOptions& options,
                                         CccpTrace* trace) {
  const GuardrailOptions& guard = options.inner.guardrails;
  const double theta0 = options.inner.theta;
  double theta = theta0;
  RecoveryStats local_recovery;
  RecoveryStats* recovery =
      trace != nullptr ? &trace->recovery : &local_recovery;
  IterationTrace* inner_trace = trace != nullptr ? &trace->steps : nullptr;

  int resumes = 0;
  bool converged = false;
  int outer = 0;
  while (outer < options.max_outer_iterations && !converged) {
    policy.BeginRound(outer);
    auto inner = RunForwardBackward(policy, s, theta, options.inner,
                                    inner_trace, recovery);
    if (!inner.ok()) {
      // Guardrail: a failed round (persistent fault, exhausted inner
      // recovery budget) restarts from the checkpoint — the last good
      // iterate, which `s` still holds — with a backed-off step size
      // instead of abandoning the whole solve.
      const StatusCode code = inner.status().code();
      if (guard.enabled && resumes < guard.max_checkpoint_resumes &&
          (code == StatusCode::kNotConverged ||
           code == StatusCode::kNumericalError)) {
        ++resumes;
        ++recovery->checkpoint_resumes;
        theta *= guard.backoff_factor;
        continue;
      }
      return inner.status();
    }
    // The backoff is episodic: a clean round ends the recovery episode,
    // so a transient fault leaves no permanent step-size change (and the
    // solve converges to the same fixed point as a fault-free run).
    theta = theta0;

    const double change = Policy::Distance(inner.value(), s);
    s = std::move(inner).value();
    converged = change / std::max(1.0, Policy::Norm(s)) < options.outer_tol;
    if (trace != nullptr) trace->outer_change_l1.push_back(change);
    ++outer;
  }
  if (trace != nullptr) {
    trace->outer_iterations = outer;
    trace->converged = converged;
  }
  return s;
}

}  // namespace slampred

#endif  // SLAMPRED_OPTIM_GUARDED_SOLVER_H_
