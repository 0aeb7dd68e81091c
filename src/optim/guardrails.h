// Solver guardrails: detection, backoff and fallback machinery that
// lets the CCCP / forward–backward pipeline degrade gracefully instead
// of aborting or silently emitting a garbage predictor matrix.
//
// The guardrails are observers on the healthy path — with no fault and
// no divergence they only read the iterate, so traces are bit-identical
// to an unguarded run — and only steer the solver when something is
// measurably wrong:
//
//   * NaN/Inf in the iterate after a step  → roll back to the last good
//     iterate and halve the step size θ.
//   * Divergence (the step change blowing up well past its best value
//     for several consecutive steps)       → same rollback + backoff.
//   * Nuclear-prox failure (symmetric-eigen or factored core SVD not
//     converging)                          → bounded-retry fallback to
//     the one-sided Jacobi SVD with extra sweeps, an algorithm family
//     independent of the tridiagonal-QL eigensolver.
//   * Inner-loop failure after its own retries → CCCP resumes from the
//     last completed round's iterate with a halved θ.
//
// The loops that apply these guardrails are written once for the dense
// and the factored iterate in optim/guarded_solver.h. Every
// intervention is counted in RecoveryStats, surfaced through CccpTrace
// and printed by tools/slampred_cli.

#ifndef SLAMPRED_OPTIM_GUARDRAILS_H_
#define SLAMPRED_OPTIM_GUARDRAILS_H_

#include <string>

#include "linalg/matrix.h"
#include "util/status.h"

namespace slampred {

/// Counters for every recovery action the solver took. All zero on a
/// fault-free, well-conditioned run.
struct RecoveryStats {
  int nan_rollbacks = 0;       ///< Non-finite iterate → rollback.
  int prox_rollbacks = 0;      ///< Unrecoverable prox failure → rollback.
  int divergence_backoffs = 0; ///< Diverging change → rollback + θ/2.
  int svd_fallbacks = 0;       ///< Nuclear prox retried on Jacobi SVD.
  int checkpoint_resumes = 0;  ///< CCCP resumed from a checkpoint.
  int swap_failures = 0;       ///< Rejected model hot-swaps (serving).
  int batch_failures = 0;      ///< Failed batch dispatches (serving).
  int shed = 0;                ///< Requests rejected by admission control.
  int deadline_exceeded = 0;   ///< Requests shed past their deadline.
  int breaker_trips = 0;       ///< Circuit-breaker closed→open transitions.
  int degraded_responses = 0;  ///< Responses served off the full path.
  int artifact_rollbacks = 0;  ///< Swaps recovered via a last_good sidecar.

  /// Total number of recoveries of any kind.
  int Total() const {
    return nan_rollbacks + prox_rollbacks + divergence_backoffs +
           svd_fallbacks + checkpoint_resumes + swap_failures +
           batch_failures + shed + deadline_exceeded + breaker_trips +
           degraded_responses + artifact_rollbacks;
  }

  /// Adds another stats object into this one.
  void Merge(const RecoveryStats& other) {
    nan_rollbacks += other.nan_rollbacks;
    prox_rollbacks += other.prox_rollbacks;
    divergence_backoffs += other.divergence_backoffs;
    svd_fallbacks += other.svd_fallbacks;
    checkpoint_resumes += other.checkpoint_resumes;
    swap_failures += other.swap_failures;
    batch_failures += other.batch_failures;
    shed += other.shed;
    deadline_exceeded += other.deadline_exceeded;
    breaker_trips += other.breaker_trips;
    degraded_responses += other.degraded_responses;
    artifact_rollbacks += other.artifact_rollbacks;
  }

  /// One-line human-readable summary.
  std::string ToString() const;
};

/// Guardrail controls shared by the inner and outer loops.
struct GuardrailOptions {
  /// Master switch. Off restores the exact pre-guardrail behavior
  /// (aborts on nothing, but propagates any prox failure immediately).
  bool enabled = true;
  /// Multiplier applied to θ at each backoff (0 < factor < 1).
  double backoff_factor = 0.5;
  /// Maximum rollback/backoff recoveries per inner-loop run before the
  /// loop gives up and returns its last good iterate.
  int max_recoveries = 8;
  /// Divergence test: the change ‖ΔS‖₁ must exceed
  /// divergence_factor × (best change seen) for divergence_window
  /// consecutive steps. The defaults are far outside anything a healthy
  /// run produces, so the healthy path is untouched.
  double divergence_factor = 1e3;
  int divergence_window = 3;
  /// Bounded retries of the full-Jacobi nuclear-prox fallback; each
  /// retry doubles the sweep budget.
  int max_svd_fallbacks = 2;
  /// Maximum checkpoint resumes at the CCCP level.
  int max_checkpoint_resumes = 2;
};

/// True iff every entry of `m` is finite (no NaN, no ±Inf).
bool MatrixIsFinite(const Matrix& m);

/// Nuclear-norm prox with a bounded-retry fallback chain: primary
/// ProxNuclearAuto (the tridiagonal-QL symmetric eigensolver or the SVD,
/// honoring the "svd.prox" fault-injection site) and, on kNotConverged /
/// kNumericalError / non-finite output, the full one-sided Jacobi SVD
/// with a doubled sweep budget per retry. Each fallback taken is counted
/// in `stats` (when non-null).
Result<Matrix> GuardedProxNuclear(const Matrix& s, double threshold,
                                  const GuardrailOptions& guardrails,
                                  RecoveryStats* stats);

}  // namespace slampred

#endif  // SLAMPRED_OPTIM_GUARDRAILS_H_
