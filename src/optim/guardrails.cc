#include "optim/guardrails.h"

#include <cmath>

#include "linalg/svd.h"
#include "optim/guarded_solver.h"
#include "optim/proximal.h"

namespace slampred {

std::string RecoveryStats::ToString() const {
  std::string out =
      "recoveries{nan_rollbacks=" + std::to_string(nan_rollbacks) +
      ", prox_rollbacks=" + std::to_string(prox_rollbacks) +
      ", divergence_backoffs=" + std::to_string(divergence_backoffs) +
      ", svd_fallbacks=" + std::to_string(svd_fallbacks) +
      ", checkpoint_resumes=" + std::to_string(checkpoint_resumes);
  // Serving-side counters only show up when serving code contributed.
  if (swap_failures != 0 || batch_failures != 0) {
    out += ", swap_failures=" + std::to_string(swap_failures) +
           ", batch_failures=" + std::to_string(batch_failures);
  }
  if (shed != 0 || deadline_exceeded != 0) {
    out += ", shed=" + std::to_string(shed) +
           ", deadline_exceeded=" + std::to_string(deadline_exceeded);
  }
  if (breaker_trips != 0 || degraded_responses != 0) {
    out += ", breaker_trips=" + std::to_string(breaker_trips) +
           ", degraded_responses=" + std::to_string(degraded_responses);
  }
  if (artifact_rollbacks != 0) {
    out += ", artifact_rollbacks=" + std::to_string(artifact_rollbacks);
  }
  return out + "}";
}

bool MatrixIsFinite(const Matrix& m) {
  for (double v : m.data()) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

Result<Matrix> GuardedProxNuclear(const Matrix& s, double threshold,
                                  const GuardrailOptions& guardrails,
                                  RecoveryStats* stats) {
  // The fallback is the full Jacobi SVD: independent of the primary's
  // symmetric-eigen shortcut, so a backend-specific failure — or an
  // injected one — does not repeat there.
  return ProxWithSvdFallback(
      ProxNuclearAuto(s, threshold),
      [&](const SvdOptions& svd_options) {
        return ProxNuclear(s, threshold, svd_options);
      },
      guardrails, stats);
}

}  // namespace slampred
