// One guardrail suite for both iterate representations: every case runs
// on the dense solver (SolveCccp / GeneralizedForwardBackward) and on
// the factored one (SolveCccpFactored /
// GeneralizedForwardBackwardFactored), which share one guarded driver
// (optim/guarded_solver.h). Covered: the nuclear-prox fallback chain
// under injected failures and poisoning at every prox site the backend
// honors, NaN and Inf gradient-step rollback, inner budget exhaustion →
// checkpoint resume, unrecoverable faults → status, guardrails off →
// propagated failure, and divergence back-off.
// FactoredFaultTest pins one single prox fault per factored prox site.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "linalg/csr_matrix.h"
#include "linalg/factored_matrix.h"
#include "linalg/matrix.h"
#include "optim/cccp.h"
#include "optim/factored_solver.h"
#include "optim/forward_backward.h"
#include "optim/guardrails.h"
#include "util/fault_injection.h"

namespace slampred {
namespace {

// Tests that arm a site only make sense with the hooks compiled in
// (-DSLAMPRED_FAULT_INJECTION=ON, the default).
#if SLAMPRED_FAULT_INJECTION_ENABLED
#define SLAMPRED_REQUIRE_INJECTION()
#else
#define SLAMPRED_REQUIRE_INJECTION() \
  GTEST_SKIP() << "fault injection compiled out"
#endif

// Small symmetric fixture whose solve converges hard, so fault-free and
// recovered runs land on the same fixed point.
Matrix SmallAdjacency() {
  return Matrix{{0.0, 1.0, 0.0}, {1.0, 0.0, 1.0}, {0.0, 1.0, 0.0}};
}

Matrix SmallGradient() {
  Matrix g(3, 3, 0.2);
  for (std::size_t i = 0; i < 3; ++i) g(i, i) = 0.0;
  return g;
}

CccpOptions TightOptions() {
  CccpOptions options;
  options.inner.theta = 0.05;
  options.inner.max_iterations = 3000;
  options.inner.tol = 1e-11;
  options.max_outer_iterations = 3;
  return options;
}

// θ = 5 is far beyond the 1/L = 0.5 stability bound: without the
// guardrail the iterates oscillate with geometrically growing change.
ForwardBackwardOptions UnstableOptions() {
  ForwardBackwardOptions options;
  options.theta = 5.0;
  options.max_iterations = 400;
  options.tol = 1e-10;
  options.project_unit_box = false;
  return options;
}

const Matrix kUnstableA{{0.0, 1.0}, {1.0, 0.0}};

Matrix ToDense(const Matrix& s) { return s; }
Matrix ToDense(const FactoredMatrix& s) { return s.ToDense(); }
bool IsFinite(const Matrix& s) { return MatrixIsFinite(s); }
bool IsFinite(const FactoredMatrix& s) { return s.IsFinite(); }

}  // namespace

// The backends live outside the anonymous namespace: test runners name
// each typed case by its type parameter, e.g.
// GuardedSolverTest.ProxFaultTriggersFallbackChain<slampred::DenseBackend>.
struct DenseBackend {
  // Prox fault sites this backend honors.
  static std::vector<std::string> ProxSites() { return {"svd.prox"}; }

  static Result<Matrix> Solve(const CccpOptions& options,
                              CccpTrace* trace = nullptr) {
    Objective objective;
    objective.a = CsrMatrix::FromDense(SmallAdjacency());
    objective.grad_v = SmallGradient();
    objective.gamma = 0.05;
    objective.tau = 0.05;
    return SolveCccp(objective, options, trace);
  }

  // Unregularised inner loop on kUnstableA from S = 0.
  static Result<Matrix> SolveUnstable(RecoveryStats* recovery) {
    Objective objective;
    objective.a = CsrMatrix::FromDense(kUnstableA);
    objective.grad_v = Matrix(2, 2);
    objective.gamma = 0.0;
    objective.tau = 0.0;
    IterationTrace trace;
    return GeneralizedForwardBackward(objective, Matrix(2, 2),
                                      UnstableOptions(), &trace, recovery);
  }
};

struct FactoredBackend {
  // The factored prox shares "svd.prox" and adds its own site.
  static std::vector<std::string> ProxSites() {
    return {"svd.prox", "prox.factored"};
  }

  // Full-rank sketch: the range finder spans the whole space.
  static FactoredSolverOptions FullRank(std::size_t n) {
    FactoredSolverOptions factored;
    factored.rank = n;
    factored.oversampling = 0;
    return factored;
  }

  static Result<FactoredMatrix> Solve(const CccpOptions& options,
                                      CccpTrace* trace = nullptr) {
    FactoredObjective objective;
    objective.a = CsrMatrix::FromDense(SmallAdjacency());
    objective.grad_v = CsrMatrix::FromDense(SmallGradient());
    objective.gamma = 0.05;
    objective.tau = 0.05;
    return SolveCccpFactored(objective, options, FullRank(3), trace);
  }

  static Result<FactoredMatrix> SolveUnstable(RecoveryStats* recovery) {
    FactoredObjective objective;
    objective.a = CsrMatrix::FromDense(kUnstableA);
    objective.grad_v = CsrMatrix::FromDense(Matrix(2, 2));
    objective.gamma = 0.0;
    objective.tau = 0.0;
    IterationTrace trace;
    return GeneralizedForwardBackwardFactored(
        objective, FactoredMatrix::Zero(2, 2), UnstableOptions(),
        FullRank(2), /*sketch_seed=*/0, /*warm_basis=*/nullptr, &trace,
        recovery);
  }
};

namespace {

template <typename Backend>
class GuardedSolverTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Instance().Reset(); }
  void TearDown() override { FaultInjector::Instance().Reset(); }
};

using Backends = ::testing::Types<DenseBackend, FactoredBackend>;
TYPED_TEST_SUITE(GuardedSolverTest, Backends);

TYPED_TEST(GuardedSolverTest, ProxFaultTriggersFallbackChain) {
  SLAMPRED_REQUIRE_INJECTION();
  const CccpOptions options = TightOptions();
  CccpTrace clean_trace;
  auto clean = TypeParam::Solve(options, &clean_trace);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_EQ(clean_trace.recovery.Total(), 0);

  for (const std::string& site : TypeParam::ProxSites()) {
    SCOPED_TRACE(site);
    FaultInjector::Instance().Reset();
    FaultSpec spec;
    spec.kind = FaultKind::kFailNotConverged;
    spec.trigger_after = 3;
    spec.max_triggers = 1;
    FaultInjector::Instance().Arm(site, spec);

    CccpTrace trace;
    auto faulted = TypeParam::Solve(options, &trace);
    ASSERT_TRUE(faulted.ok()) << faulted.status().ToString();
    EXPECT_GE(trace.recovery.svd_fallbacks, 1);
    EXPECT_EQ(FaultInjector::Instance().TriggerCount(site), 1);
    // The recovered solve reaches the same fixed point (which bounds any
    // score-derived metric such as AUC far below the 1e-6 budget).
    EXPECT_LT((ToDense(faulted.value()) - ToDense(clean.value())).MaxAbs(),
              1e-6);
  }
}

TYPED_TEST(GuardedSolverTest, ProxPoisonIsCaughtByFallback) {
  SLAMPRED_REQUIRE_INJECTION();
  const CccpOptions options = TightOptions();
  auto clean = TypeParam::Solve(options);
  ASSERT_TRUE(clean.ok());

  for (const std::string& site : TypeParam::ProxSites()) {
    SCOPED_TRACE(site);
    FaultInjector::Instance().Reset();
    FaultSpec spec;
    spec.kind = FaultKind::kPoisonNaN;
    spec.trigger_after = 1;
    spec.max_triggers = 1;
    FaultInjector::Instance().Arm(site, spec);

    CccpTrace trace;
    auto faulted = TypeParam::Solve(options, &trace);
    ASSERT_TRUE(faulted.ok()) << faulted.status().ToString();
    EXPECT_GE(trace.recovery.svd_fallbacks, 1);
    EXPECT_GE(trace.recovery.Total(), 1);
    EXPECT_TRUE(IsFinite(faulted.value()));
    EXPECT_LT((ToDense(faulted.value()) - ToDense(clean.value())).MaxAbs(),
              1e-6);
  }
}

TYPED_TEST(GuardedSolverTest, GradStepPoisonRollsBackAndRecovers) {
  SLAMPRED_REQUIRE_INJECTION();
  const CccpOptions options = TightOptions();
  auto clean = TypeParam::Solve(options);
  ASSERT_TRUE(clean.ok());

  FaultSpec spec;
  spec.kind = FaultKind::kPoisonNaN;
  spec.trigger_after = 2;
  spec.max_triggers = 1;
  FaultInjector::Instance().Arm("fb.grad_step", spec);

  CccpTrace trace;
  auto faulted = TypeParam::Solve(options, &trace);
  ASSERT_TRUE(faulted.ok()) << faulted.status().ToString();
  EXPECT_GE(trace.recovery.nan_rollbacks, 1);
  EXPECT_LT((ToDense(faulted.value()) - ToDense(clean.value())).MaxAbs(),
            1e-6);
}

TYPED_TEST(GuardedSolverTest, GradStepInfPoisonAlsoCaught) {
  SLAMPRED_REQUIRE_INJECTION();
  FaultSpec spec;
  spec.kind = FaultKind::kPoisonInf;
  spec.max_triggers = 1;
  FaultInjector::Instance().Arm("fb.grad_step", spec);

  CccpTrace trace;
  auto faulted = TypeParam::Solve(TightOptions(), &trace);
  ASSERT_TRUE(faulted.ok()) << faulted.status().ToString();
  EXPECT_GE(trace.recovery.nan_rollbacks, 1);
  EXPECT_TRUE(IsFinite(faulted.value()));
}

TYPED_TEST(GuardedSolverTest, PersistentFaultExhaustsInnerBudgetThenResumes) {
  SLAMPRED_REQUIRE_INJECTION();
  CccpOptions options = TightOptions();
  options.inner.guardrails.max_recoveries = 4;

  // 5 poisoned steps exhaust the inner budget of 4; the 6th and last
  // trigger is absorbed by the resumed run's first recovery.
  FaultSpec spec;
  spec.kind = FaultKind::kPoisonNaN;
  spec.max_triggers = 6;
  FaultInjector::Instance().Arm("fb.grad_step", spec);

  CccpTrace trace;
  auto faulted = TypeParam::Solve(options, &trace);
  ASSERT_TRUE(faulted.ok()) << faulted.status().ToString();
  EXPECT_GE(trace.recovery.checkpoint_resumes, 1);
  EXPECT_GE(trace.recovery.nan_rollbacks, 5);
  EXPECT_TRUE(IsFinite(faulted.value()));

  FaultInjector::Instance().Reset();
  auto clean = TypeParam::Solve(TightOptions());
  ASSERT_TRUE(clean.ok());
  EXPECT_LT((ToDense(faulted.value()) - ToDense(clean.value())).MaxAbs(),
            1e-6);
}

TYPED_TEST(GuardedSolverTest, UnrecoverableFaultReturnsStatusNotAbort) {
  SLAMPRED_REQUIRE_INJECTION();
  CccpOptions options = TightOptions();
  options.inner.guardrails.max_recoveries = 2;
  options.inner.guardrails.max_checkpoint_resumes = 1;

  FaultSpec spec;
  spec.kind = FaultKind::kPoisonNaN;
  spec.max_triggers = -1;  // Every gradient step is poisoned, forever.
  FaultInjector::Instance().Arm("fb.grad_step", spec);

  CccpTrace trace;
  auto faulted = TypeParam::Solve(options, &trace);
  ASSERT_FALSE(faulted.ok());
  EXPECT_EQ(faulted.status().code(), StatusCode::kNotConverged);
  EXPECT_GE(trace.recovery.checkpoint_resumes, 1);
}

TYPED_TEST(GuardedSolverTest, DivergenceBackoffTamesUnstableStepSize) {
  RecoveryStats recovery;
  auto s = TypeParam::SolveUnstable(&recovery);
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  EXPECT_GE(recovery.divergence_backoffs, 1);
  // After the backoffs bring θ into the stable range the loop converges
  // to the unregularised minimiser S = A.
  EXPECT_LT((ToDense(s.value()) - kUnstableA).MaxAbs(), 1e-3);
}

TYPED_TEST(GuardedSolverTest, GuardrailsDisabledPropagatesProxFailure) {
  SLAMPRED_REQUIRE_INJECTION();
  CccpOptions options = TightOptions();
  options.inner.guardrails.enabled = false;

  for (const std::string& site : TypeParam::ProxSites()) {
    SCOPED_TRACE(site);
    FaultInjector::Instance().Reset();
    FaultSpec spec;
    spec.kind = FaultKind::kFailNotConverged;
    spec.max_triggers = 1;
    FaultInjector::Instance().Arm(site, spec);

    auto faulted = TypeParam::Solve(options);
    ASSERT_FALSE(faulted.ok());
    EXPECT_EQ(faulted.status().code(), StatusCode::kNotConverged);
  }
}

// Factored-only checks, one per prox site: the factored prox keeps its
// own "prox.factored" site and also honors the shared "svd.prox" site.
class FactoredFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Instance().Reset(); }
  void TearDown() override { FaultInjector::Instance().Reset(); }

  static CccpOptions Options() {
    CccpOptions options = TightOptions();
    options.inner.project_unit_box = false;
    return options;
  }

  // A single failure at `site` after `trigger_after` clean calls is
  // absorbed by the fallback chain without moving the fixed point.
  static void ExpectSingleProxFaultRecovered(const std::string& site,
                                             int trigger_after) {
    const CccpOptions options = Options();
    CccpTrace clean_trace;
    auto clean = FactoredBackend::Solve(options, &clean_trace);
    ASSERT_TRUE(clean.ok()) << clean.status().ToString();
    EXPECT_EQ(clean_trace.recovery.Total(), 0);

    FaultSpec spec;
    spec.kind = FaultKind::kFailNotConverged;
    spec.trigger_after = trigger_after;
    spec.max_triggers = 1;
    FaultInjector::Instance().Arm(site, spec);

    CccpTrace trace;
    auto faulted = FactoredBackend::Solve(options, &trace);
    ASSERT_TRUE(faulted.ok()) << faulted.status().ToString();
    EXPECT_GE(trace.recovery.svd_fallbacks, 1);
    EXPECT_EQ(FaultInjector::Instance().TriggerCount(site), 1);
    EXPECT_LT((faulted.value().ToDense() - clean.value().ToDense()).MaxAbs(),
              1e-6);
  }
};

TEST_F(FactoredFaultTest, ProxFactoredFaultTriggersFallbackChain) {
  SLAMPRED_REQUIRE_INJECTION();
  ExpectSingleProxFaultRecovered("prox.factored", /*trigger_after=*/3);
}

TEST_F(FactoredFaultTest, SvdProxSiteAlsoCoversTheFactoredBackend) {
  SLAMPRED_REQUIRE_INJECTION();
  ExpectSingleProxFaultRecovered("svd.prox", /*trigger_after=*/2);
}

}  // namespace
}  // namespace slampred
