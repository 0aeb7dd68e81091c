// Tests for the deterministic fault injector, healthy-run determinism
// with the hooks compiled in, and the graph_io parse policies. The
// solver guardrail cases run on both iterates in guarded_solver_test.cc.

#include <cmath>

#include <gtest/gtest.h>

#include "graph/graph_io.h"
#include "optim/cccp.h"
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

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Instance().Reset(); }
  void TearDown() override { FaultInjector::Instance().Reset(); }
};

TEST_F(FaultInjectionTest, HitCountingAndTriggerWindow) {
  SLAMPRED_REQUIRE_INJECTION();
  auto& injector = FaultInjector::Instance();
  EXPECT_EQ(injector.Hit("unarmed.site"), FaultKind::kNone);

  FaultSpec spec;
  spec.kind = FaultKind::kFailNotConverged;
  spec.trigger_after = 2;
  spec.max_triggers = 1;
  injector.Arm("site.a", spec);

  EXPECT_EQ(injector.Hit("site.a"), FaultKind::kNone);
  EXPECT_EQ(injector.Hit("site.a"), FaultKind::kNone);
  EXPECT_EQ(injector.Hit("site.a"), FaultKind::kFailNotConverged);
  EXPECT_EQ(injector.Hit("site.a"), FaultKind::kNone);  // Budget spent.
  EXPECT_EQ(injector.HitCount("site.a"), 4);
  EXPECT_EQ(injector.TriggerCount("site.a"), 1);

  injector.Disarm("site.a");
  EXPECT_EQ(injector.Hit("site.a"), FaultKind::kNone);
}

TEST_F(FaultInjectionTest, UnlimitedTriggersAndReset) {
  SLAMPRED_REQUIRE_INJECTION();
  auto& injector = FaultInjector::Instance();
  FaultSpec spec;
  spec.kind = FaultKind::kPoisonNaN;
  spec.max_triggers = -1;
  injector.Arm("site.b", spec);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(injector.Hit("site.b"), FaultKind::kPoisonNaN);
  }
  injector.Reset();
  EXPECT_EQ(injector.Hit("site.b"), FaultKind::kNone);
  // Hits are not tracked while nothing is armed (zero-overhead fast path).
  EXPECT_EQ(injector.HitCount("site.b"), 0);
  EXPECT_EQ(injector.TriggerCount("site.b"), 0);
}

TEST_F(FaultInjectionTest, EveryNFiresOnPeriodicEligibleHits) {
  SLAMPRED_REQUIRE_INJECTION();
  auto& injector = FaultInjector::Instance();
  FaultSpec spec;
  spec.kind = FaultKind::kFailIo;
  spec.every_n = 3;
  spec.max_triggers = -1;
  injector.Arm("site.n", spec);

  // Fires on exactly the 3rd, 6th, 9th, ... hit.
  for (int hit = 1; hit <= 12; ++hit) {
    const FaultKind got = injector.Hit("site.n");
    if (hit % 3 == 0) {
      EXPECT_EQ(got, FaultKind::kFailIo) << "hit " << hit;
    } else {
      EXPECT_EQ(got, FaultKind::kNone) << "hit " << hit;
    }
  }
  EXPECT_EQ(injector.HitCount("site.n"), 12);
  EXPECT_EQ(injector.TriggerCount("site.n"), 4);
}

TEST_F(FaultInjectionTest, EveryNComposesWithTriggerAfterAndMaxTriggers) {
  SLAMPRED_REQUIRE_INJECTION();
  auto& injector = FaultInjector::Instance();
  FaultSpec spec;
  spec.kind = FaultKind::kFailNumerical;
  spec.trigger_after = 2;  // Hits 1-2 pass; eligible hits start at 3.
  spec.every_n = 2;        // Fire on the 2nd, 4th, ... eligible hit.
  spec.max_triggers = 2;   // ...but only twice in total.
  injector.Arm("site.c", spec);

  // Eligible index is (hit - trigger_after): hit 4 → eligible 2 (fires),
  // hit 6 → eligible 4 (fires, budget spent), nothing afterwards.
  const FaultKind expected[] = {
      FaultKind::kNone,          FaultKind::kNone, FaultKind::kNone,
      FaultKind::kFailNumerical, FaultKind::kNone, FaultKind::kFailNumerical,
      FaultKind::kNone,          FaultKind::kNone, FaultKind::kNone,
      FaultKind::kNone};
  for (int hit = 0; hit < 10; ++hit) {
    EXPECT_EQ(injector.Hit("site.c"), expected[hit]) << "hit " << (hit + 1);
  }
  EXPECT_EQ(injector.TriggerCount("site.c"), 2);
}

TEST_F(FaultInjectionTest, EveryNOfOneKeepsHistoricalEveryHitBehavior) {
  SLAMPRED_REQUIRE_INJECTION();
  auto& injector = FaultInjector::Instance();
  for (const int every_n : {0, 1}) {
    FaultSpec spec;
    spec.kind = FaultKind::kPoisonNaN;
    spec.every_n = every_n;
    spec.max_triggers = -1;
    injector.Arm("site.one", spec);
    for (int hit = 0; hit < 4; ++hit) {
      EXPECT_EQ(injector.Hit("site.one"), FaultKind::kPoisonNaN)
          << "every_n " << every_n << " hit " << hit;
    }
    injector.Disarm("site.one");
  }
}

// Small symmetric fixture whose solve converges hard, so fault-free and
// recovered runs land on the same fixed point.
Objective SmallObjective() {
  Objective objective;
  objective.a = CsrMatrix::FromDense(Matrix{{0.0, 1.0, 0.0},
                                            {1.0, 0.0, 1.0},
                                            {0.0, 1.0, 0.0}});
  Matrix g(3, 3, 0.2);
  for (std::size_t i = 0; i < 3; ++i) g(i, i) = 0.0;
  objective.grad_v = g;
  objective.gamma = 0.05;
  objective.tau = 0.05;
  return objective;
}

CccpOptions TightOptions() {
  CccpOptions options;
  options.inner.theta = 0.05;
  options.inner.max_iterations = 3000;
  options.inner.tol = 1e-11;
  options.max_outer_iterations = 3;
  return options;
}

TEST_F(FaultInjectionTest, HealthyRunsAreDeterministicWithHooksCompiledIn) {
  const Objective objective = SmallObjective();
  const CccpOptions options = TightOptions();
  CccpTrace trace_a;
  CccpTrace trace_b;
  auto a = SolveCccp(objective, options, &trace_a);
  auto b = SolveCccp(objective, options, &trace_b);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().data(), b.value().data());  // Bit-identical.
  EXPECT_EQ(trace_a.steps.s_change_l1, trace_b.steps.s_change_l1);
  EXPECT_EQ(trace_a.recovery.Total(), 0);
  EXPECT_EQ(trace_b.recovery.Total(), 0);
}

TEST_F(FaultInjectionTest, GraphIoParseFaultStrictFailsLenientSkips) {
  SLAMPRED_REQUIRE_INJECTION();
  const std::string text = "nodes user 3\nedge friend 0 1\nedge friend 1 2\n";

  FaultSpec spec;
  spec.kind = FaultKind::kFailIo;
  spec.trigger_after = 1;  // Fault the first edge record.
  spec.max_triggers = 1;
  FaultInjector::Instance().Arm("graph_io.parse", spec);

  auto strict = ParseNetwork(text, ParseOptions{ParsePolicy::kStrict});
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kIoError);
  EXPECT_NE(strict.status().message().find("line 2"), std::string::npos);

  FaultInjector::Instance().Arm("graph_io.parse", spec);
  ParseStats stats;
  auto lenient =
      ParseNetwork(text, ParseOptions{ParsePolicy::kLenient}, &stats);
  ASSERT_TRUE(lenient.ok()) << lenient.status().ToString();
  EXPECT_EQ(stats.lines_skipped, 1u);
  EXPECT_EQ(stats.first_error.code(), StatusCode::kIoError);
  // The faulted record is lost, the rest of the file is salvaged.
  EXPECT_EQ(lenient.value().NumEdges(EdgeType::kFriend), 1u);
  EXPECT_TRUE(lenient.value().HasEdge(EdgeType::kFriend, 1, 2));
}

TEST_F(FaultInjectionTest, RecoveryStatsMergeAndToString) {
  RecoveryStats a;
  a.nan_rollbacks = 1;
  a.svd_fallbacks = 2;
  RecoveryStats b;
  b.prox_rollbacks = 3;
  b.divergence_backoffs = 4;
  b.checkpoint_resumes = 5;
  a.Merge(b);
  EXPECT_EQ(a.Total(), 15);
  const std::string text = a.ToString();
  EXPECT_NE(text.find("nan_rollbacks=1"), std::string::npos);
  EXPECT_NE(text.find("svd_fallbacks=2"), std::string::npos);
  EXPECT_NE(text.find("checkpoint_resumes=5"), std::string::npos);
}

}  // namespace
}  // namespace slampred
