// The fit workload: paper-dense, the paper's own setting.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>

#include "baselines/unsupervised.h"
#include "datagen/aligned_generator.h"
#include "linalg/svd.h"
#include "trace.h"
#include "workloads.h"

namespace e2ebench {

using slampred::Result;
using slampred::Status;

namespace {

/// Held-out splits fitted and graded on paper-dense: the paper's 5-fold
/// protocol.
constexpr std::size_t kPaperFolds = 5;

/// Reloads the written artifact as a serving session; the corruption
/// hook flips a byte first so the reload must fail.
Result<slampred::ScoringSession> ReloadArtifact(const RunOptions& options,
                                                const std::string& path,
                                                WorkloadOutput& out) {
  if (options.corrupt == "artifact_reload") CorruptFile(path);
  const double t = WallSeconds();
  auto loaded = slampred::LoadModelArtifact(path);
  out.metrics.Set("core.artifact.load_s", WallSeconds() - t, "s");
  out.checks.Expect(loaded.ok(), "written artifact reloads" +
                                     (loaded.ok() ? std::string()
                                                  : ": " + loaded.status()
                                                               .ToString()));
  if (!loaded.ok()) return loaded.status();
  const double open_start = WallSeconds();
  auto session = slampred::ScoringSession::FromFile(path);
  out.metrics.Set("core.session.open_s", WallSeconds() - open_start, "s");
  return session;
}

void SetFitMetrics(const FitToArtifactResult& fit, double inputs_s,
                   Metrics& m) {
  m.Set("setup_s", inputs_s, "s");
  m.Set("fit_s", fit.fit_s, "s");
  m.Set("artifact_mib", static_cast<double>(fit.artifact_bytes) / kMiB,
        "MiB");
  m.Set("graph.load_s", fit.load_s, "s");
  m.Set("core.fit.modelled_peak_mib",
        static_cast<double>(fit.model.memory_stats().peak_bytes) / kMiB,
        "MiB");
  m.Set("core.fit.measured_peak_mib", fit.fit.peak_rss_mib, "MiB");
  m.Set("core.artifact.build_s", fit.build_s, "s");
  m.Set("core.artifact.write_s", fit.write_s, "s");
  m.Set("core.artifact.bytes", static_cast<double>(fit.artifact_bytes),
        "bytes");
  const slampred::CccpTrace& trace = fit.model.trace();
  m.Set("optim.outer_iters", trace.outer_iterations, "count");
  m.Set("optim.inner_iters",
        static_cast<double>(trace.steps.s_change_l1.size()), "count");
  m.Set("optim.recoveries", trace.recovery.Total(), "count");
}

/// A short single-caller serving probe of the artifact a fit workload
/// just wrote: the latency one client sees on the first queries of a
/// fresh model, and the publish (swap) time with no traffic. It exists
/// because every run reports every end-to-end metric.
Status RunServeProbe(const RunOptions& options, const ServedModel& model,
                     WorkloadOutput& out) {
  TrafficSpec spec;
  spec.threads = 1;
  spec.seconds = options.tiny ? 0.3 : 3.0;
  spec.topk_share = 0.5;
  spec.publishes = 7;
  spec.publish_seconds = options.tiny ? 0.1 : 1.0;
  spec.seed = options.seed;
  double publish_s = 0.0;
  return RunServingPhase(model, spec, options, out, &publish_s);
}

}  // namespace

Status RunPaperDense(const RunOptions& options, WorkloadOutput& out) {
  Metrics& m = out.metrics;
  const std::size_t folds = options.tiny ? 2 : kPaperFolds;
  // The reference bundle is fixed (the generator's default seed); the
  // run seed draws the held-out splits.
  Inputs inputs;
  SLAMPRED_RETURN_NOT_OK(MakeInputs(
      options, folds,
      [&]() -> Result<slampred::AlignedNetworks> {
        auto generated =
            slampred::GenerateAligned(slampred::DefaultExperimentConfig());
        if (!generated.ok()) return generated.status();
        return std::move(generated.value().networks);
      },
      inputs));

  // The monolithic default fit, as `slampred_cli fit` runs it, once per
  // fold and one fold after another. fit_s is the median of the folds'
  // timed fits, so one fit slowed by the host does not set the run's
  // figure. Fold 0's artifact is the one reloaded, checked and served.
  slampred::SlamPredConfig config;
  config.optimization.inner.max_iterations = options.tiny ? 10 : 60;
  config.optimization.max_outer_iterations = options.tiny ? 1 : 2;
  const std::string path = options.work_dir + "/paper.slpmodel";
  const std::string fold_path = options.work_dir + "/paper-fold.slpmodel";
  std::optional<FitToArtifactResult> first;
  std::vector<double> fit_times;
  std::vector<std::vector<double>> scores(folds);
  for (std::size_t f = 0; f < folds; ++f) {
    ++out.attempted;
    auto fit = FitToArtifact(options.work_dir, inputs.holds[f].test_edges,
                             config, std::nullopt, f == 0 ? path : fold_path);
    if (!fit.ok()) {
      ++out.failed;
      return fit.status();
    }
    fit_times.push_back(fit.value().fit_s);
    if (f == 0) {
      first.emplace(std::move(fit).value());
      continue;
    }
    auto s = fit.value().model.ScorePairs(inputs.holds[f].eval.pairs);
    if (!s.ok()) return s.status();
    scores[f] = std::move(s).value();
  }
  std::printf("fit to artifact per fold:");
  for (const double t : fit_times) std::printf(" %.3f s", t);
  std::printf("\n");
  SetFitMetrics(*first, inputs.median_s, m);
  m.Set("fit_s", Median(fit_times), "s");
  auto session = ReloadArtifact(options, path, out);
  if (!session.ok()) return Status::OK();  // Check already failed.

  // Quality: fold 0 from the reloaded artifact, the other folds from
  // their fitted models; CN/JC/PA on the same splits.
  {
    auto fold0 = session.value().ScorePairs(inputs.holds[0].eval.pairs);
    if (!fold0.ok()) return fold0.status();
    scores[0] = std::move(fold0).value();
  }
  double auc = 0.0;
  double precision = 0.0;
  double baseline_auc[3] = {0.0, 0.0, 0.0};
  for (std::size_t f = 0; f < folds; ++f) {
    const HoldOut& hold = inputs.holds[f];
    if (options.corrupt == "auc_vs_baselines") {
      for (double& s : scores[f]) s = -s;
    }
    auto graded = Grade(scores[f], hold.eval);
    if (!graded.ok()) return graded.status();
    auc += graded.value().auc / static_cast<double>(folds);
    precision += graded.value().precision_at_100 / static_cast<double>(folds);
    const slampred::CnPredictor cn(hold.train);
    const slampred::JcPredictor jc(hold.train);
    const slampred::PaPredictor pa(hold.train);
    const slampred::LinkPredictor* baselines[3] = {&cn, &jc, &pa};
    for (int b = 0; b < 3; ++b) {
      auto s = baselines[b]->ScorePairs(hold.eval.pairs);
      if (!s.ok()) return s.status();
      auto g = Grade(s.value(), hold.eval);
      if (!g.ok()) return g.status();
      baseline_auc[b] += g.value().auc / static_cast<double>(folds);
    }
  }
  const double best_baseline =
      std::max({baseline_auc[0], baseline_auc[1], baseline_auc[2]});
  out.checks.Expect(auc > best_baseline,
                    "SLAMPRED AUC " + std::to_string(auc) +
                        " beats the best of CN/JC/PA " +
                        std::to_string(best_baseline) + " (Table II)");
  m.Set("auc", auc, "1");
  m.Set("precision_at_100", precision, "1");
  std::printf("quality over %zu fold(s): AUC %.4f, P@100 %.4f; CN %.4f JC "
              "%.4f PA %.4f\n",
              folds, auc, precision, baseline_auc[0], baseline_auc[1],
              baseline_auc[2]);

  // Rank of the fitted dense S (singular values above 1e-9·σ₁).
  const slampred::Matrix& s = first->model.ScoreMatrix();
  auto svd = slampred::ComputeSvd(s);
  std::size_t rank = 0;
  if (svd.ok() && svd.value().singular_values.size() > 0) {
    const slampred::Vector& sigma = svd.value().singular_values;
    for (std::size_t i = 0; i < sigma.size(); ++i) {
      if (sigma[i] > 1e-9 * sigma[0]) ++rank;
    }
  }
  m.Set("optim.fitted_rank", static_cast<double>(rank), "count");

  if (options.trace) {
    auto bundle = LoadBundleFiles(options.work_dir);
    if (!bundle.ok()) return bundle.status();
    auto staged = RunStagedFit(config, bundle.value(), inputs.holds[0].train);
    if (!staged.ok()) return staged.status();
    out.checks.Expect(staged.value().context.s == s,
                      "stage-by-stage fit equals SlamPred::Fit bit for bit");
    SetStageMetrics(staged.value(), first->fit.wall_s, m);
  }

  ServedModel served;
  served.artifact_path = path;
  served.known = &inputs.holds[0].train;
  served.oracle = &session.value();
  served.float_oracle = &session.value();
  return RunServeProbe(options, served, out);
}

}  // namespace e2ebench
