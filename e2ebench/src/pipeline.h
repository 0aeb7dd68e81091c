// Pipeline plumbing shared by the workloads: seeded inputs and hold-out
// splits, the bundle files a fit reads, the timed fit-to-artifact path
// (what `slampred_cli fit` does), the stage-by-stage traced fit, and
// held-out quality.

#ifndef SLAMPRED_E2EBENCH_PIPELINE_H_
#define SLAMPRED_E2EBENCH_PIPELINE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/fit_pipeline.h"
#include "core/model_artifact.h"
#include "core/scoring_session.h"
#include "core/slampred.h"
#include "eval/link_split.h"
#include "graph/aligned_networks.h"
#include "graph/social_graph.h"
#include "measure.h"
#include "serve/artifact_quantizer.h"
#include "trace.h"
#include "util/status.h"

namespace e2ebench {

/// Command-line options of one benchmark run.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Small sizes for the benchmark's own tests (not a measured setting).
  bool tiny = false;
  /// Scratch directory for bundle files and artifacts.
  std::string work_dir;
  /// Where the traced run writes its spans.
  std::string trace_out;
  /// Test hook: name of one output check whose input is corrupted, to
  /// show the check fails the run.
  std::string corrupt;
};

/// One held-out split of the target's links: 1/num_folds of the edges
/// hidden, plus the labelled evaluation set (every hidden link and
/// negatives_per_positive × as many sampled non-links).
struct HoldOut {
  slampred::SocialGraph train;
  std::vector<slampred::UserPair> test_edges;
  slampred::EvaluationSet eval;
};

/// The first `count` folds of a seeded 5-fold SplitLinks split.
slampred::Result<std::vector<HoldOut>> MakeHoldOuts(const slampred::SocialGraph& full,
                                                    std::size_t count,
                                                    std::uint64_t seed);

/// Writes target.txt / source.txt / anchors.txt under `dir`.
slampred::Status WriteBundleFiles(const slampred::AlignedNetworks& networks,
                                  const std::string& dir);

/// Reads the bundle files written by WriteBundleFiles.
slampred::Result<slampred::AlignedNetworks> LoadBundleFiles(
    const std::string& dir);

/// Timed fit-to-artifact run and its pieces.
struct FitToArtifactResult {
  slampred::SlamPred model;
  double fit_s = 0.0;    ///< Bundle read → artifact durably on disk.
  double load_s = 0.0;   ///< Bundle files read and parsed.
  LayerSample fit;       ///< SlamPred::Fit alone.
  double build_s = 0.0;  ///< MakeModelArtifact.
  LayerSample quantize;  ///< QuantizeModelArtifact (zero when float).
  slampred::ArtifactQuantizeReport quantize_report;
  double write_s = 0.0;  ///< WriteArtifactAtomic.
  std::uint64_t artifact_bytes = 0;
};

/// Reads the bundle in `dir`, hides `test_edges`, fits `config`,
/// snapshots the artifact, optionally quantizes it (the artifact is
/// moved into the quantizer, as `slampred_cli fit` does), and publishes
/// it to `artifact_path` with WriteArtifactAtomic.
slampred::Result<FitToArtifactResult> FitToArtifact(
    const std::string& dir, const std::vector<slampred::UserPair>& test_edges,
    const slampred::SlamPredConfig& config,
    const std::optional<slampred::ArtifactQuantizerOptions>& quantize,
    const std::string& artifact_path);

/// Serial oracle over the float scores of `model` — the artifact a
/// quantized one was cut from, rebuilt after the timed fit.
slampred::Result<slampred::ScoringSession> FloatOracle(
    const slampred::SlamPred& model);

/// Stage-by-stage fit (BuildFitPipeline, then each FitStage::Run — the
/// calls SlamPred::Fit makes), each stage in its own span and measured.
struct StagedFit {
  slampred::FitContext context;
  /// (layer name, sample) per stage, in run order. Layer names:
  /// features, embedding, optim, graph.partition, core.partitioned_solve.
  std::vector<std::pair<std::string, LayerSample>> stages;
};
slampred::Result<StagedFit> RunStagedFit(
    const slampred::SlamPredConfig& config,
    const slampred::AlignedNetworks& networks, const slampred::SocialGraph& train);

/// Per-stage layer metrics of a staged fit, and the tracing overhead
/// as the staged stages' summed wall time over the untraced fit's.
void SetStageMetrics(const StagedFit& staged, double untraced_fit_s,
                     Metrics& m);

/// AUC and Precision@100 of `scores` on `eval`.
struct Quality {
  double auc = 0.0;
  double precision_at_100 = 0.0;
};
slampred::Result<Quality> Grade(const std::vector<double>& scores,
                                const slampred::EvaluationSet& eval);

/// Largest |quantized − float| / scale over `pairs`, where scale is the
/// quantization step of the row the pair was coded under (a correct
/// quantizer stays within 0.5). A zero-scale row must round-trip
/// exactly (an inexact one reports infinity). `perturb_first` (a test
/// hook) shifts the first pair with a non-zero scale by that many steps.
double MaxQuantErrorOverScale(const slampred::ScoringSession& quantized,
                              const slampred::ScoringSession& float_scores,
                              const std::vector<slampred::UserPair>& pairs,
                              double perturb_first = 0.0);

/// On-disk size of `path` in bytes (0 when missing).
std::uint64_t FileBytes(const std::string& path);

/// Flips one byte in the middle of `path` (corruption test hook).
bool CorruptFile(const std::string& path);

constexpr double kMiB = 1024.0 * 1024.0;
constexpr int kInputRepetitions = 7;
constexpr double kInputMinSeconds = 1.0;

/// A workload's generated inputs: the bundle and its held-out splits.
struct Inputs {
  std::optional<slampred::AlignedNetworks> networks;
  std::vector<HoldOut> holds;
  double median_s = 0.0;
};

/// Generates the bundle, splits it and writes its files (identical
/// bytes each time) at least kInputRepetitions times and for at least
/// kInputMinSeconds, and keeps the median wall time as the input set-up
/// cost.
template <typename Generate>
slampred::Status MakeInputs(const RunOptions& options, std::size_t folds,
                            Generate&& generate, Inputs& inputs) {
  std::vector<double> times;
  const double start = WallSeconds();
  for (int rep = 0; rep < kInputRepetitions ||
                    WallSeconds() - start < kInputMinSeconds;
       ++rep) {
    Span span("datagen.inputs");
    const double t = WallSeconds();
    slampred::Result<slampred::AlignedNetworks> networks = generate();
    if (!networks.ok()) return networks.status();
    inputs.networks.emplace(std::move(networks).value());
    auto holds = MakeHoldOuts(slampred::SocialGraph::FromHeterogeneousNetwork(
                                  inputs.networks->target()),
                              folds, options.seed);
    if (!holds.ok()) return holds.status();
    inputs.holds = std::move(holds).value();
    SLAMPRED_RETURN_NOT_OK(WriteBundleFiles(*inputs.networks,
                                            options.work_dir));
    times.push_back(WallSeconds() - t);
  }
  inputs.median_s = Median(times);
  return slampred::Status::OK();
}


}  // namespace e2ebench

#endif  // SLAMPRED_E2EBENCH_PIPELINE_H_
