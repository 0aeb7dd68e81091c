#include "pipeline.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <utility>

#include "eval/metrics.h"
#include "graph/graph_io.h"
#include "trace.h"
#include "util/random.h"

namespace e2ebench {

using slampred::Result;
using slampred::Status;

namespace {

constexpr std::size_t kNumFolds = 5;
constexpr double kNegativesPerPositive = 5.0;
constexpr std::size_t kPrecisionK = 100;

std::string BundlePath(const std::string& dir, const char* file) {
  return dir + "/" + file;
}

}  // namespace

Result<std::vector<HoldOut>> MakeHoldOuts(const slampred::SocialGraph& full,
                                          std::size_t count,
                                          std::uint64_t seed) {
  slampred::Rng rng(seed ^ 0x5b1170c5ULL);
  auto folds = slampred::SplitLinks(full, kNumFolds, rng);
  if (!folds.ok()) return folds.status();
  std::vector<HoldOut> out;
  for (std::size_t f = 0; f < count && f < folds.value().size(); ++f) {
    HoldOut hold;
    hold.test_edges = folds.value()[f].test_edges;
    hold.train = full.WithEdgesRemoved(hold.test_edges);
    auto eval = slampred::BuildEvaluationSet(full, hold.test_edges,
                                             kNegativesPerPositive, rng);
    if (!eval.ok()) return eval.status();
    hold.eval = std::move(eval).value();
    out.push_back(std::move(hold));
  }
  return out;
}

Status WriteBundleFiles(const slampred::AlignedNetworks& networks,
                        const std::string& dir) {
  SLAMPRED_RETURN_NOT_OK(slampred::SaveNetwork(
      networks.target(), BundlePath(dir, "target.txt")));
  SLAMPRED_RETURN_NOT_OK(slampred::SaveNetwork(
      networks.source(0), BundlePath(dir, "source.txt")));
  return slampred::SaveAnchors(networks.anchors(0),
                               BundlePath(dir, "anchors.txt"));
}

Result<slampred::AlignedNetworks> LoadBundleFiles(const std::string& dir) {
  auto target = slampred::LoadNetwork(BundlePath(dir, "target.txt"));
  if (!target.ok()) return target.status();
  auto source = slampred::LoadNetwork(BundlePath(dir, "source.txt"));
  if (!source.ok()) return source.status();
  auto anchors = slampred::LoadAnchors(BundlePath(dir, "anchors.txt"));
  if (!anchors.ok()) return anchors.status();
  slampred::AlignedNetworks bundle(std::move(target).value());
  bundle.AddSource(std::move(source).value(), std::move(anchors).value());
  return bundle;
}

Result<FitToArtifactResult> FitToArtifact(
    const std::string& dir, const std::vector<slampred::UserPair>& test_edges,
    const slampred::SlamPredConfig& config,
    const std::optional<slampred::ArtifactQuantizerOptions>& quantize,
    const std::string& artifact_path) {
  Span root("core.fit_to_artifact");
  const double start = WallSeconds();
  FitToArtifactResult result;
  result.model = slampred::SlamPred(config);

  std::optional<slampred::AlignedNetworks> bundle;
  std::optional<slampred::SocialGraph> train;
  {
    Span span("graph.load");
    auto loaded = LoadBundleFiles(dir);
    if (!loaded.ok()) return loaded.status();
    bundle.emplace(std::move(loaded).value());
    train.emplace(slampred::SocialGraph::FromHeterogeneousNetwork(
                      bundle->target())
                      .WithEdgesRemoved(test_edges));
  }
  result.load_s = WallSeconds() - start;

  Status fit_status;
  result.fit = MeasureLayer([&] {
    Span span("core.fit");
    fit_status = result.model.Fit(*bundle, *train);
  });
  SLAMPRED_RETURN_NOT_OK(fit_status);

  double t = WallSeconds();
  Result<slampred::ModelArtifact> artifact = [&] {
    Span span("core.artifact.build");
    return slampred::MakeModelArtifact(result.model);
  }();
  if (!artifact.ok()) return artifact.status();
  result.build_s = WallSeconds() - t;

  if (quantize.has_value()) {
    std::optional<Result<slampred::ModelArtifact>> quantized;
    result.quantize = MeasureLayer([&] {
      Span span("serve.quantize");
      quantized.emplace(slampred::QuantizeModelArtifact(
          std::move(artifact).value(), *quantize, &result.quantize_report));
    });
    if (!quantized->ok()) return quantized->status();
    artifact = std::move(*quantized);
    std::printf("quantized: %zu hot row(s)\n", result.quantize_report.hot_rows);
  }

  t = WallSeconds();
  {
    Span span("core.artifact.write");
    SLAMPRED_RETURN_NOT_OK(
        slampred::WriteArtifactAtomic(artifact.value(), artifact_path));
  }
  result.write_s = WallSeconds() - t;
  result.fit_s = WallSeconds() - start;
  result.artifact_bytes = FileBytes(artifact_path);
  return result;
}

Result<slampred::ScoringSession> FloatOracle(const slampred::SlamPred& model) {
  auto artifact = slampred::MakeModelArtifact(model);
  if (!artifact.ok()) return artifact.status();
  return slampred::ScoringSession::FromArtifact(std::move(artifact).value());
}

Result<StagedFit> RunStagedFit(const slampred::SlamPredConfig& config,
                               const slampred::AlignedNetworks& networks,
                               const slampred::SocialGraph& train) {
  Span root("core.fit.staged");
  StagedFit staged;
  staged.context.networks = &networks;
  staged.context.target_structure = &train;
  const bool partitioned =
      config.partition.mode == slampred::PartitionMode::kAuto;
  for (const auto& stage : slampred::BuildFitPipeline(config)) {
    const std::string name = stage->name();
    const char* layer = "optim";
    if (name == "features") layer = "features";
    if (name == "embedding") layer = "embedding";
    if (name == "partition") layer = "graph.partition";
    if (name == "solve" && partitioned) layer = "core.partitioned_solve";
    Status status;
    const LayerSample sample = MeasureLayer([&] {
      Span span(layer);
      status = stage->Run(staged.context);
    });
    SLAMPRED_RETURN_NOT_OK(status);
    staged.stages.emplace_back(layer, sample);
  }
  return staged;
}

void SetStageMetrics(const StagedFit& staged, double untraced_fit_s,
                     Metrics& m) {
  double traced = 0.0;
  for (const auto& [layer, sample] : staged.stages) {
    if (layer == "graph.partition") {
      m.Set("graph.partition_s", sample.wall_s, "s");
    } else {
      m.SetLayer(layer, sample);
    }
    traced += sample.wall_s;
  }
  const slampred::FitMemoryStats& memory = staged.context.memory_stats;
  m.Set("features.raw_nnz", static_cast<double>(memory.raw_tensor_nnz),
        "count");
  m.Set("embedding.adapted_nnz",
        static_cast<double>(memory.adapted_tensor_nnz), "count");
  m.Set("trace.overhead_frac",
        untraced_fit_s > 0 ? traced / untraced_fit_s - 1.0 : 0.0, "1");
}

Result<Quality> Grade(const std::vector<double>& scores,
                      const slampred::EvaluationSet& eval) {
  auto auc = slampred::ComputeAuc(scores, eval.labels);
  if (!auc.ok()) return auc.status();
  auto precision =
      slampred::ComputePrecisionAtK(scores, eval.labels, kPrecisionK);
  if (!precision.ok()) return precision.status();
  return Quality{auc.value(), precision.value()};
}

double MaxQuantErrorOverScale(const slampred::ScoringSession& quantized,
                              const slampred::ScoringSession& float_scores,
                              const std::vector<slampred::UserPair>& pairs,
                              double perturb_first) {
  const slampred::ModelArtifact& artifact = quantized.artifact();
  double worst = 0.0;
  bool perturbed = perturb_first == 0.0;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const std::size_t u = pairs[i].u;
    const std::size_t v = pairs[i].v;
    double scale = 0.0;
    if (artifact.has_quantized_s) {
      scale = artifact.quantized_s.scales()[u];
    } else if (artifact.has_shards) {
      const slampred::ShardedScores& shards = artifact.shards;
      if (shards.shard_of(u) == shards.shard_of(v)) {
        const std::size_t lu = shards.local_index(u);
        const std::size_t lv = shards.local_index(v);
        scale = shards.shards()[shards.shard_of(u)]
                    .quantized.scales()[std::min(lu, lv)];
      } else if (shards.has_quantized_boundary()) {
        scale = shards.quantized_boundary().scales()[std::min(u, v)];
      }
    }
    double served = quantized.ScoreUnchecked(u, v);
    if (!perturbed && scale > 0.0) {
      served += perturb_first * scale;
      perturbed = true;
    }
    const double error = std::abs(served - float_scores.ScoreUnchecked(u, v));
    if (scale == 0.0) {
      if (error != 0.0) return std::numeric_limits<double>::infinity();
      continue;
    }
    worst = std::max(worst, error / scale);
  }
  return worst;
}

std::uint64_t FileBytes(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return 0;
  std::fseek(file, 0, SEEK_END);
  const long size = std::ftell(file);
  std::fclose(file);
  return size < 0 ? 0 : static_cast<std::uint64_t>(size);
}

bool CorruptFile(const std::string& path) {
  const std::uint64_t size = FileBytes(path);
  if (size == 0) return false;
  std::FILE* file = std::fopen(path.c_str(), "r+b");
  if (file == nullptr) return false;
  std::fseek(file, static_cast<long>(size / 2), SEEK_SET);
  const int byte = std::fgetc(file);
  std::fseek(file, static_cast<long>(size / 2), SEEK_SET);
  std::fputc(byte ^ 0x5a, file);
  return std::fclose(file) == 0;
}

}  // namespace e2ebench
