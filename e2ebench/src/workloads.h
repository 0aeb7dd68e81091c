// The benchmark's workloads and the serving harness they share.

#ifndef SLAMPRED_E2EBENCH_WORKLOADS_H_
#define SLAMPRED_E2EBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/scoring_session.h"
#include "graph/social_graph.h"
#include "measure.h"
#include "pipeline.h"
#include "util/random.h"
#include "util/status.h"

namespace e2ebench {

/// What one workload run produced: metrics (end-to-end and per-layer),
/// the output checks, and operation counts for the result line.
struct WorkloadOutput {
  Metrics metrics;
  Checks checks;
  std::size_t attempted = 0;
  std::size_t failed = 0;
};

slampred::Status RunPaperDense(const RunOptions& options, WorkloadOutput& out);
slampred::Status RunServeOpen(const RunOptions& options, WorkloadOutput& out);
slampred::Status RunServeClosed(const RunOptions& options,
                                WorkloadOutput& out);

/// Request popularity taken from the bundle itself: user u is drawn
/// with probability ∝ its friend degree, so the skew of the traffic is
/// the Chung-Lu power-law degree tail of the graph being served (users
/// with no friends send nothing).
class Popularity {
 public:
  explicit Popularity(const slampred::SocialGraph& graph);
  std::uint32_t Draw(slampred::Rng& rng) const;
  /// Users drawn at least twice among `draws` requests sampled with
  /// `rng` — those whose precomputed row a warm-up log shows being
  /// reused — in ascending id order.
  std::vector<std::uint32_t> HotUsersFromLog(std::size_t draws,
                                             slampred::Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// The n-user Chung-Lu reference bundle (GenerateAlignedScaleOut with
/// its defaults otherwise, seed included).
slampred::Result<slampred::AlignedNetworks> ScaleOutBundle(std::size_t n);

/// The partitioned factored fit of the serve workloads: max cluster
/// 512, rank 16, `inner_iterations` × 1 outer steps.
slampred::SlamPredConfig PartitionedFitConfig(int inner_iterations);

/// u8 quantization with hot rows for the users requested more than
/// once in a warm-up log as long as one serve-open run (kWarmupLogRequests
/// draws). The log is drawn from its own seed, not the measured traffic's.
slampred::ArtifactQuantizerOptions HotRowQuantizer(
    const Popularity& popularity, std::uint64_t seed);

/// Traffic of one serving phase.
struct TrafficSpec {
  bool open_loop = false;
  double rate = 0.0;           ///< Open loop: mean arrivals per second.
  std::size_t threads = 1;     ///< Senders (open) or callers (closed).
  double seconds = 1.0;
  double deadline_ms = 0.0;    ///< 0 = requests carry no deadline.
  double topk_share = 0.5;     ///< Fraction of TopK requests.
  const Popularity* popularity = nullptr;  ///< Null = uniform users.
  double swap_period_s = 0.0;  ///< Hot-swap cadence during traffic; 0 = none.
  std::size_t publishes = 1;   ///< Publishes before traffic (swap timing),
  double publish_seconds = 0;  ///< and at least this long publishing.
  std::uint64_t seed = 1;
};

/// The model a serving phase answers from, and its oracles.
struct ServedModel {
  std::string artifact_path;
  /// Training adjacency: TopK known-link exclusion.
  const slampred::SocialGraph* known = nullptr;
  /// Serial oracle over the published artifact (full tier).
  const slampred::ScoringSession* oracle = nullptr;
  /// Serial oracle over the float scores the hot rows were cut from
  /// (cached tier); equals `oracle` for a float artifact.
  const slampred::ScoringSession* float_oracle = nullptr;
};

/// Publishes `model` into a fresh registry, warms it up, drives the
/// traffic through ScoringService, checks sampled responses against
/// the oracles, and records every serving metric into `out`. `setup_s`
/// receives the publish + warm-up wall time.
slampred::Status RunServingPhase(const ServedModel& model,
                                 const TrafficSpec& spec,
                                 const RunOptions& options,
                                 WorkloadOutput& out, double* setup_s);

}  // namespace e2ebench

#endif  // SLAMPRED_E2EBENCH_WORKLOADS_H_
