// Serving harness and the two serve workloads (serve-open, serve-closed).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <optional>
#include <thread>

#include "core/scoring_service.h"
#include "datagen/aligned_generator.h"
#include "loadgen.h"
#include "serve/model_registry.h"
#include "serve/topk_index.h"
#include "trace.h"
#include "workloads.h"

namespace e2ebench {

using slampred::Result;
using slampred::Status;
using slampred::UserPair;

namespace {

constexpr int kScore = 0;
constexpr int kTopK = 1;
/// Every TopK asks for the best 10 new links; every ScorePairs request
/// scores 64 pairs of one user.
constexpr std::size_t kTopKSize = 10;
constexpr std::size_t kPairsPerRequest = 64;
/// Untimed requests sent after publishing, before traffic starts.
constexpr std::size_t kWarmupRequests = 200;
/// Oracle comparisons per request kind (spread evenly over the run).
constexpr std::size_t kOracleSamples = 1000;
/// serve-open's mean arrival rate.
constexpr double kOpenLoopRate = 1000.0;
/// The warm-up log that picks the hot users: as many requests as one
/// serve-open run sends at the benchmark's 10 s run length.
constexpr std::size_t kWarmupLogRequests = 10 * 1000;

std::chrono::steady_clock::time_point ToSteady(double wall_s) {
  return std::chrono::steady_clock::now() +
         std::chrono::duration_cast<std::chrono::steady_clock::duration>(
             std::chrono::duration<double>(wall_s - WallSeconds()));
}

std::vector<UserPair> PairsFor(std::uint32_t user, std::uint64_t salt,
                               std::size_t count, std::size_t num_users) {
  slampred::Rng rng(salt);
  std::vector<UserPair> pairs;
  pairs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::size_t v = static_cast<std::size_t>(rng.NextBounded(num_users));
    if (v == user) v = (v + 1) % num_users;
    pairs.push_back({user, v});
  }
  return pairs;
}

/// The serial oracle's top-k for `u`: the full sorted row, known links
/// skipped — what ScoringService must return on the full/cached tier.
std::vector<slampred::TopKEntry> OracleTopK(
    const slampred::ScoringSession& session,
    const slampred::SocialGraph* known, std::size_t u, std::size_t k) {
  const slampred::TopKRowOrder order =
      slampred::BuildTopKRowOrder(session, u);
  std::vector<slampred::TopKEntry> entries;
  for (const std::uint32_t v : order) {
    if (known != nullptr && known->HasEdge(u, v)) continue;
    entries.push_back({static_cast<std::size_t>(v),
                       session.ScoreUnchecked(u, v)});
    if (entries.size() == k) break;
  }
  return entries;
}

/// A response kept for the post-run oracle comparison.
struct Sampled {
  std::uint64_t seq = 0;
  int kind = kScore;
  std::uint32_t user = 0;
  std::uint64_t salt = 0;
  slampred::ServeTier tier = slampred::ServeTier::kFull;
  std::uint64_t version = 0;
  std::vector<double> scores;
  std::vector<slampred::TopKEntry> entries;
};

/// TopK-side counters, summed over published versions.
struct TopKCounters {
  double row_builds = 0.0;
  double evictions = 0.0;
  double hot_hits = 0.0;

  static TopKCounters Of(const slampred::ServableModel& version) {
    return {static_cast<double>(version.topk.builds()),
            static_cast<double>(version.topk.evictions()),
            static_cast<double>(version.hot_hits.load())};
  }
  void Add(const TopKCounters& other, double sign) {
    row_builds += sign * other.row_builds;
    evictions += sign * other.evictions;
    hot_hits += sign * other.hot_hits;
  }
};

LoadRequest DrawRequest(const TrafficSpec& spec, std::size_t num_users,
                        std::uint64_t stream_seed, std::uint64_t seq) {
  slampred::Rng rng(stream_seed ^ (0x9e3779b97f4a7c15ULL * (seq + 1)));
  LoadRequest request;
  request.seq = seq;
  request.kind = rng.NextDouble() < spec.topk_share ? kTopK : kScore;
  request.user = spec.popularity != nullptr
                     ? spec.popularity->Draw(rng)
                     : static_cast<std::uint32_t>(rng.NextBounded(num_users));
  request.salt = rng.NextUint64();
  return request;
}

}  // namespace

Popularity::Popularity(const slampred::SocialGraph& graph) {
  cdf_.resize(graph.num_users());
  double total = 0.0;
  for (std::size_t u = 0; u < cdf_.size(); ++u) {
    total += static_cast<double>(graph.Degree(u));
    cdf_[u] = total;
  }
  for (double& c : cdf_) c /= total;
}

std::uint32_t Popularity::Draw(slampred::Rng& rng) const {
  const double x = rng.NextDouble();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), x);
  return static_cast<std::uint32_t>(std::min<std::size_t>(
      static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1));
}

std::vector<std::uint32_t> Popularity::HotUsersFromLog(
    std::size_t draws, slampred::Rng& rng) const {
  std::vector<std::size_t> hits(cdf_.size(), 0);
  for (std::size_t i = 0; i < draws; ++i) ++hits[Draw(rng)];
  std::vector<std::uint32_t> users;
  for (std::size_t u = 0; u < hits.size(); ++u) {
    if (hits[u] >= 2) users.push_back(static_cast<std::uint32_t>(u));
  }
  return users;
}

Result<slampred::AlignedNetworks> ScaleOutBundle(std::size_t n) {
  slampred::ScaleOutConfig config;
  config.num_users = n;
  auto generated = slampred::GenerateAlignedScaleOut(config);
  if (!generated.ok()) return generated.status();
  return std::move(generated.value().networks);
}

slampred::SlamPredConfig PartitionedFitConfig(int inner_iterations) {
  slampred::SlamPredConfig config;
  config.partition.mode = slampred::PartitionMode::kAuto;
  config.partition.max_cluster_size = 512;
  config.solver_backend = slampred::SolverBackend::kFactored;
  config.factored.rank = 16;
  config.optimization.inner.max_iterations = inner_iterations;
  config.optimization.max_outer_iterations = 1;
  return config;
}

slampred::ArtifactQuantizerOptions HotRowQuantizer(
    const Popularity& popularity, std::uint64_t seed) {
  slampred::Rng warm_log(seed ^ 0x4a11ULL);
  slampred::ArtifactQuantizerOptions options;
  options.bits = slampred::QuantizationBits::kU8;
  options.hot_user_ids =
      popularity.HotUsersFromLog(kWarmupLogRequests, warm_log);
  return options;
}

Status RunServingPhase(const ServedModel& model, const TrafficSpec& spec,
                       const RunOptions& options, WorkloadOutput& out,
                       double* setup_s) {
  Metrics& m = out.metrics;
  const std::size_t n = model.oracle->num_users();
  const slampred::CsrMatrix known_links = model.known->AdjacencyCsr();

  // Publish (timed per swap) and warm up. Only the current version is
  // held here: a superseded one is released right after its swap, as it
  // would be with no benchmark watching, once its counters are kept.
  const double setup_start = WallSeconds();
  slampred::ModelRegistry registry;
  std::mutex publish_mutex;
  std::shared_ptr<const slampred::ServableModel> current;
  TopKCounters retired;
  std::vector<double> swap_ms;
  std::size_t swap_attempts = 0;
  std::size_t swap_failures = 0;
  auto publish = [&]() {
    std::lock_guard<std::mutex> lock(publish_mutex);
    ++swap_attempts;
    const double t = WallSeconds();
    Status status;
    {
      Span span("serve.registry.swap");
      status = registry.SwapFromFile(model.artifact_path, known_links);
      if (status.ok()) {
        if (current != nullptr) retired.Add(TopKCounters::Of(*current), 1);
        current = registry.Acquire();
      }
    }
    const double ms = 1e3 * (WallSeconds() - t);
    if (!status.ok()) {
      ++swap_failures;
      std::fprintf(stderr, "swap failed: %s\n", status.ToString().c_str());
      return;
    }
    swap_ms.push_back(ms);
  };
  for (std::size_t i = 0; i < std::max<std::size_t>(1, spec.publishes) ||
                          WallSeconds() - setup_start < spec.publish_seconds;
       ++i) {
    publish();
  }
  if (registry.current_version() == 0) {
    return Status::Internal("no model version could be published");
  }
  slampred::ScoringService service(&registry);
  for (std::size_t i = 0; i < kWarmupRequests; ++i) {
    const LoadRequest r = DrawRequest(spec, n, spec.seed ^ 0x3a3a3aULL, i);
    if (r.kind == kTopK) {
      (void)service.TopK(r.user, kTopKSize, true);
    } else {
      (void)service.ScorePairs(PairsFor(r.user, r.salt, kPairsPerRequest, n));
    }
  }
  const std::size_t warm_batches = service.batcher().batches_dispatched();
  // Counters count traffic only: the warm-up's share is taken off.
  TopKCounters warm = retired;
  warm.Add(TopKCounters::Of(*current), 1);
  const std::size_t publish_swaps = swap_ms.size();
  *setup_s = WallSeconds() - setup_start;

  // Traffic.
  const std::uint64_t stream_seed = spec.seed ^ 0x7afe5eedULL;
  std::vector<LoadRequest> schedule;
  std::size_t sample_every = 1;
  if (spec.open_loop) {
    const std::vector<double> due =
        PoissonSchedule(spec.rate, spec.seconds, spec.seed ^ 0xd0e5ULL);
    schedule.reserve(due.size());
    for (std::size_t i = 0; i < due.size(); ++i) {
      LoadRequest r = DrawRequest(spec, n, stream_seed, i);
      r.due_s = due[i];
      schedule.push_back(r);
    }
    sample_every = std::max<std::size_t>(1, due.size() / (2 * kOracleSamples));
  } else {
    sample_every = 4 * spec.threads;
  }

  std::atomic<std::size_t> tier_counts[3] = {0, 0, 0};
  std::mutex sampled_mutex;
  std::vector<Sampled> sampled;
  const LoadHandler handler = [&](const LoadRequest& r, std::size_t,
                                  double deadline_s) {
    Span request_span("loadgen.request", r.seq + 1);
    if (options.corrupt == "loadgen_lag" && r.seq < spec.threads) {
      // Test hook: every sender stalls on its first request, so the
      // requests due meanwhile are issued late.
      std::this_thread::sleep_for(
          std::chrono::duration<double>(3e-3 * spec.deadline_ms));
    }
    slampred::RequestOptions request_options;
    if (spec.deadline_ms > 0) request_options.deadline = ToSteady(deadline_s);
    Sampled sample;
    bool ok = false;
    if (r.kind == kTopK) {
      Result<slampred::TopKResponse> response = [&] {
        Span span("serve.topk");
        return service.TopK(r.user, kTopKSize, true, request_options);
      }();
      ok = response.ok();
      if (ok) {
        sample.tier = response.value().tier;
        sample.version = response.value().version;
        sample.entries = std::move(response.value().entries);
      }
    } else {
      const std::vector<UserPair> pairs =
          PairsFor(r.user, r.salt, kPairsPerRequest, n);
      Result<slampred::ScoreBatchResponse> response = [&] {
        Span span("serve.score_pairs");
        return service.ScorePairs(pairs, request_options);
      }();
      ok = response.ok();
      if (ok) {
        sample.tier = response.value().tier;
        sample.version = response.value().version;
        sample.scores = std::move(response.value().scores);
      }
    }
    if (!ok) return false;
    tier_counts[static_cast<int>(sample.tier)].fetch_add(1);
    if (r.seq % sample_every == 0) {
      sample.seq = r.seq;
      sample.kind = r.kind;
      sample.user = r.user;
      sample.salt = r.salt;
      std::lock_guard<std::mutex> lock(sampled_mutex);
      sampled.push_back(std::move(sample));
    }
    return true;
  };

  LoadResult load;
  {
    // Hot-swaps beside the traffic; stopped and joined on every exit.
    struct Swapper {
      std::mutex mutex;
      std::condition_variable cv;
      bool stop = false;  // Guarded by mutex.
      std::thread thread;
      ~Swapper() {
        if (!thread.joinable()) return;
        {
          std::lock_guard<std::mutex> lock(mutex);
          stop = true;
        }
        cv.notify_all();
        thread.join();
      }
    } swapper;
    if (spec.swap_period_s > 0) {
      swapper.thread = std::thread([&] {
        std::unique_lock<std::mutex> lock(swapper.mutex);
        while (!swapper.cv.wait_for(
            lock, std::chrono::duration<double>(spec.swap_period_s),
            [&] { return swapper.stop; })) {
          lock.unlock();
          publish();
          lock.lock();
        }
      });
    }
    if (spec.open_loop) {
      load = RunOpenLoop(schedule, spec.threads, 1e-3 * spec.deadline_ms,
                         handler);
    } else {
      load = RunClosedLoop(
          spec.threads, spec.seconds, 1e-3 * spec.deadline_ms,
          [&](std::size_t, std::uint64_t seq) {
            return DrawRequest(spec, n, stream_seed, seq);
          },
          handler);
    }
  }

  // Latency: failed requests count as missing any limit (at least the
  // deadline).
  std::vector<double> score_ms;
  std::vector<double> topk_ms;
  std::vector<double> lag_ms;
  std::size_t failed = 0;
  for (const LoadOutcome& o : load.outcomes) {
    double latency = o.latency_ms;
    if (!o.ok) {
      ++failed;
      latency = std::max(latency, spec.deadline_ms);
    }
    (o.kind == kTopK ? topk_ms : score_ms).push_back(latency);
    lag_ms.push_back(o.lag_ms);
  }
  const std::uint64_t final_version = registry.current_version();
  const slampred::RecoveryStats recovery = registry.recovery();

  // Output checks against the serial oracles, timing the oracle kernel
  // on the same request stream.
  if (options.corrupt == "full_tier" || options.corrupt == "cached_tier" ||
      options.corrupt == "version") {
    for (Sampled& s : sampled) {
      if (options.corrupt == "version") {
        s.version = final_version + 1;
        break;
      }
      const auto wanted = options.corrupt == "full_tier"
                              ? slampred::ServeTier::kFull
                              : slampred::ServeTier::kCached;
      if (s.tier != wanted) continue;
      if (!s.scores.empty()) {
        s.scores[0] = std::nextafter(s.scores[0], 1e300);
        break;
      }
      if (!s.entries.empty()) {
        s.entries[0].score = std::nextafter(s.entries[0].score, 1e300);
        break;
      }
    }
  }
  std::sort(sampled.begin(), sampled.end(),
            [](const Sampled& a, const Sampled& b) { return a.seq < b.seq; });
  std::vector<double> oracle_score_us;
  std::vector<double> oracle_topk_us;
  std::size_t full_checked = 0;
  std::size_t full_mismatch = 0;
  std::size_t cached_checked = 0;
  std::size_t cached_mismatch = 0;
  std::size_t bad_versions = 0;
  for (const Sampled& s : sampled) {
    if (s.version < 1 || s.version > final_version) ++bad_versions;
    if (s.tier == slampred::ServeTier::kDegraded) continue;
    if (s.kind == kScore) {
      if (oracle_score_us.size() >= kOracleSamples) continue;
      const std::vector<UserPair> pairs =
          PairsFor(s.user, s.salt, kPairsPerRequest, n);
      const double t = WallSeconds();
      Result<std::vector<double>> want = [&] {
        Span span("core.session.score_pairs");
        return model.oracle->ScorePairs(pairs);
      }();
      oracle_score_us.push_back(1e6 * (WallSeconds() - t));
      ++full_checked;
      if (!want.ok() || want.value() != s.scores) ++full_mismatch;
      continue;
    }
    const bool cached = s.tier == slampred::ServeTier::kCached;
    if (!cached && oracle_topk_us.size() >= kOracleSamples) continue;
    if (cached && cached_checked >= kOracleSamples) continue;
    const slampred::ScoringSession& oracle =
        cached ? *model.float_oracle : *model.oracle;
    const double t = WallSeconds();
    std::vector<slampred::TopKEntry> want;
    {
      Span span("core.session.topk_row");
      want = OracleTopK(oracle, model.known, s.user, kTopKSize);
    }
    if (cached) {
      ++cached_checked;
      if (want != s.entries) ++cached_mismatch;
    } else {
      oracle_topk_us.push_back(1e6 * (WallSeconds() - t));
      ++full_checked;
      if (want != s.entries) ++full_mismatch;
    }
  }
  out.checks.Expect(full_checked > 0 && full_mismatch == 0,
                    "full-tier responses bit-equal to the ScoringSession "
                    "oracle (" + std::to_string(full_mismatch) + " of " +
                        std::to_string(full_checked) + " differ)");
  out.checks.Expect(cached_mismatch == 0,
                    "cached-tier rows equal the float oracle prefix (" +
                        std::to_string(cached_mismatch) + " of " +
                        std::to_string(cached_checked) + " differ)");
  out.checks.Expect(bad_versions == 0,
                    "every response carries a published version (" +
                        std::to_string(bad_versions) + " do not)");

  // Serving metrics.
  const std::size_t requests = load.outcomes.size();
  out.attempted += requests + swap_attempts;
  out.failed += failed + swap_failures;
  const double elapsed = std::max(load.elapsed_s, 1e-9);
  m.Set("score_p50_ms", Percentile(score_ms, 0.50), "ms");
  m.Set("topk_p50_ms", Percentile(topk_ms, 0.50), "ms");
  // Capacity: the most requests completed in any whole second of the
  // run. The host's speed shifts between runs for seconds at a time; the
  // best second is the least disturbed measure of what the service can do.
  const std::size_t whole_seconds = static_cast<std::size_t>(spec.seconds);
  double serve_rps = static_cast<double>(requests - failed) / elapsed;
  if (whole_seconds >= 1) {
    std::vector<double> per_second(whole_seconds, 0.0);
    for (const LoadOutcome& o : load.outcomes) {
      const std::size_t w = static_cast<std::size_t>(std::max(0.0, o.done_s));
      if (o.ok && w < whole_seconds) per_second[w] += 1.0;
    }
    serve_rps = *std::max_element(per_second.begin(), per_second.end());
  }
  m.Set("serve_rps", serve_rps, "req/s");
  std::vector<double> traffic_swaps(swap_ms.begin() + publish_swaps,
                                    swap_ms.end());
  m.Set("swap_p50_ms",
        Median(traffic_swaps.empty() ? swap_ms : traffic_swaps), "ms");
  std::printf("serving: %zu requests in %.2f s, %zu failed; ScorePairs p50 "
              "%.3f ms, p99 %.3f ms over %zu; TopK p50 %.3f ms, p99 %.3f ms "
              "over %zu; %zu swap(s)\n",
              requests, elapsed, failed, Percentile(score_ms, 0.5),
              Percentile(score_ms, 0.99), score_ms.size(),
              Percentile(topk_ms, 0.5), Percentile(topk_ms, 0.99),
              topk_ms.size(), swap_ms.size());

  TopKCounters traffic = retired;
  {
    std::lock_guard<std::mutex> lock(publish_mutex);
    traffic.Add(TopKCounters::Of(*current), 1);
  }
  traffic.Add(warm, -1);
  const std::size_t batches =
      service.batcher().batches_dispatched() - warm_batches;
  m.Set("serve.batcher.batches", static_cast<double>(batches), "count");
  m.Set("serve.batcher.requests_per_batch",
        batches == 0 ? 0.0
                     : static_cast<double>(requests - failed) /
                           static_cast<double>(batches),
        "count");
  m.Set("serve.topk.hot_hit_frac",
        topk_ms.empty() ? 0.0
                        : traffic.hot_hits / static_cast<double>(topk_ms.size()),
        "1");
  m.Set("serve.topk.row_builds", traffic.row_builds, "count");
  m.Set("serve.topk.evictions", traffic.evictions, "count");
  m.Set("serve.registry.swap_p50_ms", Median(swap_ms), "ms");
  m.Set("serve.registry.swaps", static_cast<double>(swap_ms.size()), "count");
  m.Set("serve.registry.swap_failures",
        static_cast<double>(recovery.swap_failures), "count");
  m.Set("serve.service.tier_full", static_cast<double>(tier_counts[0].load()),
        "count");
  m.Set("serve.service.tier_cached",
        static_cast<double>(tier_counts[1].load()), "count");
  m.Set("serve.service.tier_degraded",
        static_cast<double>(tier_counts[2].load()), "count");
  m.Set("serve.service.shed", static_cast<double>(recovery.shed), "count");
  m.Set("serve.service.deadline_exceeded",
        static_cast<double>(recovery.deadline_exceeded), "count");
  m.Set("serve.latency.score_p99_ms", Percentile(score_ms, 0.99), "ms");
  m.Set("serve.latency.topk_p99_ms", Percentile(topk_ms, 0.99), "ms");
  m.Set("serve.service.score_n", static_cast<double>(score_ms.size()),
        "count");
  m.Set("serve.service.topk_n", static_cast<double>(topk_ms.size()), "count");
  m.Set("core.session.score_pairs_p50_us", Median(oracle_score_us), "us");
  m.Set("core.session.topk_row_p50_us", Median(oracle_topk_us), "us");
  if (spec.open_loop) {
    // A generator that issues over 1% of its requests after their
    // deadline measures itself, not the service: the run is invalid.
    const double lag_p99 = Percentile(lag_ms, 0.99);
    out.checks.Expect(lag_p99 <= spec.deadline_ms,
                      "load generator on schedule (lag p99 " +
                          std::to_string(lag_p99) + " ms, limit " +
                          std::to_string(spec.deadline_ms) + " ms)");
    m.Set("loadgen.lag_p99_ms", lag_p99, "ms");
  }
  m.Set("loadgen.sent", static_cast<double>(requests), "count");
  return Status::OK();
}

namespace {

Status RunServe(const RunOptions& options, WorkloadOutput& out,
                bool open_loop) {
  Metrics& m = out.metrics;
  const std::size_t n = options.tiny ? 2000 : 20000;
  const std::string dir = options.work_dir;
  const std::string artifact_path = dir + "/served.slpmodel";

  // The reference graph is fixed (the generator's default seed); the
  // run seed draws the split, the traffic and the warm-up log. Users
  // are requested in proportion to their training-graph degree.
  Inputs inputs;
  SLAMPRED_RETURN_NOT_OK(MakeInputs(
      options, 1, [&] { return ScaleOutBundle(n); }, inputs));
  const HoldOut* hold = &inputs.holds[0];

  // The model is built in set-up with a reduced budget (5 inner steps).
  const Popularity popularity(hold->train);
  std::optional<slampred::ArtifactQuantizerOptions> quantize;
  if (open_loop) quantize = HotRowQuantizer(popularity, options.seed);
  const slampred::SlamPredConfig config = PartitionedFitConfig(5);
  auto fit = FitToArtifact(dir, hold->test_edges, config, quantize,
                           artifact_path);
  if (!fit.ok()) {
    ++out.attempted;
    ++out.failed;
    return fit.status();
  }
  ++out.attempted;

  // Oracles (the benchmark's own; not part of set-up).
  double t = WallSeconds();
  double artifact_load_s = 0.0;
  {
    auto loaded = slampred::LoadModelArtifact(artifact_path);
    artifact_load_s = WallSeconds() - t;
    out.checks.Expect(loaded.ok(), "served artifact reloads");
    if (!loaded.ok()) return loaded.status();
  }
  t = WallSeconds();
  auto session = slampred::ScoringSession::FromFile(artifact_path);
  const double open_s = WallSeconds() - t;
  if (!session.ok()) return session.status();
  std::optional<slampred::ScoringSession> float_session;
  if (open_loop) {
    auto made = FloatOracle(fit.value().model);
    if (!made.ok()) return made.status();
    float_session.emplace(std::move(made).value());
  }
  const slampred::ScoringSession& float_oracle =
      float_session.has_value() ? *float_session : session.value();

  auto scores = session.value().ScorePairs(hold->eval.pairs);
  if (!scores.ok()) return scores.status();
  auto quality = Grade(scores.value(), hold->eval);
  if (!quality.ok()) return quality.status();
  if (open_loop) {
    const double err = MaxQuantErrorOverScale(
        session.value(), float_oracle, hold->eval.pairs,
        options.corrupt == "quantized_error" ? 1.0 : 0.0);
    out.checks.Expect(err <= 0.5 + 1e-9,
                      "quantized scores within scale/2 of the float scores "
                      "(max error " + std::to_string(err) + " × scale)");
    m.Set("serve.quantize.max_err_over_scale", err, "1");
  }

  TrafficSpec spec;
  spec.open_loop = open_loop;
  spec.seed = options.seed;
  spec.seconds = options.seconds;
  if (open_loop) {
    spec.rate = options.tiny ? 500.0 : kOpenLoopRate;
    spec.threads = 3;  // + the swapper: 4 load threads.
    spec.deadline_ms = 50.0;
    spec.topk_share = 0.5;
    spec.popularity = &popularity;
    spec.swap_period_s = 1.0;
    spec.publishes = 1;
  } else {
    spec.threads = 4;
    spec.topk_share = 0.25;
    spec.publishes = 7;
    spec.publish_seconds = 1.0;
  }
  ServedModel served;
  served.artifact_path = artifact_path;
  served.known = &hold->train;
  served.oracle = &session.value();
  served.float_oracle = &float_oracle;

  double serve_setup_s = 0.0;
  double overhead = 0.0;
  if (options.trace) {
    // Untraced first half as the overhead baseline, traced second half
    // for the per-layer numbers.
    TrafficSpec half = spec;
    half.seconds = spec.seconds / 2;
    Tracer::Global().set_enabled(false);
    SLAMPRED_RETURN_NOT_OK(
        RunServingPhase(served, half, options, out, &serve_setup_s));
    const double base = m.Get("score_p50_ms") + m.Get("topk_p50_ms");
    Tracer::Global().set_enabled(true);
    SLAMPRED_RETURN_NOT_OK(
        RunServingPhase(served, half, options, out, &serve_setup_s));
    const double traced = m.Get("score_p50_ms") + m.Get("topk_p50_ms");
    overhead = base > 0 ? traced / base - 1.0 : 0.0;
  } else {
    SLAMPRED_RETURN_NOT_OK(
        RunServingPhase(served, spec, options, out, &serve_setup_s));
  }

  const FitToArtifactResult& f = fit.value();
  const slampred::PartitionStats& partition = f.model.partition_stats();
  double cluster_sum = 0.0;
  for (const double s : partition.cluster_solve_seconds) cluster_sum += s;
  m.Set("setup_s", inputs.median_s + f.fit_s + serve_setup_s, "s");
  m.Set("fit_s", f.fit_s, "s");
  m.Set("auc", quality.value().auc, "1");
  m.Set("precision_at_100", quality.value().precision_at_100, "1");
  m.Set("artifact_mib", static_cast<double>(f.artifact_bytes) / kMiB, "MiB");

  m.Set("graph.load_s", f.load_s, "s");
  m.Set("graph.partition_s", f.model.phase_times().partition_seconds, "s");
  m.Set("graph.clusters", static_cast<double>(partition.num_clusters),
        "count");
  m.Set("graph.cut_edge_frac", partition.cut_edge_fraction, "1");
  m.Set("graph.largest_cluster", static_cast<double>(partition.max_cluster),
        "count");
  // Program-reported stage time; CPU and peak memory are measured
  // around the whole SlamPred::Fit call (the partition stage is <1% of it).
  m.Set("core.partitioned_solve.wall_s", f.model.phase_times().cccp_seconds,
        "s");
  m.Set("core.partitioned_solve.cpu_s", f.fit.cpu_s, "s");
  m.Set("core.partitioned_solve.peak_rss_mib", f.fit.peak_rss_mib, "MiB");
  m.Set("core.partitioned_solve.cluster_sum_s", cluster_sum, "s");
  m.Set("core.partitioned_solve.refine_s", partition.refine_seconds, "s");
  m.Set("core.fit.modelled_peak_mib",
        static_cast<double>(f.model.memory_stats().peak_bytes) / kMiB, "MiB");
  m.Set("core.fit.measured_peak_mib", f.fit.peak_rss_mib, "MiB");
  m.Set("core.artifact.build_s", f.build_s, "s");
  m.Set("core.artifact.write_s", f.write_s, "s");
  m.Set("core.artifact.load_s", artifact_load_s, "s");
  m.Set("core.artifact.bytes", static_cast<double>(f.artifact_bytes),
        "bytes");
  m.Set("core.session.open_s", open_s, "s");
  if (open_loop) {
    m.Set("serve.quantize.wall_s", f.quantize.wall_s, "s");
    m.Set("serve.quantize.shrink", f.quantize_report.shrink(), "1");
  }
  if (options.trace) {
    // Stage by stage, as SlamPred::Fit runs them, for the per-stage
    // layer metrics; the stages must give the untraced fit's scores.
    auto bundle = LoadBundleFiles(dir);
    if (!bundle.ok()) return bundle.status();
    auto staged = RunStagedFit(config, bundle.value(), hold->train);
    if (!staged.ok()) return staged.status();
    const slampred::ShardedScores& want = f.model.ShardedScoreMatrix();
    const slampred::ShardedScores& got = staged.value().context.shards;
    bool equal = got.num_users() == want.num_users();
    for (std::size_t i = 0; equal && i < hold->eval.pairs.size(); ++i) {
      const UserPair& p = hold->eval.pairs[i];
      equal = got.At(p.u, p.v) == want.At(p.u, p.v);
    }
    out.checks.Expect(equal,
                      "stage-by-stage fit equals SlamPred::Fit bit for bit");
    SetStageMetrics(staged.value(), f.fit.wall_s, m);
    // The serving overhead, not the fit's, is the traced run's figure.
    m.Set("trace.overhead_frac", overhead, "1");
  }
  return Status::OK();
}

}  // namespace

Status RunServeOpen(const RunOptions& options, WorkloadOutput& out) {
  return RunServe(options, out, /*open_loop=*/true);
}

Status RunServeClosed(const RunOptions& options, WorkloadOutput& out) {
  return RunServe(options, out, /*open_loop=*/false);
}

}  // namespace e2ebench
