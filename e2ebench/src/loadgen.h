// Load generators of the serve workloads.
//
// Open loop: requests arrive on a precomputed schedule (independent
// users) whether or not earlier ones finished. A fixed set of sender
// threads claims requests in schedule order, sleeps until each one is
// due, issues it, and times it from its DUE time — so a stall that
// holds every sender also counts in the latency of the requests that
// fell due during it. How late each request was actually issued is
// reported as generator lag.
//
// Closed loop: each caller thread issues its next request as soon as
// its previous one returned; latency is timed from issue.

#ifndef SLAMPRED_E2EBENCH_LOADGEN_H_
#define SLAMPRED_E2EBENCH_LOADGEN_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace e2ebench {

/// One request of a workload's traffic.
struct LoadRequest {
  std::uint64_t seq = 0;   ///< Position in the stream (0-based).
  int kind = 0;            ///< Workload-defined request type.
  std::uint32_t user = 0;  ///< Requesting user.
  std::uint64_t salt = 0;  ///< Per-request randomness for the handler.
  double due_s = 0.0;      ///< Open loop: offset of the scheduled send.
};

/// Outcome of one issued request.
struct LoadOutcome {
  int kind = 0;
  bool ok = false;
  double latency_ms = 0.0;  ///< From due time (open) or issue (closed).
  double lag_ms = 0.0;      ///< Issue time minus due time (open loop).
  double done_s = 0.0;      ///< Completion time, seconds into the run.
};

/// Handles one request on sender/caller `worker`; true when it succeeded.
/// `deadline_s` is the request's absolute deadline on WallSeconds().
using LoadHandler =
    std::function<bool(const LoadRequest& request, std::size_t worker,
                       double deadline_s)>;

struct LoadResult {
  std::vector<LoadOutcome> outcomes;  ///< Index = request seq.
  double elapsed_s = 0.0;             ///< First due/issue to last completion.
};

/// Poisson arrival offsets at `rate` per second over `seconds`, seeded.
std::vector<double> PoissonSchedule(double rate, double seconds,
                                    std::uint64_t seed);

/// Runs `requests` (due_s ascending) on `senders` threads; each request's
/// deadline is its due time plus `deadline_s`.
LoadResult RunOpenLoop(const std::vector<LoadRequest>& requests,
                       std::size_t senders, double deadline_s,
                       const LoadHandler& handler);

/// Runs `callers` threads for `seconds`, each drawing its next request
/// from `next(worker, seq)`; each request's deadline is its issue time
/// plus `deadline_s` (<= 0: none).
LoadResult RunClosedLoop(
    std::size_t callers, double seconds, double deadline_s,
    const std::function<LoadRequest(std::size_t worker, std::uint64_t seq)>&
        next,
    const LoadHandler& handler);

/// Self-test of the open-loop timing: one sender, a synthetic handler
/// that stalls once for 100 ms; returns true when the stall shows in
/// the latency of the requests due during it (and in the lag), while
/// timing from issue would have hidden it. Prints its findings.
bool OpenLoopStallSelfTest();

}  // namespace e2ebench

#endif  // SLAMPRED_E2EBENCH_LOADGEN_H_
