#include "loadgen.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <thread>

#include "measure.h"
#include "util/random.h"

namespace e2ebench {
namespace {

void SleepUntilWall(double target_s) {
  const double wait = target_s - WallSeconds();
  if (wait > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(wait));
  }
}

}  // namespace

std::vector<double> PoissonSchedule(double rate, double seconds,
                                    std::uint64_t seed) {
  slampred::Rng rng(seed);
  std::vector<double> due;
  due.reserve(static_cast<std::size_t>(rate * seconds * 1.1) + 16);
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng.NextDouble()) / rate;
    if (t >= seconds) break;
    due.push_back(t);
  }
  return due;
}

LoadResult RunOpenLoop(const std::vector<LoadRequest>& requests,
                       std::size_t senders, double deadline_s,
                       const LoadHandler& handler) {
  LoadResult result;
  result.outcomes.resize(requests.size());
  std::atomic<std::size_t> next{0};
  const double t0 = WallSeconds() + 0.005;  // Let every sender start.
  std::atomic<double> last_end{t0};
  auto sender = [&](std::size_t worker) {
    while (true) {
      const std::size_t i = next.fetch_add(1);
      if (i >= requests.size()) return;
      const LoadRequest& request = requests[i];
      const double due = t0 + request.due_s;
      SleepUntilWall(due);
      const double issued = WallSeconds();
      const bool ok = handler(request, worker, due + deadline_s);
      const double done = WallSeconds();
      LoadOutcome& outcome = result.outcomes[i];
      outcome.kind = request.kind;
      outcome.ok = ok;
      outcome.latency_ms = 1e3 * (done - due);
      outcome.lag_ms = 1e3 * (issued - due);
      outcome.done_s = done - t0;
      double seen = last_end.load();
      while (done > seen && !last_end.compare_exchange_weak(seen, done)) {
      }
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < senders; ++w) threads.emplace_back(sender, w);
  for (std::thread& thread : threads) thread.join();
  result.elapsed_s = last_end.load() - t0;
  return result;
}

LoadResult RunClosedLoop(
    std::size_t callers, double seconds, double deadline_s,
    const std::function<LoadRequest(std::size_t worker, std::uint64_t seq)>&
        next,
    const LoadHandler& handler) {
  std::atomic<std::uint64_t> seq{0};
  std::vector<std::vector<std::pair<std::uint64_t, LoadOutcome>>> per_worker(
      callers);
  const double t0 = WallSeconds();
  const double stop = t0 + seconds;
  std::atomic<double> last_end{t0};
  auto caller = [&](std::size_t worker) {
    while (WallSeconds() < stop) {
      const std::uint64_t s = seq.fetch_add(1);
      const LoadRequest request = next(worker, s);
      const double issued = WallSeconds();
      const double deadline =
          deadline_s > 0 ? issued + deadline_s : 1e300;
      const bool ok = handler(request, worker, deadline);
      const double done = WallSeconds();
      LoadOutcome outcome;
      outcome.kind = request.kind;
      outcome.ok = ok;
      outcome.latency_ms = 1e3 * (done - issued);
      outcome.done_s = done - t0;
      per_worker[worker].emplace_back(s, outcome);
      double seen = last_end.load();
      while (done > seen && !last_end.compare_exchange_weak(seen, done)) {
      }
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < callers; ++w) threads.emplace_back(caller, w);
  for (std::thread& thread : threads) thread.join();

  LoadResult result;
  result.outcomes.resize(seq.load());
  std::vector<bool> filled(result.outcomes.size(), false);
  for (const auto& worker : per_worker) {
    for (const auto& [s, outcome] : worker) {
      result.outcomes[s] = outcome;
      filled[s] = true;
    }
  }
  // Sequence numbers drawn after the stop time was passed by a racing
  // caller are never issued; drop them from the tail.
  std::size_t issued = result.outcomes.size();
  while (issued > 0 && !filled[issued - 1]) --issued;
  result.outcomes.resize(issued);
  result.elapsed_s = last_end.load() - t0;
  return result;
}

bool OpenLoopStallSelfTest() {
  constexpr double kRate = 1000.0;
  constexpr double kSeconds = 1.0;
  constexpr std::uint64_t kStallSeq = 300;
  constexpr double kStallMs = 100.0;
  const std::vector<double> due = PoissonSchedule(kRate, kSeconds, 7);
  std::vector<LoadRequest> requests(due.size());
  for (std::size_t i = 0; i < due.size(); ++i) {
    requests[i].seq = i;
    requests[i].due_s = due[i];
  }
  std::vector<double> service_ms(due.size(), 0.0);
  const LoadHandler handler = [&](const LoadRequest& request, std::size_t,
                                  double) {
    const double start = WallSeconds();
    if (request.seq == kStallSeq) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(kStallMs));
    }
    service_ms[request.seq] = 1e3 * (WallSeconds() - start);
    return true;
  };
  const LoadResult result = RunOpenLoop(requests, 1, 1.0, handler);

  // Requests due during the first 80% of the stall must each carry at
  // least the stall time still remaining when they fell due.
  const double stall_start = due[kStallSeq];
  std::size_t due_in_stall = 0;
  std::size_t counted = 0;
  for (std::size_t i = kStallSeq + 1; i < due.size(); ++i) {
    const double into_stall_ms = 1e3 * (due[i] - stall_start);
    if (into_stall_ms >= 0.8 * kStallMs) break;
    ++due_in_stall;
    if (result.outcomes[i].latency_ms >= kStallMs - into_stall_ms - 1.0) {
      ++counted;
    }
  }
  std::vector<double> open_latency;
  std::vector<double> lag;
  for (const LoadOutcome& outcome : result.outcomes) {
    open_latency.push_back(outcome.latency_ms);
    lag.push_back(outcome.lag_ms);
  }
  const double open_p99 = Percentile(open_latency, 0.99);
  const double issue_p99 = Percentile(service_ms, 0.99);
  const double lag_p99 = Percentile(lag, 0.99);
  const bool ok = due_in_stall >= 20 && counted == due_in_stall &&
                  open_p99 >= 0.3 * kStallMs && issue_p99 < 0.3 * kStallMs &&
                  lag_p99 >= 0.3 * kStallMs;
  std::fprintf(stderr,
               "loadgen self-test: %zu requests due during a %.0f ms stall, "
               "%zu counted it; p99 from due %.2f ms, from issue %.2f ms, "
               "lag p99 %.2f ms -> %s\n",
               due_in_stall, kStallMs, counted, open_p99, issue_p99, lag_p99,
               ok ? "ok" : "FAILED");
  return ok;
}

}  // namespace e2ebench
