// slampred end-to-end benchmark program.
//
//   e2e_bench --workload paper-dense|serve-open|serve-closed
//             --seed N --seconds S --trace 0|1 --work-dir DIR
//             [--trace-out FILE] [--tiny 1] [--corrupt CHECK]
//   e2e_bench --selftest loadgen
//
// Prints human-readable progress and, as its last line, one
// "E2EBENCH_RESULT {json}" record with every metric measured, the
// output checks and the operation counts; run.py turns it into the
// benchmark's result line. Exits 1 when an output check fails.

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "loadgen.h"
#include "measure.h"
#include "trace.h"
#include "workloads.h"

namespace {

using e2ebench::JsonNumber;
using e2ebench::JsonQuote;

int Usage() {
  std::fprintf(stderr,
               "usage: e2e_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--trace-out FILE] [--tiny 1] "
               "[--corrupt CHECK]\n       e2e_bench --selftest loadgen\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return Usage();
    flags[key.substr(2)] = argv[i + 1];
  }
  if (flags.count("selftest")) {
    if (flags["selftest"] != "loadgen") return Usage();
    return e2ebench::OpenLoopStallSelfTest() ? 0 : 1;
  }
  if (!flags.count("workload") || !flags.count("work-dir")) return Usage();

  e2ebench::RunOptions options;
  options.workload = flags["workload"];
  options.seed = std::strtoull(flags["seed"].c_str(), nullptr, 10);
  options.seconds = flags.count("seconds") ? std::atof(flags["seconds"].c_str())
                                           : 10.0;
  options.trace = flags["trace"] == "1";
  options.tiny = flags["tiny"] == "1";
  options.work_dir = flags["work-dir"];
  options.trace_out = flags["trace-out"];
  options.corrupt = flags["corrupt"];
  if (options.seconds <= 0) return Usage();
  mkdir(options.work_dir.c_str(), 0755);

  e2ebench::Tracer::Global().set_enabled(options.trace);
  e2ebench::RssMeter::ResetPeak();
  const double start = e2ebench::WallSeconds();

  e2ebench::WorkloadOutput out;
  slampred::Status status;
  if (options.workload == "paper-dense") {
    status = e2ebench::RunPaperDense(options, out);
  } else if (options.workload == "serve-open") {
    status = e2ebench::RunServeOpen(options, out);
  } else if (options.workload == "serve-closed") {
    status = e2ebench::RunServeClosed(options, out);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return Usage();
  }
  if (!status.ok()) {
    std::fprintf(stderr, "workload %s failed: %s\n", options.workload.c_str(),
                 status.ToString().c_str());
    return 1;
  }

  e2ebench::Metrics& m = out.metrics;
  m.Set("peak_rss_mib", e2ebench::RssMeter::RunPeakMib(), "MiB");
  m.Set("success_frac",
        out.attempted == 0
            ? 0.0
            : 1.0 - static_cast<double>(out.failed) /
                        static_cast<double>(out.attempted),
        "1");
  if (options.trace) {
    e2ebench::Tracer& tracer = e2ebench::Tracer::Global();
    const auto totals = tracer.Totals();
    std::size_t spans = 0;
    for (const auto& [name, total] : totals) {
      m.Set("self." + name + "_s", total.self_s, "s");
      spans += total.count;
    }
    m.Set("trace.spans", static_cast<double>(spans), "count");
    if (!options.trace_out.empty() &&
        !tracer.WriteJsonLines(options.trace_out)) {
      std::fprintf(stderr, "cannot write spans to %s\n",
                   options.trace_out.c_str());
      return 1;
    }
  }
  std::printf("workload %s seed %llu: %.1f s, %zu check(s), %zu failed\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              e2ebench::WallSeconds() - start, out.checks.count(),
              out.checks.failures().size());

  std::string json = "{\"correct\":";
  json += out.checks.all_ok() && out.checks.count() > 0 ? "true" : "false";
  json += ",\"attempted\":" + std::to_string(out.attempted);
  json += ",\"failed\":" + std::to_string(out.failed);
  json += ",\"failures\":[";
  for (std::size_t i = 0; i < out.checks.failures().size(); ++i) {
    if (i > 0) json += ",";
    json += JsonQuote(out.checks.failures()[i]);
  }
  json += "],\"metrics\":{";
  bool first = true;
  for (const auto& entry : m.entries()) {
    if (!first) json += ",";
    first = false;
    json += JsonQuote(entry.name) + ":{\"value\":" + JsonNumber(entry.value) +
            ",\"unit\":" + JsonQuote(entry.unit) + "}";
  }
  json += "}}";
  std::printf("E2EBENCH_RESULT %s\n", json.c_str());
  std::fflush(stdout);
  return out.checks.all_ok() && out.checks.count() > 0 ? 0 : 1;
}
