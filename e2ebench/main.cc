// amalur_e2ebench: the end-to-end benchmark binary. Usually started by
// run.py, which builds it first:
//
//   amalur_e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--trace-file <path>] [--toy] [--corrupt-reference]
//
// --trace 0 repeats the facade pipeline for the given seconds, prints each
// pass's timings on a `passes {...}` line and reports the end-to-end
// metrics; --trace 1 alternates untraced and traced passes, replays each
// layer's calls under spans and reports the per-layer metrics. Both check
// every output; the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}, and the exit code is
// non-zero when any operation or check failed.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "common/parallel_for.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "cost/calibrator.h"
#include "e2ebench.h"

namespace amalur {
namespace e2ebench {
namespace {

/// Passes run in every measurement, however short `--seconds` is, so each
/// statistic has at least this many samples.
constexpr size_t kMinPasses = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_file;
  bool toy = false;
  bool corrupt_reference = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  std::map<std::string, std::string> values;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--toy") {
      args->toy = true;
    } else if (flag == "--corrupt-reference") {
      args->corrupt_reference = true;
    } else if (flag.rfind("--", 0) == 0 && i + 1 < argc) {
      values[flag.substr(2)] = argv[++i];
    } else {
      std::fprintf(stderr, "unexpected argument '%s'\n", flag.c_str());
      return false;
    }
  }
  for (const auto& [key, value] : values) {
    char* end = nullptr;
    if (key == "workload") {
      args->workload = value;
    } else if (key == "seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (key == "trace") {
      args->trace = value == "1";
      if (value != "0" && value != "1") return false;
    } else if (key == "trace-file") {
      args->trace_file = value;
    } else {
      std::fprintf(stderr, "unknown flag --%s\n", key.c_str());
      return false;
    }
    if (end != nullptr && *end != '\0') {
      std::fprintf(stderr, "bad value for --%s: '%s'\n", key.c_str(),
                   value.c_str());
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0.0;
}

/// Refuses environments that would change the program under test: the
/// thread count and the cost constants are pinned here, not inherited.
bool EnvironmentIsPinned() {
  for (const char* name : {"AMALUR_NUM_THREADS", cost::kCalibrationFileEnvVar}) {
    if (std::getenv(name) != nullptr) {  // NOLINT(concurrency-mt-unsafe)
      std::fprintf(stderr, "refusing to run: %s is set\n", name);
      return false;
    }
  }
  if (common::ThreadPool::Global()->parallelism() < kThreads) {
    std::fprintf(stderr, "refusing to run: the worker pool has %zu threads, "
                 "the benchmark pins %zu\n",
                 common::ThreadPool::Global()->parallelism(), kThreads);
    return false;
  }
  return true;
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Latency percentiles of the serving phase. The p99 is reported only
/// while at least ten samples lie beyond it.
void ServingMetrics(const std::vector<double>& latencies_s,
                    const std::vector<double>& rows_per_s,
                    std::vector<Metric>* metrics, const char* prefix) {
  const size_t n = latencies_s.size();
  const size_t beyond_p99 = n - std::min(n, (n * 99 + 99) / 100);
  if (n > 0) {
    std::printf("serving: %zu requests, %zu beyond the p99\n", n, beyond_p99);
  }
  const std::string p = prefix;
  metrics->push_back({p + "p50_us", "us", Quantile(latencies_s, 0.50) * 1e6});
  metrics->push_back({p + "p99_us", "us",
                      beyond_p99 >= 10 ? Quantile(latencies_s, 0.99) * 1e6
                                       : 0.0});
  metrics->push_back({p + "rows_per_s", "rows/s", Median(rows_per_s)});
}

/// Serves the deployed model from `serve_clients` closed-loop clients.
void Serve(const Scenario& scenario, const PipelineRun& run, uint64_t seed,
           bool corrupt_reference, OpCounter* ops,
           std::vector<double>* latencies_s, std::vector<double>* rows_per_s) {
  Result<la::DenseMatrix> expected = run.model.Predict();
  if (!ops->Record(expected.ok(), "Predict: " + expected.status().ToString())) {
    return;
  }
  if (corrupt_reference) {
    for (size_t i = 0; i < expected->rows(); ++i) {
      expected->At(i, 0) = std::nextafter(expected->At(i, 0), 1e300);
    }
  }
  const ServingResult served =
      RunServing(*run.deployed, *expected, scenario.serve_clients,
                 scenario.requests_per_client, seed);
  ops->RecordMany(served.latencies_s.size(), served.failed_requests,
                  "PredictBatch requests");
  ops->Record(served.mismatched_scores == 0,
              "served scores vs Predict(): " +
                  std::to_string(served.mismatched_scores) + " differ");
  latencies_s->insert(latencies_s->end(), served.latencies_s.begin(),
                      served.latencies_s.end());
  rows_per_s->push_back(static_cast<double>(served.rows) / served.wall_s);
}

/// Prints every per-pass sample as one JSON line, `passes {"name": [...]}`,
/// so run.py can pool the passes of several processes before taking their
/// statistics.
void PrintPasses(const std::map<std::string, std::vector<double>>& samples) {
  std::printf("passes {");
  const char* separator = "";
  for (const auto& [name, values] : samples) {
    std::printf("%s\"%s\": [", separator, name.c_str());
    for (size_t i = 0; i < values.size(); ++i) {
      std::printf("%s%.17g", i == 0 ? "" : ", ", values[i]);
    }
    std::printf("]");
    separator = ", ";
  }
  std::printf("}\n");
}

/// The pinned settings, as the pipeline reports them back.
void CheckPinned(const PipelineRun& run, OpCounter* ops) {
  const core::TrainOutcome& outcome = run.model.outcome();
  std::printf("plan: %s\n", run.model.plan().explanation.c_str());
  std::printf("cost constants: %s\n", cost::ResolveCalibration().source.c_str());
  ops->Record(outcome.threads_used == kThreads,
              "Train ran with " + std::to_string(outcome.threads_used) +
                  " threads, pinned " + std::to_string(kThreads));
}

std::vector<Metric> MeasureEndToEnd(const Scenario& scenario, const Args& args,
                                    OpCounter* ops) {
  std::map<std::string, std::vector<double>> samples;
  std::vector<double> latencies_s, rows_per_s;
  PipelineRun run;
  bool completed = false;
  Stopwatch budget;
  for (size_t pass = 0;
       pass < kMinPasses || budget.ElapsedSeconds() < args.seconds; ++pass) {
    run = PipelineRun();  // one pass's state alive at a time
    completed = RunPipeline(scenario, true, nullptr, ops, &run);
    if (!completed) break;
    samples["setup_s"].push_back(Median(run.setup_s));
    samples["integrate_s"].push_back(run.integrate_s);
    samples["train_s"].insert(samples["train_s"].end(), run.train_s.begin(),
                              run.train_s.end());
    samples["train_serial_s"].push_back(run.train_serial_s);
    samples["pipeline_s"].push_back(run.pipeline_s());
    if (scenario.serve_clients > 0) {
      Serve(scenario, run, args.seed + pass, args.corrupt_reference, ops,
            &latencies_s, &rows_per_s);
    }
  }
  const double peak_rss_mb = PeakRssMb();
  // The checks run on the last pass whatever failed before it (a serving
  // mismatch, say), so each can show its own failure.
  if (completed) {
    CheckPinned(run, ops);
    CheckOutputs(scenario, run, args.corrupt_reference, ops);
  }
  std::printf("passes: %zu in %.2f s\n", samples["pipeline_s"].size(),
              budget.ElapsedSeconds());
  PrintPasses(samples);

  // On a shared host, other tenants slow whole stretches of passes by up
  // to 1.7x, and how much of a run they cover varies from run to run, so
  // a median over passes moves with the host. Interference only adds
  // time: the fastest pass is the program's own speed (train_s: see
  // kTrainQuantile). A pass's set-up time is the median of its set-ups,
  // which lies among the warm ones; each of a pass's repeated Trains is a
  // train_s sample of its own.
  std::vector<Metric> metrics;
  for (const std::string name : {"setup_s", "integrate_s", "train_s",
                                 "train_serial_s", "pipeline_s"}) {
    const std::vector<double>& values = samples[name];
    metrics.push_back({name, "s",
                       name == "train_s" ? Quantile(values, kTrainQuantile)
                                         : Fastest(values)});
    std::printf("%s: reported %.6f s, fastest %.6f s, median %.6f s over "
                "%zu samples\n",
                name.c_str(), metrics.back().value, Fastest(values),
                Median(values), values.size());
  }
  metrics.push_back({"peak_rss_mb", "MB", peak_rss_mb});
  // Only some workloads have these, so run.py prints them but leaves them
  // out of its result line (whose metrics exist on every workload).
  if (scenario.serve_clients > 0) {
    ServingMetrics(latencies_s, rows_per_s, &metrics, "serve_");
  }
  if (completed &&
      run.model.outcome().strategy_used == core::ExecutionStrategy::kFederate) {
    metrics.push_back({"wire_bytes", "B",
                       static_cast<double>(
                           run.model.outcome().bytes_transferred)});
  }
  return metrics;
}

std::vector<Metric> MeasureTraced(const Scenario& scenario, const Args& args,
                                  OpCounter* ops) {
  Tracer tracer(scenario.name + "-seed" + std::to_string(args.seed));
  std::vector<double> untraced, traced;
  std::vector<double> latencies_s, rows_per_s;
  std::map<std::string, std::vector<double>> samples;
  std::vector<Metric> layout;
  PipelineRun run;
  bool completed = false;
  Stopwatch budget;
  for (size_t pass = 0; pass == 0 || budget.ElapsedSeconds() < args.seconds;
       ++pass) {
    run = PipelineRun();
    completed = RunPipeline(scenario, false, nullptr, ops, &run);
    if (!completed) break;
    untraced.push_back(run.pipeline_s());
    run = PipelineRun();
    {
      ScopedSpan root(&tracer, "pipeline");
      completed = RunPipeline(scenario, false, &tracer, ops, &run);
    }
    if (!completed) break;
    traced.push_back(run.pipeline_s());
    layout = MeasureLayers(scenario, run, &tracer, ops);
    for (const Metric& metric : layout) {
      samples[metric.name].push_back(metric.value);
    }
    if (scenario.serve_clients > 0) {
      Serve(scenario, run, args.seed + pass, args.corrupt_reference, ops,
            &latencies_s, &rows_per_s);
    }
  }
  if (completed) {
    CheckPinned(run, ops);
    CheckOutputs(scenario, run, args.corrupt_reference, ops);
  }
  std::printf("passes: %zu in %.2f s\n", traced.size(), budget.ElapsedSeconds());

  std::vector<Metric> metrics;
  for (const Metric& metric : layout) {
    metrics.push_back({metric.name, metric.unit, Median(samples[metric.name])});
  }
  // Fastest passes, as the untraced run reports pipeline_s.
  const double untraced_s = Fastest(untraced);
  const double traced_s = Fastest(traced);
  metrics.push_back({"trace.pipeline_s", "s", traced_s});
  metrics.push_back({"trace.overhead_s", "s", traced_s - untraced_s});
  std::printf("tracing overhead: traced pipeline %.4f s - untraced %.4f s = "
              "%+.4f s\n",
              traced_s, untraced_s, traced_s - untraced_s);
  ServingMetrics(latencies_s, rows_per_s, &metrics, "serving.");
  const bool federated = completed &&
                         run.model.outcome().strategy_used ==
                             core::ExecutionStrategy::kFederate;
  metrics.push_back(
      {"federated.wire_bytes", "B",
       federated ? static_cast<double>(run.model.outcome().bytes_transferred)
                 : 0.0});

  if (!args.trace_file.empty()) {
    const Status written = tracer.WriteChromeJson(args.trace_file);
    ops->Record(written.ok(), "trace file: " + written.ToString());
    std::printf("trace: %zu spans written to %s\n", tracer.spans().size(),
                args.trace_file.c_str());
  }
  return metrics;
}

void PrintResult(const std::vector<Metric>& metrics, const OpCounter& ops) {
  for (const Metric& metric : metrics) {
    std::printf("%-34s %16.6f %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("operations: %zu attempted, %zu failed\n", ops.attempted(),
              ops.failed());
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              ops.failed() == 0 ? "true" : "false", ops.attempted(),
              ops.failed());
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: amalur_e2ebench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-file <path>] [--toy] "
                 "[--corrupt-reference]\n");
    return 2;
  }
  if (!EnvironmentIsPinned()) return 2;
  Result<Scenario> scenario = MakeScenario(args.workload, args.seed, args.toy);
  if (!scenario.ok()) {
    std::fprintf(stderr, "%s\n", scenario.status().ToString().c_str());
    return 2;
  }
  common::ScopedNumThreads threads(kThreads);
  std::printf("workload %s, seed %llu, %.1f s, trace %d, %zu threads%s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, kThreads,
              args.toy ? ", toy sizes" : "");
  OpCounter ops;
  const std::vector<Metric> metrics =
      args.trace ? MeasureTraced(*scenario, args, &ops)
                 : MeasureEndToEnd(*scenario, args, &ops);
  PrintResult(metrics, ops);
  return ops.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace e2ebench
}  // namespace amalur

int main(int argc, char** argv) { return amalur::e2ebench::Main(argc, argv); }
