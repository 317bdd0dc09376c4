#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "common/parallel_for.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "e2ebench.h"

namespace amalur {
namespace e2ebench {

bool OpCounter::Record(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  }
  return ok;
}

void OpCounter::RecordMany(size_t attempted, size_t failed,
                           const std::string& what) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed > 0) {
    std::fprintf(stderr, "FAILED: %zu of %zu %s\n", failed, attempted,
                 what.c_str());
  }
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Fastest(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::min_element(values.begin(), values.end());
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

bool RunPipeline(const Scenario& scenario, bool end_to_end, Tracer* tracer,
                 OpCounter* ops, PipelineRun* run) {
  // Set-up: a fresh system, the silos registered in its catalog, and the
  // worker pool in place. The pool's threads are started once per process,
  // before the first timed set-up; waking them is left to the timed calls
  // that use them, since wake-up latency is the noisiest part of a set-up
  // measured in microseconds. Set-up is short, so it is timed
  // kSetupRepeats times; the pipeline continues on the last system.
  for (size_t i = 0; i < kSetupRepeats; ++i) {
    run->system.reset();
    ScopedSpan span(tracer, "core.setup");
    Stopwatch watch;
    run->system = std::make_unique<core::Amalur>(SystemOptions());
    for (const core::SourceEntry& source : scenario.sources) {
      const Status status = run->system->catalog()->RegisterSource(source);
      if (!ops->Record(status.ok(), "register " + source.name + ": " +
                                        status.ToString())) {
        return false;
      }
    }
    common::ThreadPool::Global();
    run->setup_s.push_back(watch.ElapsedSeconds());
  }
  {
    ScopedSpan span(tracer, "core.integrate");
    Stopwatch watch;
    Result<core::IntegrationHandle> integration =
        run->system->Integrate(scenario.spec);
    run->integrate_s = watch.ElapsedSeconds();
    if (!ops->Record(integration.ok(),
                     "Integrate: " + integration.status().ToString())) {
      return false;
    }
    run->integration = *std::move(integration);
  }
  const size_t trains = end_to_end ? scenario.train_repeats : 1;
  for (size_t i = 0; i < trains; ++i) {
    ScopedSpan span(tracer, "core.train");
    Stopwatch watch;
    Result<core::ModelHandle> model =
        run->system->Train(run->integration, scenario.request);
    run->train_s.push_back(watch.ElapsedSeconds());
    if (!ops->Record(model.ok(), "Train: " + model.status().ToString())) {
      return false;
    }
    run->model = *std::move(model);
  }
  if (end_to_end) {
    ScopedSpan span(tracer, "core.train_serial");
    core::TrainRequest serial = scenario.request;
    serial.num_threads = 1;
    Stopwatch watch;
    Result<core::ModelHandle> model =
        run->system->Train(run->integration, serial);
    run->train_serial_s = watch.ElapsedSeconds();
    if (!ops->Record(model.ok(),
                     "Train (1 thread): " + model.status().ToString())) {
      return false;
    }
  }
  if (scenario.deploys()) {
    ScopedSpan span(tracer, "serving.deploy");
    run->registry = std::make_unique<serving::ModelRegistry>();
    Stopwatch watch;
    auto deployed = run->model.Deploy(run->registry.get(), scenario.name);
    run->deploy_s = watch.ElapsedSeconds();
    if (!ops->Record(deployed.ok(),
                     "Deploy: " + deployed.status().ToString())) {
      return false;
    }
    run->deployed = *std::move(deployed);
  }
  return true;
}

ServingResult RunServing(const serving::DeployedModel& model,
                         const la::DenseMatrix& expected, size_t clients,
                         size_t requests, uint64_t seed) {
  struct ClientLog {
    std::vector<double> latencies_s;
    size_t failed = 0;
    size_t mismatched = 0;
  };
  std::vector<ClientLog> logs(clients);
  const size_t rows = model.rows();
  Stopwatch wall;
  // One pool chunk per client, so the clients run on the pool's threads
  // and the process never holds more threads than the pinned count. A
  // client's own PredictBatch calls are nested in its chunk and therefore
  // run serially: the clients themselves are the parallelism.
  common::ScopedNumThreads width(clients);
  common::ParallelForChunks(0, clients, 1, [&](size_t c, size_t, size_t) {
    Rng rng(seed * 1000003 + c);
    ClientLog& log = logs[c];
    log.latencies_s.reserve(requests);
    std::vector<serving::RowRef> batch(kBatchRows);
    for (size_t r = 0; r < requests; ++r) {
      for (serving::RowRef& ref : batch) ref.row = rng.NextUint64(rows);
      Stopwatch request;
      Result<la::DenseMatrix> scores = model.PredictBatch(batch);
      log.latencies_s.push_back(request.ElapsedSeconds());
      if (!scores.ok() || scores->rows() != kBatchRows) {
        ++log.failed;
        continue;
      }
      for (size_t j = 0; j < kBatchRows; ++j) {
        const double want = expected.At(batch[j].row, 0);
        const double got = scores->At(j, 0);
        if (std::memcmp(&want, &got, sizeof(double)) != 0) ++log.mismatched;
      }
    }
  });

  ServingResult result;
  result.wall_s = wall.ElapsedSeconds();
  for (const ClientLog& log : logs) {
    result.latencies_s.insert(result.latencies_s.end(),
                              log.latencies_s.begin(), log.latencies_s.end());
    result.failed_requests += log.failed;
    result.mismatched_scores += log.mismatched;
  }
  result.rows = (result.latencies_s.size() - result.failed_requests) *
                kBatchRows;
  return result;
}

}  // namespace e2ebench
}  // namespace amalur
