// The offline workload: TsPprTrainer::Train on a fixed step budget, then
// eval::Evaluator over every test segment.

#include <cstdio>

#include "bench.h"
#include "eval/evaluator.h"
#include "util/check.h"

namespace perfbench {

OfflineCycle RunOfflineCycle(const Pipeline& pipeline, const Workload& workload,
                             int train_threads, bool measure_latency) {
  OfflineCycle out;
  std::unique_ptr<core::TsPprModel> model;
  const core::TrainReport report =
      TrainFixed(pipeline, workload.offline_train_steps, train_threads,
                 pipeline.seed + 1, &model, &out.train_s);
  out.steps = report.steps;
  out.checks = static_cast<int64_t>(report.curve.size());

  core::TsPprRecommender recommender(model.get(), pipeline.extractor.get());
  eval::EvalOptions options;
  options.window_capacity = pipeline.window_capacity;
  options.min_gap = pipeline.min_gap;
  options.num_threads = kEvalThreads;
  options.measure_latency = measure_latency;
  eval::Evaluator evaluator(pipeline.split.get(), options);
  // The same model is evaluated several times: its throughput is sampled
  // more often than the fit that precedes it.
  eval::AccuracyResult accuracy;
  for (int i = 0; i < kEvaluationsPerCycle; ++i) {
    const int64_t start = NowNs();
    auto result = evaluator.Evaluate(&recommender);
    out.evaluate_runs_s.push_back((NowNs() - start) * 1e-9);
    RC_CHECK(result.ok()) << result.status();
    accuracy = std::move(result).ValueOrDie();
  }
  out.evaluate_s = Median(out.evaluate_runs_s);
  RC_CHECK(accuracy.num_instances > 0) << "no evaluation instances";
  out.instances = accuracy.num_instances;
  out.candidates_mean = accuracy.mean_candidates;
  out.score_us_mean = accuracy.mean_score_latency_ms * 1e3;
  out.maap10 = accuracy.MaapAt(10);
  return out;
}

void OfflineResult::Add(const OfflineCycle& cycle, double wall_s) {
  std::fprintf(stderr, "cycle %d: train %.3fs (%.0f quads/s), evaluate",
               cycles, cycle.train_s,
               static_cast<double>(cycle.steps) / cycle.train_s);
  for (double s : cycle.evaluate_runs_s) {
    std::fprintf(stderr, " %.0f", static_cast<double>(cycle.instances) / s);
  }
  std::fprintf(stderr, " instances/s\n");
  all_.push_back(cycle);
  last = cycle;
  seconds += wall_s;
  ++cycles;
}

void OfflineResult::Summarize() {
  std::vector<double> quads, instances, maap, train, evaluate, score;
  for (const OfflineCycle& c : all_) {
    quads.push_back(static_cast<double>(c.steps) / c.train_s);
    for (double s : c.evaluate_runs_s) {
      instances.push_back(static_cast<double>(c.instances) / s);
    }
    maap.push_back(c.maap10);
    train.push_back(c.train_s);
    evaluate.push_back(c.evaluate_s);
    score.push_back(c.score_us_mean);
  }
  // What the host's other tenants leave of the machine changes for seconds
  // at a time, moving throughput between levels up to half apart; the
  // median follows the level that holds most of the run, where an upper
  // quantile would sit on the edge between two levels.
  quads_per_s = Median(quads);
  instances_per_s = Median(instances);
  maap10 = Median(maap);
  train_s = Median(train);
  evaluate_s = Median(evaluate);
  score_us_mean = Median(score);
}

}  // namespace perfbench
