// Shared declarations of the repository benchmark (perfbench/run.py drives
// the binary; perfbench/README.md describes the method). One run = one
// workload at one seed:
//
//   setup    generate the synthetic trace, fit TS-PPR on a fixed SGD step
//            budget, construct the service and prime it (timed several
//            times; setup_s is the median);
//   serve    an open-loop generator drives serve::RecommendService at the
//            workload's fixed rate, in chunks interleaved with
//   offline  cycles of TsPprTrainer::Train on a fixed step budget with the
//            convergence stop disabled, then eval::Evaluator over every
//            test segment.
//
// With --trace 1 the serve chunks alternate with a replay of the same
// requests through the serve layer's public classes, timed layer by layer
// from the benchmark's own code, and capacity probes run in between.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/recommendation_session.h"
#include "core/ts_ppr_model.h"
#include "core/ts_ppr_recommender.h"
#include "core/ts_ppr_trainer.h"
#include "data/dataset.h"
#include "data/split.h"
#include "features/feature_extractor.h"
#include "features/static_features.h"
#include "sampling/training_set.h"

namespace perfbench {

using namespace reconsume;

int64_t NowNs();
/// CPU time of every thread of this process.
int64_t ProcessCpuNs();

/// \brief Request mix a serve phase generates.
enum class Traffic {
  /// Uniform over the first kHotUsers users; one Observe (a re-consumption
  /// of an item from the user's own sequence) per kObserveEvery requests.
  kHotRead,
  /// Zipf(1)-distributed visits over every user; each visit is
  /// Observe(next item of the user's own sequence, cyclically) followed by
  /// Recommend.
  kMissWrite,
};
inline constexpr int kHotUsers = 64;
inline constexpr int kObserveEvery = 16;
/// Every Recommend asks for the top 10.
inline constexpr int kTopN = 10;

/// \brief Everything that distinguishes one workload from another.
struct Workload {
  std::string name;
  bool lastfm_profile = false;  ///< false: Gowalla-like profile
  double scale = 1.0;
  Traffic traffic = Traffic::kHotRead;
  double fixed_rate = 10000;        ///< offered req/s of the measured phase
  int64_t setup_train_steps = 0;    ///< SGD budget of the serving model's fit
  int64_t offline_train_steps = 0;  ///< SGD budget of each offline fit
  double offline_share = 0.2;       ///< share of --seconds spent offline
};

const Workload* FindWorkload(const std::string& name);

/// Thread budget (4 cores): 2 service workers and the load thread while
/// serving; 2 Hogwild workers and 2 evaluator threads offline.
inline constexpr int kServeWorkers = 2;
inline constexpr int kTrainThreads = 2;
inline constexpr int kEvalThreads = 2;
/// Evaluate calls per offline cycle, on the cycle's fitted model.
inline constexpr int kEvaluationsPerCycle = 6;
/// Latency limit of the capacity search, on the p99.
inline constexpr double kLatencyLimitUs = 1000.0;
/// A phase whose sender ran later than this (p99) did not keep schedule.
inline constexpr double kLatenessLimitUs = 200.0;

/// \brief The fitted pipeline, stage by stage (TsPpr::Fit's stages, kept
/// separate so each can be timed and the training set reused).
struct Pipeline {
  std::unique_ptr<data::Dataset> dataset;
  std::unique_ptr<data::TrainTestSplit> split;
  std::unique_ptr<features::StaticFeatureTable> table;
  std::unique_ptr<features::FeatureExtractor> extractor;
  std::unique_ptr<sampling::TrainingSet> training_set;
  std::unique_ptr<core::TsPprModel> model;
  std::shared_ptr<core::TsPprRecommender> recommender;
  core::TsPprConfig model_config;
  int window_capacity = 100;
  int min_gap = 10;
  int negatives = 1;  ///< sampled negatives per positive
  uint64_t seed = 0;

  // Stage wall times of the build, seconds.
  double generate_s = 0;
  double table_s = 0;
  double sampling_s = 0;
  double train_s = 0;
};

/// Runs every stage of the pipeline; the fit uses `train_steps` SGD steps.
Pipeline BuildPipeline(const Workload& workload, uint64_t seed,
                       int64_t train_steps);

/// Samples `pipeline`'s training set from its split, anew after a reset.
void BuildTrainingSet(Pipeline* pipeline);

/// Trains a fresh model on `pipeline`'s training set for exactly `steps` SGD
/// steps on `threads` workers (convergence stop disabled) and returns the
/// report; the Train call's wall time goes to `train_seconds`.
core::TrainReport TrainFixed(const Pipeline& pipeline, int64_t steps,
                             int threads, uint64_t seed,
                             std::unique_ptr<core::TsPprModel>* model_out,
                             double* train_seconds);

/// Splits the CPUs this process may use: the first goes to the load thread,
/// the rest to every other thread, which inherit the calling thread's mask
/// from here on. A worker the kernel wakes onto the spinning load thread's
/// CPU would otherwise wait out a scheduler slice (milliseconds). No-op with
/// fewer than two CPUs.
void ReserveLoadCpu();

/// Makes the next CPU the load CPU and moves every thread of the process,
/// service workers included, to the others. The host runs each virtual CPU
/// at its own speed, up to a quarter apart, and a thread tends to stay on
/// one CPU: rotating between rounds averages a run over all of them.
void RotateLoadCpu();

/// A VM that sat idle for a few seconds runs at a fraction of its speed for
/// about a second after it wakes. Spins one thread per core until a slice
/// gives each of them at least 95% of its wall time (at most 3 s).
void WakeHost();

/// \brief For its lifetime, pins the calling thread to the load CPU and
/// keeps every other CPU from halting with a SCHED_IDLE spinner, which any
/// runnable thread preempts. A halted virtual CPU wakes only when the host
/// schedules it again, which costs from microseconds to milliseconds
/// depending on the host's load; a spinning one wakes a worker at the
/// kernel's cost. No-op unless ReserveLoadCpu found a load CPU. With
/// `pin_caller` false the calling thread keeps its CPUs and every CPU gets
/// a spinner (offline stages, see KeepOfflineShare).
class LoadCpuScope {
 public:
  explicit LoadCpuScope(bool pin_caller = true);
  ~LoadCpuScope();
  LoadCpuScope(const LoadCpuScope&) = delete;
  LoadCpuScope& operator=(const LoadCpuScope&) = delete;

  /// CPUs this process keeps busy: the calling thread's plus each spinner
  /// that started.
  int busy_cpus() const { return 1 + spinning_.load(); }

 private:
  bool pinned_ = false;
  std::atomic<bool> stop_{false};
  std::atomic<int> spinning_{0};
  std::atomic<int> started_{0};
  std::vector<std::thread> idlers_;  ///< last: they use the atomics above
};

/// Resident set size of this process after returning freed heap, MB.
double RssMb();

/// \brief Named metrics with units, in insertion order.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  std::string ToJson() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

/// \brief Nearest-rank percentiles over a sample, with the sample size and
/// the count strictly beyond the percentile.
struct Percentile {
  double value = 0;
  int64_t count = 0;   ///< samples
  int64_t beyond = 0;  ///< samples greater than `value`
};
Percentile PercentileOf(std::vector<double> samples, double q);
double Median(std::vector<double> values);

/// \brief One served response, reduced to what the correctness gate needs.
struct ResponseRecord {
  data::UserId user = data::kInvalidUser;
  data::ItemId item = data::kInvalidItem;  ///< observes only
  int64_t epoch = -1;
  int64_t model_epoch = -1;
  uint64_t fingerprint = 0;  ///< items and score bits of a ranking
  bool observe = false;
  bool ok = false;
  bool degraded = false;
};

/// Hash of a ranking: item ids and the exact bits of every score.
uint64_t Fingerprint(const std::vector<core::RankedItem>& items);

/// \brief One offline cycle: Train on a fixed step budget, then Evaluate.
struct OfflineCycle {
  double train_s = 0;
  int64_t steps = 0;
  int64_t checks = 0;
  double evaluate_s = 0;  ///< median over `evaluate_runs_s`
  std::vector<double> evaluate_runs_s;  ///< one per Evaluate call
  int64_t instances = 0;
  double candidates_mean = 0;
  double score_us_mean = 0;  ///< only with `measure_latency`
  double maap10 = 0;
};
OfflineCycle RunOfflineCycle(const Pipeline& pipeline, const Workload& workload,
                             int train_threads, bool measure_latency);

/// \brief A run's offline cycles. Throughputs divide the work by the wall
/// time of each Train or Evaluate call; every figure is a median over the
/// calls.
struct OfflineResult {
  int cycles = 0;
  double seconds = 0;  ///< wall time spent in cycles
  double quads_per_s = 0;
  double instances_per_s = 0;
  double maap10 = 0;
  double train_s = 0;
  double evaluate_s = 0;
  double score_us_mean = 0;
  OfflineCycle last;
  void Add(const OfflineCycle& cycle, double wall_s);
  void Summarize();

 private:
  std::vector<OfflineCycle> all_;
};

/// \brief The correctness gate over every response one service instance
/// produces, fed a batch at a time. It rebuilds each user's applied history
/// from the observe records and replays it on a single-threaded
/// core::RecommendationSession per user; every ok, non-degraded ranking must
/// equal the reference bit for bit, under the model epoch the service
/// started with. A batch must hold every observe its rankings depend on
/// that no earlier batch held (true of whole phases: each waits for all of
/// its responses).
struct GateResult {
  int64_t rankings_checked = 0;
  int64_t mismatches = 0;
  std::string first_error;
  bool ok() const { return mismatches == 0 && first_error.empty(); }
};

class ReferenceGate {
 public:
  explicit ReferenceGate(const Pipeline& pipeline);
  ~ReferenceGate();
  ReferenceGate(const ReferenceGate&) = delete;
  ReferenceGate& operator=(const ReferenceGate&) = delete;

  /// Checks `records` and clears it.
  void Check(std::vector<ResponseRecord>* records);
  const GateResult& result() const { return result_; }

 private:
  struct User;
  const Pipeline& pipeline_;
  std::vector<std::unique_ptr<eval::Recommender>> scorers_;  ///< per thread
  std::vector<User> users_;
  GateResult result_;
};

}  // namespace perfbench
