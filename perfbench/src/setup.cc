// Workload table, pipeline construction and small shared helpers.

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.h"
#include "data/synthetic.h"
#include "eval/experiment_defaults.h"
#include "util/check.h"
#include "util/random.h"

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

namespace {

std::vector<Workload> MakeWorkloads() {
  std::vector<Workload> out;
  {
    // Cache-dominated: ~15 recommends per user between two observes.
    Workload w;
    w.name = "hot-read";
    w.scale = 0.5;
    w.traffic = Traffic::kHotRead;
    w.fixed_rate = 20000;
    w.setup_train_steps = 200000;
    w.offline_train_steps = 200000;
    w.offline_share = 0.25;
    out.push_back(w);
  }
  {
    // Every recommend misses: session, window sync, scoring and selection.
    Workload w;
    w.name = "miss-write";
    w.lastfm_profile = true;
    w.scale = 8;
    w.traffic = Traffic::kMissWrite;
    w.fixed_rate = 20000;
    w.setup_train_steps = 200000;
    w.offline_train_steps = 400000;
    w.offline_share = 0.25;
    out.push_back(w);
  }
  return out;
}

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  static const std::vector<Workload> workloads = MakeWorkloads();
  for (const Workload& w : workloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

core::TrainReport TrainFixed(const Pipeline& pipeline, int64_t steps,
                             int threads, uint64_t seed,
                             std::unique_ptr<core::TsPprModel>* model_out,
                             double* train_seconds) {
  core::TsPprConfig config = pipeline.model_config;
  config.seed = seed;
  auto model = core::TsPprModel::Create(pipeline.dataset->num_users(),
                                        pipeline.dataset->num_items(),
                                        pipeline.extractor->dimension(),
                                        config);
  RC_CHECK(model.ok()) << model.status();
  *model_out =
      std::make_unique<core::TsPprModel>(std::move(model).ValueOrDie());

  core::TrainOptions options;
  options.num_threads = threads;
  options.max_steps = steps;
  // A negative tolerance never triggers: every run does exactly `steps`.
  options.convergence_tolerance = -1.0;
  core::TsPprTrainer trainer(options);
  util::Rng rng(seed ^ 0x5DEECE66DULL);
  const int64_t start = NowNs();
  auto report = trainer.Train(*pipeline.training_set, model_out->get(), &rng);
  *train_seconds = (NowNs() - start) * 1e-9;
  RC_CHECK(report.ok()) << report.status();
  RC_CHECK(report.ValueOrDie().steps == steps)
      << "trainer stopped after " << report.ValueOrDie().steps << " of "
      << steps << " steps";
  return std::move(report).ValueOrDie();
}

void BuildTrainingSet(Pipeline* p) {
  sampling::TrainingSetOptions options;
  options.window_capacity = p->window_capacity;
  options.min_gap = p->min_gap;
  options.negatives_per_positive = p->negatives;
  auto training_set =
      sampling::TrainingSet::Build(*p->split, *p->extractor, options);
  RC_CHECK(training_set.ok()) << training_set.status();
  p->training_set = std::make_unique<sampling::TrainingSet>(
      std::move(training_set).ValueOrDie());
}

Pipeline BuildPipeline(const Workload& workload, uint64_t seed,
                       int64_t train_steps) {
  Pipeline p;
  p.seed = seed;
  data::SyntheticProfile profile =
      workload.lastfm_profile ? data::LastfmLikeProfile(workload.scale)
                              : data::GowallaLikeProfile(workload.scale);
  const eval::ExperimentDefaults defaults =
      workload.lastfm_profile ? eval::ExperimentDefaults::Lastfm()
                              : eval::ExperimentDefaults::Gowalla();
  profile.seed = seed * 0x9E3779B97F4A7C15ULL + 17;
  p.window_capacity = defaults.window_capacity;
  p.min_gap = defaults.min_gap;

  int64_t t0 = NowNs();
  {
    auto generated = data::SyntheticTraceGenerator(profile).Generate();
    RC_CHECK(generated.ok()) << generated.status();
    p.dataset = std::make_unique<data::Dataset>(
        std::move(generated).ValueOrDie().FilterByMinTrainLength(
            defaults.train_fraction, defaults.min_train_events));
    RC_CHECK(p.dataset->num_users() > 0) << "profile produced no users";
    auto split = data::TrainTestSplit::Temporal(p.dataset.get(),
                                                defaults.train_fraction);
    RC_CHECK(split.ok()) << split.status();
    p.split =
        std::make_unique<data::TrainTestSplit>(std::move(split).ValueOrDie());
  }
  int64_t t1 = NowNs();
  p.generate_s = (t1 - t0) * 1e-9;

  {
    auto table = features::StaticFeatureTable::Compute(
        *p.split, defaults.window_capacity);
    RC_CHECK(table.ok()) << table.status();
    p.table = std::make_unique<features::StaticFeatureTable>(
        std::move(table).ValueOrDie());
    p.extractor = std::make_unique<features::FeatureExtractor>(
        p.table.get(), features::FeatureConfig::AllFeatures());
  }
  t0 = NowNs();
  p.table_s = (t0 - t1) * 1e-9;

  p.negatives = defaults.negatives;
  BuildTrainingSet(&p);
  t1 = NowNs();
  p.sampling_s = (t1 - t0) * 1e-9;

  p.model_config.latent_dim = defaults.latent_dim;
  p.model_config.gamma = defaults.gamma;
  p.model_config.lambda = defaults.lambda;
  // The serving model is fitted serially: bit-reproducible for the seed,
  // and its time does not hinge on where the host places Hogwild workers
  // that meet at a barrier every few thousand steps.
  TrainFixed(p, train_steps, /*threads=*/1, seed, &p.model, &p.train_s);
  p.recommender =
      std::make_shared<core::TsPprRecommender>(p.model.get(), p.extractor.get());
  return p;
}

namespace {

cpu_set_t g_load_cpu;
cpu_set_t g_other_cpus;
bool g_have_load_cpu = false;

}  // namespace

void ReserveLoadCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  if (CPU_COUNT(&allowed) < 2) return;
  CPU_ZERO(&g_load_cpu);
  g_other_cpus = allowed;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &g_load_cpu);
      CPU_CLR(cpu, &g_other_cpus);
      break;
    }
  }
  g_have_load_cpu =
      sched_setaffinity(0, sizeof(g_other_cpus), &g_other_cpus) == 0;
}

void RotateLoadCpu() {
  if (!g_have_load_cpu) return;
  cpu_set_t allowed;
  CPU_OR(&allowed, &g_load_cpu, &g_other_cpus);
  int current = 0;
  while (!CPU_ISSET(current, &g_load_cpu)) ++current;
  int next = current;
  do {
    next = (next + 1) % CPU_SETSIZE;
  } while (!CPU_ISSET(next, &allowed));
  CPU_ZERO(&g_load_cpu);
  CPU_SET(next, &g_load_cpu);
  g_other_cpus = allowed;
  CPU_CLR(next, &g_other_cpus);
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    const pid_t tid = static_cast<pid_t>(
        std::strtol(task.path().filename().c_str(), nullptr, 10));
    sched_setaffinity(tid, sizeof(g_other_cpus), &g_other_cpus);
  }
}

void WakeHost() {
  constexpr int64_t kSliceNs = 50'000'000;
  constexpr int64_t kMaxNs = 3'000'000'000;
  const int threads =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  std::atomic<int> awake_in_slice{0};
  std::atomic<bool> done{false};
  const int64_t start = NowNs();
  auto spin = [&] {
    while (!done.load()) {
      timespec cpu0{}, cpu1{};
      clock_gettime(CLOCK_THREAD_CPUTIME_ID, &cpu0);
      const int64_t wall0 = NowNs();
      while (NowNs() - wall0 < kSliceNs) {
      }
      clock_gettime(CLOCK_THREAD_CPUTIME_ID, &cpu1);
      const int64_t cpu = (cpu1.tv_sec - cpu0.tv_sec) * 1'000'000'000LL +
                          (cpu1.tv_nsec - cpu0.tv_nsec);
      if (cpu * 100 >= (NowNs() - wall0) * 95) ++awake_in_slice;
    }
  };
  std::vector<std::thread> spinners;
  for (int i = 0; i < threads; ++i) spinners.emplace_back(spin);
  while (NowNs() - start < kMaxNs) {
    awake_in_slice = 0;
    std::this_thread::sleep_for(std::chrono::nanoseconds(kSliceNs * 2));
    if (awake_in_slice.load() >= 2 * threads) break;
  }
  done = true;
  for (std::thread& t : spinners) t.join();
}

LoadCpuScope::LoadCpuScope(bool pin_caller) {
  if (!g_have_load_cpu) return;
  cpu_set_t spin_on = g_other_cpus;
  if (pin_caller) {
    pinned_ = sched_setaffinity(0, sizeof(g_load_cpu), &g_load_cpu) == 0;
    if (!pinned_) return;
  } else {
    CPU_OR(&spin_on, &spin_on, &g_load_cpu);
  }
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &spin_on)) continue;
    idlers_.emplace_back([this, cpu] {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      sched_param param{};
      // Only a SCHED_IDLE spinner yields to every other thread at once.
      if (sched_setaffinity(0, sizeof(one), &one) != 0 ||
          sched_setscheduler(0, SCHED_IDLE, &param) != 0) {
        ++started_;
        return;
      }
      ++spinning_;
      ++started_;
      while (!stop_.load(std::memory_order_relaxed)) {
      }
    });
  }
  while (started_.load() < static_cast<int>(idlers_.size())) {
  }
}

LoadCpuScope::~LoadCpuScope() {
  stop_.store(true);
  for (std::thread& t : idlers_) t.join();
  if (pinned_) sched_setaffinity(0, sizeof(g_other_cpus), &g_other_cpus);
}

double RssMb() {
  // Hand freed heap back first, so the figure is live memory, not what the
  // allocator kept from earlier phases.
  malloc_trim(0);
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  for (auto& item : items_) {
    if (item.first == name) {
      item.second = {value, unit};
      return;
    }
  }
  items_.push_back({name, {value, unit}});
}

std::string Metrics::ToJson() const {
  std::string out = "{";
  char buffer[64];
  for (size_t i = 0; i < items_.size(); ++i) {
    const double value = items_[i].second.first;
    RC_CHECK(std::isfinite(value)) << "metric " << items_[i].first
                                   << " is not finite";
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    out += (i ? ", \"" : "\"") + items_[i].first + "\": {\"value\": " +
           buffer + ", \"unit\": \"" + items_[i].second.second + "\"}";
  }
  return out + "}";
}

Percentile PercentileOf(std::vector<double> samples, double q) {
  Percentile p;
  p.count = static_cast<int64_t>(samples.size());
  if (samples.empty()) return p;
  std::sort(samples.begin(), samples.end());
  // Nearest rank: the smallest value with at least q of the sample at or
  // below it.
  size_t rank = static_cast<size_t>(std::ceil(q * samples.size()));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  p.value = samples[rank - 1];
  p.beyond = static_cast<int64_t>(
      samples.end() - std::upper_bound(samples.begin(), samples.end(), p.value));
  return p;
}

double Median(std::vector<double> values) {
  return PercentileOf(std::move(values), 0.5).value;
}

uint64_t Fingerprint(const std::vector<core::RankedItem>& items) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
    h ^= h >> 29;
  };
  for (const core::RankedItem& item : items) {
    uint64_t bits = 0;
    std::memcpy(&bits, &item.score, sizeof(bits));
    mix(static_cast<uint64_t>(item.item));
    mix(bits);
    mix(static_cast<uint64_t>(static_cast<uint32_t>(item.gap)) << 32 |
        static_cast<uint32_t>(item.count_in_window));
  }
  mix(items.size());
  return h;
}

}  // namespace perfbench
