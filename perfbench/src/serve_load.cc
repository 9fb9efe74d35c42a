#include "serve_load.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

#include "util/check.h"

namespace perfbench {

namespace {

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

/// A future that has not resolved after this long counts as hung.
constexpr int64_t kHungNs = 10'000'000'000;
/// Outstanding futures polled per pass, oldest first.
constexpr size_t kPollDepth = 64;

ResponseRecord ToRecord(const Op& op, const serve::ServeResponse& response) {
  ResponseRecord record;
  record.user = op.user;
  record.item = op.item;
  record.observe = op.observe;
  record.epoch = response.epoch;
  record.model_epoch = response.model_epoch;
  record.ok = response.status.ok();
  record.degraded = response.degraded;
  if (record.ok && !op.observe) record.fingerprint = Fingerprint(response.items);
  return record;
}

}  // namespace

TrafficGen::TrafficGen(const Workload& workload, const data::Dataset& dataset,
                       uint64_t seed)
    : workload_(workload),
      dataset_(dataset),
      rng_(seed),
      cursor_(dataset.num_users(), 0) {
  const size_t num_users = dataset.num_users();
  if (workload.traffic == Traffic::kHotRead) {
    for (size_t u = 0; u < num_users && users_.size() < kHotUsers; ++u) {
      users_.push_back(static_cast<data::UserId>(u));
    }
  } else {
    // Zipf over a seeded ranking of every user: which users are hot
    // changes with the seed, the skew does not.
    for (size_t u = 0; u < num_users; ++u) {
      users_.push_back(static_cast<data::UserId>(u));
    }
    for (size_t i = users_.size(); i > 1; --i) {
      std::swap(users_[i - 1], users_[rng_.Uniform(i)]);
    }
    std::vector<double> weights(num_users);
    for (size_t r = 0; r < num_users; ++r) {
      weights[r] = 1.0 / static_cast<double>(r + 1);
    }
    zipf_ = std::make_unique<util::AliasSampler>(weights);
  }
  RC_CHECK(!users_.empty()) << "no users to drive";
}

Op TrafficGen::Next() {
  Op op;
  if (workload_.traffic == Traffic::kHotRead) {
    op.user = users_[rng_.Uniform(users_.size())];
    if (issued_++ % kObserveEvery == 0) {
      // Re-consume an item from the user's own history: repeat traffic.
      const auto& seq = dataset_.sequence(op.user);
      op.observe = true;
      op.item = seq[rng_.Uniform(seq.size())];
    }
    return op;
  }
  if (pending_recommend_ != data::kInvalidUser) {
    op.user = pending_recommend_;
    pending_recommend_ = data::kInvalidUser;
    return op;
  }
  op.user = users_[zipf_->Sample(&rng_)];
  const auto& seq = dataset_.sequence(op.user);
  size_t& cursor = cursor_[static_cast<size_t>(op.user)];
  op.observe = true;
  op.item = seq[cursor % seq.size()];
  ++cursor;
  pending_recommend_ = op.user;
  return op;
}

std::vector<WindowStats> PhaseResult::QuietWindows() const {
  std::vector<WindowStats> quiet = windows;
  std::stable_sort(quiet.begin(), quiet.end(),
                   [](const WindowStats& a, const WindowStats& b) {
                     return a.stolen_fraction < b.stolen_fraction;
                   });
  quiet.resize(std::min(quiet.size(), (quiet.size() + 1) / 2));
  return quiet;
}

double PhaseResult::QuietP50() const {
  std::vector<double> values;
  for (const WindowStats& w : QuietWindows()) values.push_back(w.p50_us);
  return Median(values);
}

double PhaseResult::QuietRecommendP50() const {
  std::vector<double> values;
  for (const WindowStats& w : QuietWindows()) {
    values.push_back(w.recommend_p50_us);
  }
  return Median(values);
}

double PhaseResult::QuietP99() const {
  std::vector<double> values;
  for (const WindowStats& w : QuietWindows()) values.push_back(w.p99_us);
  return Median(values);
}

int PhaseResult::QuietPassing() const {
  int passing = 0;
  for (const WindowStats& w : QuietWindows()) passing += w.Passes() ? 1 : 0;
  return passing;
}

double PhaseResult::MeanStolen() const {
  double total = 0;
  for (const WindowStats& w : windows) total += w.stolen_fraction;
  return windows.empty() ? 0.0 : total / static_cast<double>(windows.size());
}

bool PhaseResult::Passes() const {
  return failed == 0 &&
         2 * QuietPassing() >= static_cast<int>(QuietWindows().size());
}

bool PhaseResult::GeneratorBound() const {
  if (failed > 0 || Passes()) return false;
  int behind = 0;
  for (const WindowStats& w : QuietWindows()) {
    behind += w.GeneratorBound() ? 1 : 0;
  }
  return 2 * behind > static_cast<int>(QuietWindows().size());
}

void PhaseResult::Append(const PhaseResult& other, bool keep_samples) {
  sent += other.sent;
  ok += other.ok;
  failed += other.failed;
  hung += other.hung;
  degraded += other.degraded;
  served_full += other.served_full;
  served_cache += other.served_cache;
  served_stale += other.served_stale;
  served_fallback += other.served_fallback;
  windows.insert(windows.end(), other.windows.begin(), other.windows.end());
  if (!keep_samples) return;
  latency_us.insert(latency_us.end(), other.latency_us.begin(),
                    other.latency_us.end());
  lateness_us.insert(lateness_us.end(), other.lateness_us.begin(),
                     other.lateness_us.end());
  typical.insert(typical.end(), other.typical.begin(), other.typical.end());
}

double PhaseResult::TypicalMean(const std::vector<double>& samples) const {
  double total = 0;
  int64_t count = 0;
  for (size_t i = 0; i < samples.size(); ++i) {
    if (typical[i]) {
      total += samples[i];
      ++count;
    }
  }
  return count > 0 ? total / static_cast<double>(count) : 0.0;
}

std::string PhaseResult::Summary() const {
  char buffer[512];
  const Percentile p99 = Latency(0.99);
  std::snprintf(buffer, sizeof(buffer),
                "phase %-12s rate %7.0f/s sent %7lld ok %7lld failed %5lld "
                "degraded %lld | quiet windows %d/%zu pass, p50 %6.1fus p99 "
                "%7.1fus, host took %4.1f%% | all: p99 %7.1fus (n=%lld, %lld beyond) "
                "lateness p99 %6.1fus%s",
                name.c_str(), rate, static_cast<long long>(sent),
                static_cast<long long>(ok), static_cast<long long>(failed),
                static_cast<long long>(degraded), QuietPassing(),
                QuietWindows().size(), QuietP50(), QuietP99(),
                100 * MeanStolen(),
                p99.value, static_cast<long long>(p99.count),
                static_cast<long long>(p99.beyond), Lateness(0.99).value,
                GeneratorBound() ? " GENERATOR-BOUND" : "");
  return buffer;
}

PhaseResult RunPhase(const std::string& name, TrafficGen* gen, double rate,
                     double seconds, double window_s, uint64_t seed,
                     const SubmitFn& submit,
                     std::vector<ResponseRecord>* records,
                     const ReadyFn& on_ready) {
  PhaseResult result;
  result.name = name;
  result.rate = rate;
  const size_t n =
      std::max<size_t>(1, static_cast<size_t>(std::llround(rate * seconds)));

  // Poisson arrivals: independent users, each request on its own schedule.
  std::vector<Op> ops(n);
  std::vector<int64_t> offsets(n);
  util::Rng arrivals(seed);
  double t = 0;
  for (size_t i = 0; i < n; ++i) {
    ops[i] = gen->Next();
    t += -std::log1p(-arrivals.NextDouble()) / rate;
    offsets[i] = static_cast<int64_t>(t * 1e9);
  }

  const size_t num_windows =
      std::max<size_t>(1, static_cast<size_t>(seconds / window_s + 0.5));
  std::vector<size_t> window_of(n);
  for (size_t i = 0; i < n; ++i) {
    window_of[i] = std::min(
        num_windows - 1, static_cast<size_t>(offsets[i] * 1e-9 / window_s));
  }
  std::vector<int64_t> window_failed(num_windows, 0);
  const int64_t start = NowNs() + 2'000'000;
  auto start_ns = [start](int64_t offset) { return start + offset; };

  std::vector<std::future<serve::ServeResponse>> slots(n);
  std::vector<ResponseRecord> phase_records(records != nullptr ? n : 0);
  result.latency_us.resize(n);
  result.lateness_us.resize(n);

  // Takes one resolved (or hung) request off the books.
  auto finish = [&](size_t i, int64_t ready_ns, bool hung) {
    result.latency_us[i] =
        static_cast<double>(ready_ns - start_ns(offsets[i])) / 1e3;
    if (hung) {
      ++result.failed;
      ++result.hung;
      ++window_failed[window_of[i]];
      return;
    }
    const serve::ServeResponse response = slots[i].get();
    if (on_ready) on_ready(i, ops[i], response, ready_ns);
    if (!response.status.ok()) {
      ++result.failed;
      ++window_failed[window_of[i]];
    } else {
      ++result.ok;
      if (response.degraded) ++result.degraded;
      switch (response.served_by) {
        case serve::ServedBy::kFull: ++result.served_full; break;
        case serve::ServedBy::kCache: ++result.served_cache; break;
        case serve::ServedBy::kStaleCache: ++result.served_stale; break;
        case serve::ServedBy::kFallback: ++result.served_fallback; break;
        case serve::ServedBy::kNone: break;
      }
    }
    if (records != nullptr) phase_records[i] = ToRecord(ops[i], response);
  };

  // One thread sends and receives: it spins until the next request is due
  // and, while waiting, polls the oldest outstanding futures.
  //
  // With the load thread spinning on its CPU and LoadCpuScope's spinners
  // filling every idle moment of the others, this process is on CPU all the
  // time; CPU time it did not get in a window went to the host or to
  // another process, and is charged to that window.
  const LoadCpuScope pin;
  const int64_t window_ns = static_cast<int64_t>(window_s * 1e9);
  std::vector<int64_t> boundary_cpu(num_windows + 1, 0);
  size_t boundary = 0;
  std::vector<size_t> outstanding;
  size_t next = 0;
  int64_t last_ready = start;
  while (next < n || !outstanding.empty()) {
    const int64_t now = NowNs();
    while (boundary <= num_windows &&
           now >= start + static_cast<int64_t>(boundary) * window_ns) {
      boundary_cpu[boundary++] = ProcessCpuNs();
    }
    if (next < n && now >= start_ns(offsets[next])) {
      result.lateness_us[next] =
          static_cast<double>(now - start_ns(offsets[next])) / 1e3;
      slots[next] = submit(ops[next], next);
      outstanding.push_back(next);
      ++next;
      continue;
    }
    const size_t scan = std::min<size_t>(outstanding.size(), kPollDepth);
    size_t keep = 0;
    for (size_t k = 0; k < outstanding.size(); ++k) {
      const size_t i = outstanding[k];
      if (k < scan) {
        if (slots[i].wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
          last_ready = NowNs();
          finish(i, last_ready, false);
          continue;
        }
        if (k == 0 && now - start_ns(offsets[i]) > kHungNs) {
          finish(i, now, true);
          continue;
        }
      }
      outstanding[keep++] = i;
    }
    outstanding.resize(keep);
    CpuRelax();
  }
  // The last window may end after the last response: wait for its boundary.
  while (boundary <= num_windows) {
    const int64_t now = NowNs();
    if (now >= start + static_cast<int64_t>(boundary) * window_ns) {
      boundary_cpu[boundary++] = ProcessCpuNs();
    }
  }
  const double cpus = static_cast<double>(pin.busy_cpus());
  result.sent = static_cast<int64_t>(n);
  result.achieved_rate = static_cast<double>(result.ok) /
                         (static_cast<double>(last_ready - start) * 1e-9);
  if (records != nullptr) {
    records->insert(records->end(), phase_records.begin(), phase_records.end());
  }

  std::vector<std::vector<double>> latency(num_windows), lateness(num_windows),
      recommend(num_windows);
  for (size_t i = 0; i < n; ++i) {
    latency[window_of[i]].push_back(result.latency_us[i]);
    lateness[window_of[i]].push_back(result.lateness_us[i]);
    if (!ops[i].observe) recommend[window_of[i]].push_back(result.latency_us[i]);
  }
  for (size_t w = 0; w < num_windows; ++w) {
    WindowStats stats;
    stats.failed = window_failed[w];
    stats.p50_us = PercentileOf(latency[w], 0.5).value;
    stats.recommend_p50_us = PercentileOf(recommend[w], 0.5).value;
    stats.p99_us = PercentileOf(latency[w], 0.99).value;
    stats.lateness_p99_us = PercentileOf(lateness[w], 0.99).value;
    const double cpu_ns =
        static_cast<double>(boundary_cpu[w + 1] - boundary_cpu[w]);
    stats.stolen_fraction = std::max(
        0.0, 1.0 - cpu_ns / (cpus * static_cast<double>(window_ns)));
    result.windows.push_back(stats);
  }
  // Typical requests: in the quieter half of the windows, within their
  // window's p99.
  std::vector<double> stolen;
  for (const WindowStats& w : result.windows) {
    stolen.push_back(w.stolen_fraction);
  }
  const double quiet_limit = Median(stolen);
  result.typical.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const WindowStats& window = result.windows[window_of[i]];
    result.typical[i] = window.stolen_fraction <= quiet_limit &&
                        result.latency_us[i] <= window.p99_us;
  }
  return result;
}

serve::ServeConfig MakeServeConfig(const Pipeline& pipeline) {
  serve::ServeConfig config;
  config.num_threads = kServeWorkers;
  config.window_capacity = pipeline.window_capacity;
  config.min_gap = pipeline.min_gap;
  return config;
}

int64_t Prime(const SubmitFn& submit, const TrafficGen& gen,
              std::vector<ResponseRecord>* records) {
  std::vector<std::future<serve::ServeResponse>> futures;
  for (data::UserId user : gen.users()) {
    Op op;
    op.user = user;
    futures.push_back(submit(op, kPrimeIndex));
  }
  int64_t failed = 0;
  for (size_t i = 0; i < futures.size(); ++i) {
    Op op;
    op.user = gen.users()[i];
    const serve::ServeResponse response = futures[i].get();
    failed += response.status.ok() ? 0 : 1;
    records->push_back(ToRecord(op, response));
  }
  return failed;
}

SubmitFn ServiceSubmit(serve::RecommendService* service) {
  return [service](const Op& op, size_t) {
    return op.observe ? service->Observe(op.user, op.item)
                      : service->Recommend(op.user, kTopN);
  };
}

}  // namespace perfbench
