// Open-loop load generation against the serving layer.
//
// A phase pre-generates its request stream and a Poisson arrival schedule,
// then one load thread spins until each request's scheduled time, submits
// it, and between sends polls the outstanding futures, timestamping each the
// moment it sees it ready. Latency runs from the scheduled send time, so a
// stall also charges the requests queued behind it.

#pragma once

#include <functional>
#include <future>
#include <string>
#include <vector>

#include "bench.h"
#include "serve/server.h"
#include "util/random.h"

namespace perfbench {

/// \brief One generated request.
struct Op {
  data::UserId user = data::kInvalidUser;
  data::ItemId item = data::kInvalidItem;  ///< observes only
  bool observe = false;
};

/// \brief Seeded request-stream generator for one service instance. Keeps
/// the per-user cursor of the miss-write mix across phases.
class TrafficGen {
 public:
  TrafficGen(const Workload& workload, const data::Dataset& dataset,
             uint64_t seed);
  Op Next();
  /// Every user the mix can draw.
  const std::vector<data::UserId>& users() const { return users_; }

 private:
  const Workload& workload_;
  const data::Dataset& dataset_;
  util::Rng rng_;
  std::vector<data::UserId> users_;  ///< hot pool, or Zipf rank order
  std::unique_ptr<util::AliasSampler> zipf_;
  std::vector<size_t> cursor_;  ///< next sequence position per user
  int64_t issued_ = 0;
  data::UserId pending_recommend_ = data::kInvalidUser;
};

/// \brief Statistics of one window of a phase, by scheduled send time.
struct WindowStats {
  int64_t failed = 0;
  double p50_us = 0;
  /// Median over the window's recommends alone: a phase that mixes cheap
  /// observes and dear recommends half and half has its overall median in
  /// the gap between the two.
  double recommend_p50_us = 0;
  double p99_us = 0;
  double lateness_p99_us = 0;
  /// Share of the window's CPU time the process was kept from (see
  /// RunPhase): what the host or another process took.
  double stolen_fraction = 0;
  /// Within the latency limit, nothing failed, generator on schedule.
  bool Passes() const {
    return failed == 0 && p99_us <= kLatencyLimitUs &&
           lateness_p99_us <= kLatenessLimitUs;
  }
  /// The sender fell behind schedule while the service refused nothing.
  bool GeneratorBound() const {
    return failed == 0 && lateness_p99_us > kLatenessLimitUs;
  }
};

/// \brief Outcome of one open-loop phase.
///
/// The phase is cut into equal windows of scheduled time. A shared host
/// takes CPU time in spells of milliseconds and only ever adds latency, so
/// the phase is judged on its quieter half: the half of its windows in which
/// the host took the least CPU time (chosen by that measurement, never by
/// the latencies). The phase's p50 and p99 are medians over those windows,
/// and it meets the capacity criteria when nothing in it failed and at least
/// half of them meet them.
struct PhaseResult {
  std::string name;
  double rate = 0;  ///< offered req/s
  int64_t sent = 0;
  int64_t ok = 0;
  int64_t failed = 0;    ///< not resolved ok: shed, deadline, error, hung
  int64_t hung = 0;      ///< never resolved (also counted in `failed`)
  int64_t degraded = 0;  ///< ok but from a degraded tier
  int64_t served_full = 0, served_cache = 0, served_stale = 0,
          served_fallback = 0;
  /// Requests resolved ok per second, first scheduled send to last ready.
  double achieved_rate = 0;
  std::vector<double> latency_us;   ///< scheduled send -> receiver sees ready
  std::vector<double> lateness_us;  ///< scheduled send -> actual submit
  /// Per sample: in a quiet window and within that window's p99. Means
  /// over these requests are not swamped by a few stalled ones.
  std::vector<uint8_t> typical;
  std::vector<WindowStats> windows;

  /// Percentiles over every sample of the phase.
  Percentile Latency(double q) const { return PercentileOf(latency_us, q); }
  Percentile Lateness(double q) const { return PercentileOf(lateness_us, q); }
  /// The quieter half of the windows (at least one).
  std::vector<WindowStats> QuietWindows() const;
  double QuietP50() const;  ///< median over quiet windows
  /// Median over quiet windows of their recommend medians.
  double QuietRecommendP50() const;
  double QuietP99() const;  ///< median over quiet windows
  int QuietPassing() const;
  double MeanStolen() const;  ///< over all windows
  /// No request failed and at least half of the quiet windows pass.
  bool Passes() const;
  /// Nothing failed, yet the phase does not pass because in most quiet
  /// windows the sender fell behind: no evidence about the service.
  bool GeneratorBound() const;
  std::string Summary() const;
  /// Mean of `samples` (one per request) over the typical requests.
  double TypicalMean(const std::vector<double>& samples) const;
  /// Folds a later phase at the same rate into this one; per-request
  /// samples only when `keep_samples`.
  void Append(const PhaseResult& other, bool keep_samples);
};

using SubmitFn =
    std::function<std::future<serve::ServeResponse>(const Op&, size_t index)>;
/// Called on the receiver thread for each response, in send order.
using ReadyFn = std::function<void(size_t index, const Op&,
                                   const serve::ServeResponse&, int64_t)>;

/// Runs one open-loop phase of `seconds` at `rate` req/s, cut into windows of
/// `window_s`. Every response is appended to `records` (when non-null) for
/// the correctness gate.
PhaseResult RunPhase(const std::string& name, TrafficGen* gen, double rate,
                     double seconds, double window_s, uint64_t seed,
                     const SubmitFn& submit,
                     std::vector<ResponseRecord>* records,
                     const ReadyFn& on_ready = nullptr);

/// ServeConfig used for every service the benchmark builds.
serve::ServeConfig MakeServeConfig(const Pipeline& pipeline);

/// Sends one Recommend per user the mix can draw and waits for them all: a
/// service primed this way has built every session it will serve.
/// Responses go to `records`; returns how many failed.
int64_t Prime(const SubmitFn& submit, const TrafficGen& gen,
              std::vector<ResponseRecord>* records);

/// Request index Prime passes to `submit`: outside any phase.
inline constexpr size_t kPrimeIndex = static_cast<size_t>(-1);

/// SubmitFn over a RecommendService.
SubmitFn ServiceSubmit(serve::RecommendService* service);

}  // namespace perfbench
