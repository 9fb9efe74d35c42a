// perfbench: one workload, one seed, one JSON result line.
//
//   perfbench --workload hot-read|miss-write|train-eval --seed N
//             --seconds S --trace 0|1 [--spans-out FILE]
//             [--maap-expected X]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// The last line of standard output is
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Every phase's detail goes to standard error. Exits non-zero when the
// correctness gate fails: a future never resolved, a served ranking differs
// from the single-threaded reference, or MaAP@10 lies more than
// kMaapTolerance from the expected value: --maap-expected (the value
// recorded for the seed) or, without it, the MaAP@10 of a serial fit on the
// same step budget.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "serve_load.h"
#include "serve_traced.h"
#include "util/check.h"

using namespace perfbench;

namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;
  double maap_expected = -1;  ///< negative: none recorded for the seed
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    RC_CHECK(i + 1 < argc) << "flag " << flag << " needs a value";
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--spans-out") {
      args.spans_out = value;
    } else if (flag == "--maap-expected") {
      args.maap_expected = std::atof(value.c_str());
    } else {
      RC_CHECK(false) << "unknown flag " << flag;
    }
  }
  RC_CHECK(args.seconds > 0) << "--seconds must be positive";
  return args;
}

/// Setups timed per run; setup_s is their median. Two of three setups in a
/// run can differ by half: enough of them that one slow spell moves no
/// median.
constexpr int kSetups = 5;
/// Open-loop traffic that brings a primed service to steady state.
constexpr double kWarmupSeconds = 0.5;
/// Window length (see PhaseResult): short enough that a host spell spoils
/// only some windows, long enough that at 20k req/s a window holds 2000
/// samples, 20 beyond its p99.
constexpr double kWindowSeconds = 0.1;
/// Fixed-rate traffic per round.
constexpr double kChunkSeconds = 1.0;
/// The first rounds run only their fixed-rate chunk; rss_mb is read after
/// them, after a fixed amount of traffic (history growth counts the same in
/// every run), before any offline cycle has allocated anything and before
/// the correctness gate has built its reference sessions.
constexpr uint64_t kRssRound = 5;
/// Each capacity probe, as a share of --seconds (a fifth of it warms up).
constexpr double kProbeShare = 0.05;
/// Capacity search (traced run): stop when the bracket is this tight, after
/// kMaxProbes, or when the run reaches kOverrun times --seconds (capacity
/// then comes from the highest rate that passed so far).
constexpr double kCapacityResolution = 1.05;
constexpr int kMaxProbes = 20;
constexpr int kProbesPerRound = 2;
constexpr double kOverrun = 1.3;
/// Share of --seconds the traced run spends on each of its two passes.
constexpr double kTracedPassShare = 0.25;
/// How far MaAP@10 may land from the expected value: Hogwild training is
/// not bit-reproducible.
constexpr double kMaapTolerance = 0.02;

/// The service plus everything its gate needs.
struct ServeSetup {
  Pipeline pipeline;
  std::unique_ptr<serve::RecommendService> service;
  std::unique_ptr<TrafficGen> gen;
  /// Null until StartGate; `records` holds every response until then.
  std::unique_ptr<ReferenceGate> gate;
  std::vector<ResponseRecord> records;  ///< not yet checked by `gate`
  int64_t prime_failed = 0;
  double session_bytes = 0;  ///< RSS growth over priming, per session
  PhaseResult warmup;
  double seconds = 0;
};

/// Timed set-up: pipeline, service, and one primed request per user. The
/// open-loop warm-up that follows brings the service to steady state and is
/// not part of the timing (its length is fixed by the schedule).
std::unique_ptr<ServeSetup> SetUp(const Workload& w, uint64_t seed) {
  const int64_t start = NowNs();
  auto setup = std::make_unique<ServeSetup>();
  setup->pipeline = BuildPipeline(w, seed, w.setup_train_steps);
  const double rss_before = RssMb();
  setup->service = std::make_unique<serve::RecommendService>(
      setup->pipeline.dataset.get(), setup->pipeline.recommender,
      MakeServeConfig(setup->pipeline));
  setup->gen =
      std::make_unique<TrafficGen>(w, *setup->pipeline.dataset, seed + 101);
  const SubmitFn submit = ServiceSubmit(setup->service.get());
  setup->prime_failed = Prime(submit, *setup->gen, &setup->records);
  setup->seconds = (NowNs() - start) * 1e-9;
  setup->session_bytes = (RssMb() - rss_before) * 1048576.0 /
                         static_cast<double>(setup->gen->users().size());
  setup->warmup = RunPhase("warmup", setup->gen.get(), w.fixed_rate,
                           kWarmupSeconds, kWindowSeconds, seed + 102, submit,
                           &setup->records);
  std::fprintf(stderr, "%s\n", setup->warmup.Summary().c_str());
  return setup;
}

/// Starts the correctness gate on every response the service has given so
/// far.
void StartGate(ServeSetup* setup) {
  setup->gate = std::make_unique<ReferenceGate>(setup->pipeline);
  setup->gate->Check(&setup->records);
}

/// Resident memory of the serving state: less the response records still
/// waiting for the gate (the benchmark's memory), and read while the fit's
/// training set is released. That set is a fit-time buffer whose size
/// follows each seed's repeat structure (sampling.quadruples tracks it); it
/// is sampled again afterwards for the offline cycles.
double ProgramRssMb(ServeSetup* setup) {
  setup->pipeline.training_set.reset();
  const double rss_mb = RssMb() - static_cast<double>(setup->records.size() *
                                                      sizeof(ResponseRecord)) /
                                      1048576.0;
  BuildTrainingSet(&setup->pipeline);
  return rss_mb;
}

/// Counts and gate state accumulated over every phase of a run.
struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;
  bool correct = true;

  void Add(const PhaseResult& phase) {
    attempted += phase.sent;
    failed += phase.failed;
    if (phase.hung > 0) correct = false;  // every future must resolve
  }
  void Gate(const GateResult& gate, const char* what) {
    std::fprintf(stderr, "gate %s: %lld rankings checked, %lld mismatches%s%s\n",
                 what, static_cast<long long>(gate.rankings_checked),
                 static_cast<long long>(gate.mismatches),
                 gate.first_error.empty() ? "" : ", ",
                 gate.first_error.c_str());
    if (!gate.ok() || gate.rankings_checked == 0) correct = false;
  }
};

/// Bisection over offered rates for the highest one that passes (see
/// PhaseResult::Passes), starting at the workload's fixed rate. A shared
/// host can fail a probe the service would pass, but cannot pass one the
/// service would fail, so a failed rate is probed once more before it
/// counts. A generator-bound probe is no evidence about the service: it
/// never narrows the bracket, and a rate the sender could not keep twice
/// ends the search, leaving the capacity a lower bound set by the sender.
class CapacitySearch {
 public:
  explicit CapacitySearch(double fixed_rate) : next_(fixed_rate) {}

  bool Pending() const {
    if (generator_limited_ || probes_ >= kMaxProbes) return false;
    return lo_ == 0 || hi_ == 0 || hi_ / lo_ > kCapacityResolution;
  }
  double NextRate() const { return next_; }
  void Record(const PhaseResult& probe) {
    ++probes_;
    const bool bound = probe.GeneratorBound();
    if (bound) ++generator_bound_;
    if (!probe.Passes() && !failed_once_) {
      failed_once_ = true;  // same rate again
      return;
    }
    failed_once_ = false;
    if (bound) {
      generator_limited_ = true;
      return;
    }
    if (probe.Passes()) {
      lo_ = next_;
      achieved_ = probe.achieved_rate;
    } else {
      hi_ = next_;
    }
    if (hi_ == 0) {
      next_ = lo_ * 2;
    } else if (lo_ == 0) {
      next_ = hi_ / 2;
    } else {
      next_ = std::sqrt(lo_ * hi_);
    }
  }
  /// What the highest passing probe achieved (ok responses per second):
  /// the offered rate is a point on the search grid, this is measured.
  double capacity() const { return achieved_; }
  /// The search stopped at a rate the sender could not keep.
  bool generator_limited() const { return generator_limited_; }
  int probes() const { return probes_; }
  int generator_bound() const { return generator_bound_; }

 private:
  double lo_ = 0;
  double hi_ = 0;
  double next_;
  double achieved_ = 0;
  bool failed_once_ = false;
  bool generator_limited_ = false;
  int probes_ = 0;
  int generator_bound_ = 0;
};

/// One capacity probe on a fresh, primed service: a short warm-up at the
/// probe's rate, then the measured span.
PhaseResult Probe(const Workload& w, const Pipeline& pipeline, uint64_t seed,
                  double rate, double seconds, Tally* tally) {
  serve::RecommendService service(pipeline.dataset.get(), pipeline.recommender,
                                  MakeServeConfig(pipeline));
  TrafficGen gen(w, *pipeline.dataset, seed);
  ReferenceGate gate(pipeline);
  std::vector<ResponseRecord> records;
  const SubmitFn submit = ServiceSubmit(&service);
  Prime(submit, gen, &records);
  const PhaseResult warm =
      RunPhase("probe-warmup", &gen, rate, seconds * 0.2, seconds * 0.2,
               seed + 1, submit, &records);
  PhaseResult probe = RunPhase("probe", &gen, rate, seconds * 0.8,
                               kWindowSeconds, seed + 2, submit, &records);
  service.Shutdown();
  gate.Check(&records);
  // Probes above capacity fail by design; only the gate and the
  // every-future-resolves rule count here.
  tally->Gate(gate.result(), "probe");
  if (warm.hung + probe.hung > 0) tally->correct = false;
  std::fprintf(stderr, "%s\n", probe.Summary().c_str());
  return probe;
}

/// Runs offline cycles until they have had the workload's share of the time
/// since `since_ns`. Every CPU spins meanwhile: a virtual CPU that halts
/// runs slowly for a while after it wakes, and the cycles' speed would
/// otherwise follow how many CPUs the stage leaves idle and for how long.
void KeepOfflineShare(const Workload& w, const Pipeline& pipeline,
                      bool measure_latency, int64_t since_ns,
                      OfflineResult* offline) {
  auto due = [&] {
    return offline->seconds <
           w.offline_share * static_cast<double>(NowNs() - since_ns) * 1e-9;
  };
  if (!due()) return;
  const LoadCpuScope awake(/*pin_caller=*/false);
  while (due()) {
    const int64_t start = NowNs();
    const OfflineCycle cycle =
        RunOfflineCycle(pipeline, w, kTrainThreads, measure_latency);
    offline->Add(cycle, (NowNs() - start) * 1e-9);
  }
}

/// Summarizes the offline cycles and gates the model's accuracy: a
/// speed-up that trains a worse model fails the run. Without a value
/// recorded for the seed, the expected MaAP@10 is that of a serial fit on
/// the same budget (serial training is bit-reproducible), made here.
void FinishOffline(const Args& args, const Workload& w,
                   const Pipeline& pipeline, OfflineResult* offline,
                   Tally* tally) {
  offline->Summarize();
  std::fprintf(stderr,
               "offline: %d cycles, %.0f quads/s (%lld steps, %lld checks), "
               "%.0f instances/s (%lld), MaAP@10 %.4f\n",
               offline->cycles, offline->quads_per_s,
               static_cast<long long>(offline->last.steps),
               static_cast<long long>(offline->last.checks),
               offline->instances_per_s,
               static_cast<long long>(offline->last.instances),
               offline->maap10);
  const bool recorded = args.maap_expected >= 0;
  const double expected =
      recorded ? args.maap_expected
               : RunOfflineCycle(pipeline, w, /*train_threads=*/1, false)
                     .maap10;
  std::fprintf(stderr, "gate accuracy: MaAP@10 %.4f, expected %.4f (%s)\n",
               offline->maap10, expected,
               recorded ? "recorded for the seed" : "serial fit");
  if (std::fabs(offline->maap10 - expected) > kMaapTolerance) {
    tally->correct = false;
  }
}

/// The end-to-end run. Each round is a fixed-rate chunk on the primed
/// service, then offline cycles up to the workload's share of the elapsed
/// time. Interleaving spreads every metric's samples over the whole run, so
/// a slow spell on a shared host touches a few samples of each instead of
/// all samples of one.
void RunEndToEnd(const Workload& w, const Args& args, ServeSetup* setup,
                 double setup_s, Tally* tally, Metrics* metrics) {
  const Pipeline& pipeline = setup->pipeline;
  const SubmitFn submit = ServiceSubmit(setup->service.get());
  PhaseResult fixed;
  double rss_mb = 0;
  OfflineResult offline;
  const int64_t start = NowNs();
  for (uint64_t round = 0; (NowNs() - start) * 1e-9 < args.seconds;
       ++round) {
    RotateLoadCpu();
    const PhaseResult chunk =
        RunPhase("fixed", setup->gen.get(), w.fixed_rate, kChunkSeconds,
                 kWindowSeconds, args.seed + 1000 + round, submit,
                 &setup->records);
    if (setup->gate) setup->gate->Check(&setup->records);
    std::fprintf(stderr, "%s\n", chunk.Summary().c_str());
    fixed.Append(chunk, /*keep_samples=*/false);
    if (round + 1 < kRssRound) continue;
    if (!setup->gate) {
      rss_mb = ProgramRssMb(setup);
      StartGate(setup);
    }
    KeepOfflineShare(w, pipeline, false, start, &offline);
  }
  if (!setup->gate) {  // a run shorter than kRssRound rounds
    rss_mb = ProgramRssMb(setup);
    StartGate(setup);
  }
  if (offline.cycles == 0) {  // a run too short to reach its first cycle
    const int64_t cycle_start = NowNs();
    offline.Add(RunOfflineCycle(pipeline, w, kTrainThreads, false),
                (NowNs() - cycle_start) * 1e-9);
  }
  setup->service->Shutdown();
  tally->Add(fixed);
  tally->Gate(setup->gate->result(), "fixed");
  FinishOffline(args, w, pipeline, &offline, tally);
  std::fprintf(stderr, "fixed-rate: %zu windows, host took %.1f%%, quiet "
               "p50 %.2fus (recommends %.2fus) p99 %.2fus\n",
               fixed.windows.size(), 100 * fixed.MeanStolen(),
               fixed.QuietP50(), fixed.QuietRecommendP50(), fixed.QuietP99());

  metrics->Set("serve.p50_us", fixed.QuietRecommendP50(), "us");
  metrics->Set("rss_mb", rss_mb, "MB");
  metrics->Set("setup_s", setup_s, "s");
  metrics->Set("eval.instances_per_s", offline.instances_per_s,
               "instances/s");
  metrics->Set("eval.maap10", offline.maap10, "MaAP");
}

void SetGenMetrics(const std::string& prefix, const PhaseResult& phase,
                   Metrics* metrics) {
  metrics->Set(prefix + ".lateness_us.p99", phase.Lateness(0.99).value, "us");
  metrics->Set(prefix + ".sent", static_cast<double>(phase.sent), "count");
  metrics->Set(prefix + ".ok", static_cast<double>(phase.ok), "count");
  metrics->Set(prefix + ".failed", static_cast<double>(phase.failed), "count");
}

/// The traced run. Rounds alternate an untraced chunk on RecommendService
/// with the same chunk (same requests, same schedule) replayed through
/// TracedService, so both passes see the same host, then run capacity
/// probes while the search lasts; offline cycles fill the workload's share
/// of the time with the evaluator's latency probes on.
void RunTracedMode(const Workload& w, const Args& args, ServeSetup* setup,
                   Tally* tally, Metrics* metrics) {
  const Pipeline& pipeline = setup->pipeline;
  StartGate(setup);
  const SubmitFn base_submit = ServiceSubmit(setup->service.get());
  TracedService traced(pipeline);
  ReferenceGate traced_gate(pipeline);
  std::vector<ResponseRecord> traced_records;
  TrafficGen traced_gen(w, *pipeline.dataset, args.seed + 101);
  size_t base_index = 0;
  const SubmitFn traced_submit = [&](const Op& op, size_t index) {
    return traced.Submit(op, index == kPrimeIndex ? index : base_index + index);
  };
  const ReadyFn traced_ready = [&](size_t index, const Op&,
                                   const serve::ServeResponse&,
                                   int64_t ready_ns) {
    traced.OnReady(base_index + index, ready_ns);
  };
  // Bring the traced service to the base service's state: same priming,
  // same warm-up stream.
  tally->attempted += static_cast<int64_t>(traced_gen.users().size());
  tally->failed += Prime(traced_submit, traced_gen, &traced_records);
  const PhaseResult warm =
      RunPhase("traced-warmup", &traced_gen, w.fixed_rate, kWarmupSeconds,
               kWindowSeconds, args.seed + 102, traced_submit, &traced_records);
  traced_gate.Check(&traced_records);
  tally->Add(warm);

  const int rounds = std::max(
      3, static_cast<int>(args.seconds * kTracedPassShare / kChunkSeconds));
  const size_t per_chunk =
      static_cast<size_t>(std::llround(w.fixed_rate * kChunkSeconds));
  traced.SetRecording(true, per_chunk * static_cast<size_t>(rounds));
  PhaseResult base, replay;
  OfflineResult offline;
  CapacitySearch search(w.fixed_rate);
  auto probe = [&] {
    search.Record(Probe(w, pipeline, args.seed + 7919 * (search.probes() + 1),
                        search.NextRate(), args.seconds * kProbeShare, tally));
  };
  const int64_t start = NowNs();
  for (int round = 0; round < rounds; ++round) {
    const uint64_t seed = args.seed + 1000 + static_cast<uint64_t>(round);
    base.Append(RunPhase("base", setup->gen.get(), w.fixed_rate,
                         kChunkSeconds, kWindowSeconds, seed, base_submit,
                         &setup->records),
                /*keep_samples=*/true);
    setup->gate->Check(&setup->records);
    base_index = per_chunk * static_cast<size_t>(round);
    replay.Append(RunPhase("traced", &traced_gen, w.fixed_rate, kChunkSeconds,
                           kWindowSeconds, seed, traced_submit,
                           &traced_records, traced_ready),
                  /*keep_samples=*/true);
    traced_gate.Check(&traced_records);
    for (int i = 0; i < kProbesPerRound && search.Pending(); ++i) probe();
    KeepOfflineShare(w, pipeline, true, start, &offline);
  }
  while (search.Pending() &&
         (NowNs() - start) * 1e-9 < args.seconds * kOverrun) {
    probe();
    KeepOfflineShare(w, pipeline, true, start, &offline);
  }
  std::fprintf(stderr, "capacity %.0f req/s after %d probes (%d "
               "generator-bound%s)\n",
               search.capacity(), search.probes(), search.generator_bound(),
               search.generator_limited()
                   ? "; the sender's limit ended the search" : "");
  const std::vector<Span> spans = traced.TakeSpans();
  setup->service->Shutdown();
  base.name = "base-all";
  replay.name = "traced-all";
  std::fprintf(stderr, "%s\n%s\n", base.Summary().c_str(),
               replay.Summary().c_str());
  tally->Add(base);
  tally->Add(replay);
  tally->Gate(setup->gate->result(), "base");
  tally->Gate(traced_gate.result(), "traced");
  if (!args.spans_out.empty()) WriteSpans(spans, args.spans_out);
  FinishOffline(args, w, pipeline, &offline, tally);

  metrics->Set("serve.p99_us", base.QuietP99(), "us");
  metrics->Set("serve.capacity_qps", search.capacity(), "req/s");
  metrics->Set("serve.capacity.generator_limited",
               search.generator_limited() ? 1.0 : 0.0, "flag");
  AddLayerMetrics(spans, traced, metrics);
  metrics->Set("serve.session.bytes", setup->session_bytes, "B");
  const double ok_recommends = static_cast<double>(
      base.served_full + base.served_cache + base.served_stale +
      base.served_fallback);
  auto share = [&](int64_t count) {
    return ok_recommends > 0 ? static_cast<double>(count) / ok_recommends
                             : 0.0;
  };
  metrics->Set("serve.served.full", share(base.served_full), "fraction");
  metrics->Set("serve.served.cache", share(base.served_cache), "fraction");
  metrics->Set("serve.served.stale", share(base.served_stale), "fraction");
  metrics->Set("serve.served.fallback", share(base.served_fallback),
               "fraction");
  metrics->Set("serve.fail_rate",
               static_cast<double>(base.failed) /
                   static_cast<double>(std::max<int64_t>(base.sent, 1)),
               "fraction");
  SetGenMetrics("gen", base, metrics);
  metrics->Set("gen.host_stolen", base.MeanStolen(), "fraction");
  SetGenMetrics("gen.traced", replay, metrics);

  // Reconciliation over typical requests (see PhaseResult::typical): the
  // untraced mean against the traced layers' shares of it (the generator's
  // lateness included), and the traced mean against the untraced one.
  // Replay sample k is traced request k.
  const double base_mean = base.TypicalMean(base.latency_us);
  const double traced_mean = replay.TypicalMean(replay.latency_us);
  const double layer_sum = LayerMeanSumUs(spans, replay.typical) +
                           replay.TypicalMean(replay.lateness_us);
  metrics->Set("serve.mean_us", base_mean, "us");
  metrics->Set("trace.mean_us", traced_mean, "us");
  metrics->Set("serve.layer_sum_us", layer_sum, "us");
  metrics->Set("serve.unattributed_us", base_mean - layer_sum, "us");
  metrics->Set("trace.overhead_us", traced_mean - base_mean, "us");

  metrics->Set("data.generate_s", pipeline.generate_s, "s");
  metrics->Set("features.table_s", pipeline.table_s, "s");
  metrics->Set("sampling.build_s", pipeline.sampling_s, "s");
  metrics->Set("sampling.quadruples",
               static_cast<double>(pipeline.training_set->num_quadruples()),
               "count");
  metrics->Set("train.quads_per_s", offline.quads_per_s, "quads/s");
  metrics->Set("trainer.train_s", offline.train_s, "s");
  metrics->Set("trainer.steps", static_cast<double>(offline.last.steps),
               "count");
  metrics->Set("trainer.checks", static_cast<double>(offline.last.checks),
               "count");
  metrics->Set("eval.evaluate_s", offline.evaluate_s, "s");
  metrics->Set("eval.instances", static_cast<double>(offline.last.instances),
               "count");
  metrics->Set("eval.candidates.mean", offline.last.candidates_mean, "count");
  metrics->Set("eval.score_us.mean", offline.score_us_mean, "us");
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  WakeHost();
  ReserveLoadCpu();
  const Workload* workload = FindWorkload(args.workload);
  RC_CHECK(workload != nullptr) << "unknown workload " << args.workload;
  const Workload& w = *workload;
  Tally tally;
  Metrics metrics;

  // Set up several times; keep the last setup and report the median.
  std::vector<double> setup_seconds;
  std::unique_ptr<ServeSetup> setup;
  for (int i = 0; i < kSetups; ++i) {
    if (setup) {
      setup->service->Shutdown();
      StartGate(setup.get());
      tally.Gate(setup->gate->result(), "setup");
    }
    setup.reset();
    setup = SetUp(w, args.seed);
    tally.Add(setup->warmup);
    tally.attempted += static_cast<int64_t>(setup->gen->users().size());
    tally.failed += setup->prime_failed;
    setup_seconds.push_back(setup->seconds);
    const Pipeline& p = setup->pipeline;
    std::fprintf(stderr, "setup %d: %.3fs (generate %.3fs, table %.3fs, "
                 "sampling %.3fs, train %.3fs); %zu users, %zu items, %lld "
                 "events, %zu quadruples\n",
                 i, setup->seconds, p.generate_s, p.table_s, p.sampling_s,
                 p.train_s, p.dataset->num_users(), p.dataset->num_items(),
                 static_cast<long long>(p.dataset->num_interactions()),
                 static_cast<size_t>(p.training_set->num_quadruples()));
  }

  if (args.trace) {
    RunTracedMode(w, args, setup.get(), &tally, &metrics);
  } else {
    RunEndToEnd(w, args, setup.get(), Median(setup_seconds), &tally,
                &metrics);
  }

  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              tally.correct ? "true" : "false",
              static_cast<long long>(tally.attempted),
              static_cast<long long>(tally.failed),
              metrics.ToJson().c_str());
  std::fflush(stdout);
  return tally.correct ? 0 : 1;
}
