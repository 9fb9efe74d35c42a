#include "serve_traced.h"

#include <cstdio>

#include "util/check.h"

namespace perfbench {

namespace {

/// Same budget RecommendService gives a blocked enqueue.
constexpr int64_t kEnqueueTimeoutNs = 20'000'000;

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kEnqueue: return "serve.enqueue";
    case Layer::kQueueWait: return "serve.queue.wait";
    case Layer::kSessionGet: return "serve.session.get";
    case Layer::kCacheLookup: return "serve.cache.lookup";
    case Layer::kWindow: return "window.sync";
    case Layer::kScore: return "core.score";
    case Layer::kSelect: return "eval.select";
    case Layer::kCacheInsert: return "serve.cache.insert";
    case Layer::kObserve: return "core.session.observe";
    case Layer::kCacheInvalidate: return "serve.cache.invalidate";
    case Layer::kResolve: return "serve.resolve";
    case Layer::kMirror: return "trace.mirror";
    case Layer::kCount: break;
  }
  return "unknown";
}

TracedService::TracedService(const Pipeline& pipeline)
    : pipeline_(pipeline),
      registry_(pipeline.recommender, "initial"),
      sessions_(pipeline.dataset.get(), pipeline.window_capacity,
                pipeline.min_gap),
      cache_(serve::ServeConfig().cache_capacity),
      queue_(serve::ServeConfig().queue_capacity),
      mirrors_(pipeline.dataset->num_users()),
      scratch_(kServeWorkers),
      created_(pipeline.dataset->num_users()),
      spans_(1 + kServeWorkers) {
  for (Scratch& scratch : scratch_) {
    scratch.scorer = pipeline.recommender->Clone();
    RC_CHECK(scratch.scorer != nullptr) << "the model must clone";
  }
  for (int w = 0; w < kServeWorkers; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

TracedService::~TracedService() {
  queue_.Shutdown();
  for (std::thread& t : workers_) t.join();
}

void TracedService::SetRecording(bool on, size_t num_requests) {
  recording_.store(false);
  resolve_ns_.assign(num_requests, 0);
  for (std::vector<Span>& spans : spans_) {
    spans.clear();
    spans.reserve(num_requests * 8 / spans_.size() + 1024);
  }
  recording_.store(on);
}

void TracedService::Record(std::vector<Span>* spans, size_t index, Layer layer,
                           int64_t start_ns, int64_t end_ns) {
  if (!recording_.load(std::memory_order_relaxed) ||
      index >= resolve_ns_.size()) {
    return;
  }
  spans->push_back(Span{static_cast<uint32_t>(index), layer, start_ns,
                        end_ns - start_ns});
}

std::future<serve::ServeResponse> TracedService::Submit(const Op& op,
                                                        size_t index) {
  const int64_t start = NowNs();
  Item item;
  item.op = op;
  item.index = index;
  std::future<serve::ServeResponse> future = item.promise.get_future();
  item.enqueue_ns = NowNs();
  const int64_t item_enqueue_ns = item.enqueue_ns;
  if (!queue_.TryEnqueueFor(item, kEnqueueTimeoutNs)) {
    serve::ServeResponse response;
    response.status = Status::Unavailable("request shed: queue_full");
    item.promise.set_value(std::move(response));
    return future;
  }
  const int64_t depth = ++enqueued_ - dequeued_.load();
  int64_t seen = depth_max_.load();
  while (depth > seen && !depth_max_.compare_exchange_weak(seen, depth)) {
  }
  // The push itself is queue time: the two spans meet at enqueue_ns.
  Record(&spans_[0], index, Layer::kEnqueue, start, item_enqueue_ns);
  return future;
}

void TracedService::OnReady(size_t index, int64_t ready_ns) {
  if (index < resolve_ns_.size() && resolve_ns_[index] > 0) {
    Record(&spans_[0], index, Layer::kResolve, resolve_ns_[index], ready_ns);
  }
}

void TracedService::WorkerLoop(int worker) {
  Item item;
  while (queue_.Pop(&item)) {
    ++dequeued_;
    const int64_t popped = NowNs();
    Record(&spans_[1 + worker], item.index, Layer::kQueueWait, item.enqueue_ns,
           popped);
    serve::ServeResponse response = Handle(item, worker);
    const int64_t resolve = NowNs();
    if (item.index < resolve_ns_.size()) resolve_ns_[item.index] = resolve;
    item.promise.set_value(std::move(response));
  }
}

serve::ServeResponse TracedService::Handle(const Item& item, int worker) {
  Scratch& scratch = scratch_[static_cast<size_t>(worker)];
  std::vector<data::ItemId>& candidates = scratch.candidates;
  std::vector<double>& scores = scratch.scores;
  std::vector<int>& top = scratch.top;
  std::vector<Span>* spans = &spans_[1 + worker];
  const Op& op = item.op;
  const size_t user = static_cast<size_t>(op.user);

  serve::ServeResponse response;
  std::shared_ptr<const serve::ModelSnapshot> snapshot = registry_.Current();
  response.model_epoch = snapshot->epoch;
  int64_t t0 = NowNs();
  serve::UserSession* state = sessions_.GetOrCreate(op.user, snapshot);
  int64_t t1 = NowNs();
  Record(spans, item.index, Layer::kSessionGet, t0, t1);
  if (!created_[user].exchange(true)) {
    ++creates_;
    create_ns_ += t1 - t0;
  }

  util::MutexLock lock(&state->mu);
  state->RefreshModel(snapshot);
  Mirror& mirror = mirrors_[user];
  if (mirror.walker == nullptr) {
    t0 = NowNs();
    mirror.history = pipeline_.dataset->sequence(op.user);
    mirror.history.reserve(mirror.history.size() * 2 + 1024);
    mirror.walker = std::make_unique<window::WindowWalker>(
        &mirror.history, pipeline_.window_capacity);
    Record(spans, item.index, Layer::kMirror, t0, NowNs());
  }

  if (op.observe) {
    t0 = NowNs();
    state->session->Observe(op.item);
    t1 = NowNs();
    Record(spans, item.index, Layer::kObserve, t0, t1);
    const data::ItemId* old_data = mirror.history.data();
    mirror.history.push_back(op.item);
    if (mirror.history.data() != old_data) {
      // Reallocated: the walker's sequence pointer is stale; replay.
      mirror.walker = std::make_unique<window::WindowWalker>(
          &mirror.history, pipeline_.window_capacity);
    }
    t0 = NowNs();
    Record(spans, item.index, Layer::kMirror, t1, t0);
    cache_.Invalidate(op.user);
    Record(spans, item.index, Layer::kCacheInvalidate, t0, NowNs());
    response.epoch = state->epoch();
    return response;
  }

  response.epoch = state->epoch();
  t0 = NowNs();
  const bool hit = cache_.Lookup(op.user, response.epoch, snapshot->epoch,
                                 kTopN, &response.items);
  t1 = NowNs();
  Record(spans, item.index, Layer::kCacheLookup, t0, t1);
  if (hit) {
    response.cache_hit = true;
    response.served_by = serve::ServedBy::kCache;
    return response;
  }

  const size_t num_candidates = state->session->NumCandidates();
  t0 = NowNs();
  Record(spans, item.index, Layer::kWindow, t1, t0);
  while (static_cast<size_t>(mirror.walker->step()) < mirror.history.size()) {
    mirror.walker->Advance();
  }
  mirror.walker->EligibleCandidates(pipeline_.min_gap, &candidates);
  RC_CHECK(candidates.size() == num_candidates)
      << "the traced run's window disagrees with the session's";
  t1 = NowNs();
  Record(spans, item.index, Layer::kMirror, t0, t1);
  ++misses_;
  candidates_total_ += static_cast<int64_t>(num_candidates);

  if (!candidates.empty()) {
    scores.assign(candidates.size(), 0.0);
    scratch.scorer->Score(op.user, *mirror.walker, candidates, scores);
    t0 = NowNs();
    Record(spans, item.index, Layer::kScore, t1, t0);
    eval::SelectTopNHeap(scores, kTopN, &top);
    t1 = NowNs();
    Record(spans, item.index, Layer::kSelect, t0, t1);
    response.items.reserve(top.size());
    for (int index : top) {
      const data::ItemId candidate = candidates[static_cast<size_t>(index)];
      response.items.push_back(core::RankedItem{
          candidate, scores[static_cast<size_t>(index)],
          mirror.walker->GapSince(candidate),
          mirror.walker->CountInWindow(candidate)});
    }
  }
  t0 = NowNs();
  cache_.Insert(op.user, response.epoch, snapshot->epoch, kTopN,
                response.items);
  Record(spans, item.index, Layer::kCacheInsert, t0, NowNs());
  response.served_by = serve::ServedBy::kFull;
  return response;
}

double TracedService::session_create_us_mean() const {
  const int64_t creates = creates_.load();
  return creates == 0 ? 0.0
                      : static_cast<double>(create_ns_.load()) / 1e3 /
                            static_cast<double>(creates);
}

std::vector<Span> TracedService::TakeSpans() {
  recording_.store(false);
  std::vector<Span> all;
  for (std::vector<Span>& spans : spans_) {
    all.insert(all.end(), spans.begin(), spans.end());
    spans.clear();
  }
  return all;
}

namespace {

std::vector<std::vector<double>> DurationsByLayer(
    const std::vector<Span>& spans) {
  std::vector<std::vector<double>> by_layer(
      static_cast<size_t>(Layer::kCount));
  for (const Span& span : spans) {
    by_layer[static_cast<size_t>(span.layer)].push_back(
        static_cast<double>(span.duration_ns) / 1e3);
  }
  return by_layer;
}

}  // namespace

double LayerMeanSumUs(const std::vector<Span>& spans,
                      const std::vector<uint8_t>& counted) {
  double total_us = 0;
  for (const Span& span : spans) {
    if (span.layer != Layer::kMirror && span.request < counted.size() &&
        counted[span.request]) {
      total_us += span.duration_ns / 1e3;
    }
  }
  int64_t requests = 0;
  for (uint8_t c : counted) requests += c;
  return requests > 0 ? total_us / static_cast<double>(requests) : 0.0;
}

void AddLayerMetrics(const std::vector<Span>& spans,
                     const TracedService& service, Metrics* metrics) {
  const auto by_layer = DurationsByLayer(spans);
  auto of = [&](Layer layer) -> const std::vector<double>& {
    return by_layer[static_cast<size_t>(layer)];
  };
  auto pct = [&](const std::string& name, Layer layer, double q) {
    metrics->Set(name, PercentileOf(of(layer), q).value, "us");
  };
  pct("serve.enqueue_us.p50", Layer::kEnqueue, 0.5);
  pct("serve.enqueue_us.p99", Layer::kEnqueue, 0.99);
  pct("serve.resolve_us.p50", Layer::kResolve, 0.5);
  pct("serve.resolve_us.p99", Layer::kResolve, 0.99);
  pct("serve.queue.wait_us.p50", Layer::kQueueWait, 0.5);
  pct("serve.queue.wait_us.p99", Layer::kQueueWait, 0.99);
  metrics->Set("serve.queue.depth_max",
               static_cast<double>(service.queue_depth_max()), "count");
  pct("serve.session.get_us.p99", Layer::kSessionGet, 0.99);
  metrics->Set("serve.session.creates",
               static_cast<double>(service.session_creates()), "count");
  metrics->Set("serve.session.create_us.mean",
               service.session_create_us_mean(), "us");
  pct("serve.cache.lookup_us.p50", Layer::kCacheLookup, 0.5);
  pct("serve.cache.lookup_us.p99", Layer::kCacheLookup, 0.99);
  const serve::ScoreCacheStats cache = service.cache_stats();
  metrics->Set("serve.cache.hit_ratio", cache.HitRate(), "fraction");
  pct("serve.cache.insert_us.p50", Layer::kCacheInsert, 0.5);
  pct("serve.cache.invalidate_us.p50", Layer::kCacheInvalidate, 0.5);
  metrics->Set("serve.cache.evictions", static_cast<double>(cache.evictions),
               "count");
  pct("core.session.observe_us.p50", Layer::kObserve, 0.5);
  pct("core.session.observe_us.p99", Layer::kObserve, 0.99);
  pct("window.sync_us.p50", Layer::kWindow, 0.5);
  pct("window.sync_us.p99", Layer::kWindow, 0.99);
  pct("window.sync_us.max", Layer::kWindow, 1.0);
  metrics->Set("window.candidates.mean",
               service.misses() == 0
                   ? 0.0
                   : static_cast<double>(service.candidates_total()) /
                         static_cast<double>(service.misses()),
               "count");
  pct("core.score_us.p50", Layer::kScore, 0.5);
  pct("core.score_us.p99", Layer::kScore, 0.99);
  double score_us = 0;
  for (double d : of(Layer::kScore)) score_us += d;
  metrics->Set("core.score_ns_per_candidate",
               service.candidates_total() == 0
                   ? 0.0
                   : score_us * 1e3 /
                         static_cast<double>(service.candidates_total()),
               "ns");
  pct("eval.select_us.p50", Layer::kSelect, 0.5);
}

void WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  RC_CHECK(out != nullptr) << "cannot write " << path;
  std::fprintf(out, "request\tlayer\tstart_ns\tduration_ns\n");
  const int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& span : spans) {
    std::fprintf(out, "%u\t%s\t%lld\t%lld\n", span.request,
                 LayerName(span.layer),
                 static_cast<long long>(span.start_ns - origin),
                 static_cast<long long>(span.duration_ns));
  }
  RC_CHECK(std::fclose(out) == 0) << "cannot write " << path;
}

}  // namespace perfbench
