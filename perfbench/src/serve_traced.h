// The traced serve run: the same open-loop stream, replayed through the
// serve layer's public classes (BoundedQueue, ModelRegistry, SessionMap,
// ScoreCache, core::RecommendationSession, Recommender::Score,
// eval::SelectTopNHeap) in the order RecommendService::HandleRecommend and
// HandleObserve call them, with a span around each call. Spans stay in
// memory and are written out when the run ends.

#pragma once

#include <atomic>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "eval/recommender.h"
#include "serve/request_queue.h"
#include "serve_load.h"
#include "window/window_walker.h"

namespace perfbench {

/// \brief A layer boundary the traced run times.
enum class Layer : uint8_t {
  kEnqueue,          ///< front door up to the BoundedQueue push
  kQueueWait,        ///< push -> pop
  kSessionGet,       ///< SessionMap::GetOrCreate
  kCacheLookup,      ///< ScoreCache::Lookup
  kWindow,           ///< RecommendationSession::NumCandidates
  kScore,            ///< Recommender::Score on the worker's clone
  kSelect,           ///< eval::SelectTopNHeap
  kCacheInsert,      ///< ScoreCache::Insert
  kObserve,          ///< RecommendationSession::Observe
  kCacheInvalidate,  ///< ScoreCache::Invalidate
  kResolve,          ///< promise set -> load thread sees the future ready
  kMirror,           ///< the run's own candidate bookkeeping (overhead)
  kCount,
};
const char* LayerName(Layer layer);

/// \brief One timed interval of one request.
struct Span {
  uint32_t request = 0;
  Layer layer = Layer::kEnqueue;
  int64_t start_ns = 0;
  int64_t duration_ns = 0;
};

/// \brief The serve path rebuilt from public classes, recording spans.
class TracedService {
 public:
  explicit TracedService(const Pipeline& pipeline);
  ~TracedService();
  TracedService(const TracedService&) = delete;
  TracedService& operator=(const TracedService&) = delete;

  /// Submits one request; `index` names it in the spans. Spans are kept
  /// only while recording is on.
  std::future<serve::ServeResponse> Submit(const Op& op, size_t index);
  /// Called by the load thread when it sees request `index` ready.
  void OnReady(size_t index, int64_t ready_ns);
  void SetRecording(bool on, size_t num_requests);

  /// Every span, merged across threads (call after the load stops).
  std::vector<Span> TakeSpans();
  int64_t session_creates() const { return creates_.load(); }
  double session_create_us_mean() const;
  int64_t queue_depth_max() const { return depth_max_.load(); }
  serve::ScoreCacheStats cache_stats() const { return cache_.stats(); }
  int64_t candidates_total() const { return candidates_total_.load(); }
  int64_t misses() const { return misses_.load(); }

 private:
  struct Item {
    Op op;
    size_t index = 0;
    int64_t enqueue_ns = 0;
    std::promise<serve::ServeResponse> promise;
  };
  /// The run's own view of a user's stream: a walker over a history copy,
  /// so Score can be called with the candidates NumCandidates counted.
  struct Mirror {
    data::ConsumptionSequence history;
    std::unique_ptr<window::WindowWalker> walker;
  };
  /// Scoring state owned by one worker: its model clone and scratch.
  struct Scratch {
    std::unique_ptr<eval::Recommender> scorer;
    std::vector<data::ItemId> candidates;
    std::vector<double> scores;
    std::vector<int> top;
  };

  void WorkerLoop(int worker);
  serve::ServeResponse Handle(const Item& item, int worker);
  void Record(std::vector<Span>* spans, size_t index, Layer layer,
              int64_t start_ns, int64_t end_ns);

  const Pipeline& pipeline_;
  serve::ModelRegistry registry_;
  serve::SessionMap sessions_;
  serve::ScoreCache cache_;
  serve::BoundedQueue<Item> queue_;
  std::vector<Mirror> mirrors_;  ///< per user; guarded by its session's mu
  std::vector<Scratch> scratch_;  ///< per worker
  std::vector<std::atomic<bool>> created_;  ///< per user
  std::vector<int64_t> resolve_ns_;  ///< per request, written by workers
  std::atomic<bool> recording_{false};
  std::vector<std::vector<Span>> spans_;  ///< [0] load thread, [1..] workers
  std::atomic<int64_t> enqueued_{0}, dequeued_{0}, depth_max_{0};
  std::atomic<int64_t> creates_{0}, create_ns_{0};
  std::atomic<int64_t> candidates_total_{0}, misses_{0};
  std::vector<std::thread> workers_;  ///< last: they use everything above
};

/// Per-layer metrics of one traced replay: spans -> named percentiles.
void AddLayerMetrics(const std::vector<Span>& spans,
                     const TracedService& service, Metrics* metrics);

/// Sum over layers of (time in the layer / requests) over the requests
/// `counted` marks: the layers' share of their mean latency. The run's own
/// bookkeeping is left out.
double LayerMeanSumUs(const std::vector<Span>& spans,
                      const std::vector<uint8_t>& counted);

/// Writes spans as TSV (request, layer, start_ns, duration_ns).
void WriteSpans(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench
