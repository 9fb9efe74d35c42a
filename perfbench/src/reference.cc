// The correctness gate: a single-threaded core::RecommendationSession per
// user, replayed to each served (user, epoch), must reproduce every ok,
// non-degraded ranking bit for bit.

#include <algorithm>
#include <map>
#include <thread>

#include "bench.h"
#include "core/recommendation_session.h"

namespace perfbench {

namespace {

/// The service publishes the initial model at epoch 1 and never swaps here.
constexpr int64_t kModelEpoch = 1;
/// Replay threads; user u always replays on thread u % kThreads, whose
/// model clone its session keeps.
constexpr size_t kThreads = 3;

}  // namespace

struct ReferenceGate::User {
  std::unique_ptr<core::RecommendationSession> session;
  std::map<int64_t, data::ItemId> observed;  ///< epoch after apply -> item
  std::vector<std::pair<int64_t, uint64_t>> rankings;  ///< epoch, fingerprint
  int64_t ref_epoch = -1;
  uint64_t ref_fingerprint = 0;
  int64_t checked = 0;
  int64_t mismatches = 0;
  std::string error;
};

ReferenceGate::ReferenceGate(const Pipeline& pipeline)
    : pipeline_(pipeline),
      users_(pipeline.dataset->num_users()) {
  for (size_t t = 0; t < kThreads; ++t) {
    scorers_.push_back(pipeline.recommender->Clone());
  }
}

ReferenceGate::~ReferenceGate() = default;

void ReferenceGate::Check(std::vector<ResponseRecord>* records) {
  for (const ResponseRecord& r : *records) {
    if (!r.ok || r.degraded) continue;
    User& user = users_[static_cast<size_t>(r.user)];
    if (r.model_epoch != kModelEpoch) {
      user.error = "response under unexpected model epoch";
    } else if (r.observe) {
      if (!user.observed.emplace(r.epoch, r.item).second) {
        user.error = "two observes resolved at the same epoch";
      }
    } else {
      user.rankings.emplace_back(r.epoch, r.fingerprint);
    }
  }
  records->clear();
  records->shrink_to_fit();

  auto replay = [this](size_t thread) {
    for (size_t u = thread; u < users_.size(); u += kThreads) {
      User& user = users_[u];
      if (!user.error.empty() || user.rankings.empty()) continue;
      const data::UserId id = static_cast<data::UserId>(u);
      if (!user.session) {
        user.session = std::make_unique<core::RecommendationSession>(
            scorers_[thread].get(), id, pipeline_.dataset->sequence(id),
            pipeline_.window_capacity, pipeline_.min_gap);
      }
      std::sort(user.rankings.begin(), user.rankings.end());
      for (const auto& [epoch, fingerprint] : user.rankings) {
        while (user.session->num_events() < epoch) {
          const auto it = user.observed.find(user.session->num_events() + 1);
          if (it == user.observed.end()) break;
          user.session->Observe(it->second);
          user.observed.erase(it);
        }
        if (epoch != user.ref_epoch) {
          if (user.session->num_events() != epoch) {
            user.error = "no applied history to replay to epoch " +
                         std::to_string(epoch);
            break;
          }
          user.ref_epoch = epoch;
          user.ref_fingerprint =
              Fingerprint(user.session->RecommendTopN(kTopN));
        }
        ++user.checked;
        if (fingerprint != user.ref_fingerprint) ++user.mismatches;
      }
      user.rankings.clear();
    }
  };
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) threads.emplace_back(replay, t);
  for (std::thread& t : threads) t.join();

  result_.rankings_checked = 0;
  result_.mismatches = 0;
  for (size_t u = 0; u < users_.size(); ++u) {
    result_.rankings_checked += users_[u].checked;
    result_.mismatches += users_[u].mismatches;
    if (result_.first_error.empty() && !users_[u].error.empty()) {
      result_.first_error = "user " + std::to_string(u) + ": " + users_[u].error;
    }
  }
}

}  // namespace perfbench
