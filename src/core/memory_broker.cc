#include "core/memory_broker.h"

#include <algorithm>
#include <utility>

#include "common/macros.h"

namespace dqsched::core {

const char* FairnessClassName(FairnessClass c) {
  switch (c) {
    case FairnessClass::kInteractive:
      return "interactive";
    case FairnessClass::kBatch:
      return "batch";
  }
  return "unknown";
}

void MemoryBroker::Submit(const Request& request) {
  DQS_CHECK(request.est_bytes >= 1);
  std::lock_guard<std::mutex> lock(mu_);
  pending_requests_.push_back(request);
}

void MemoryBroker::Submit(const Release& release) {
  std::lock_guard<std::mutex> lock(mu_);
  pending_releases_.push_back(release);
}

bool MemoryBroker::Fits(const QueuedRequest& qr) const {
  if (outstanding_bytes_ == 0) return true;
  return outstanding_bytes_ + qr.request.est_bytes <=
         config_.total_budget_bytes;
}

void MemoryBroker::Admit(std::deque<QueuedRequest>* queue,
                         std::vector<std::vector<Grant>>* out) {
  QueuedRequest qr = std::move(queue->front());
  queue->pop_front();
  Grant grant;
  grant.uid = qr.request.uid;
  grant.est_bytes = qr.request.est_bytes;
  grant.granted_at = qr.waited
                         ? std::max(qr.request.arrival, last_freed_at_)
                         : qr.request.arrival;
  outstanding_bytes_ += qr.request.est_bytes;
  stats_.peak_outstanding_bytes =
      std::max(stats_.peak_outstanding_bytes, outstanding_bytes_);
  ++stats_.grants_issued;
  if (grant.granted_at > qr.request.arrival) ++stats_.queued_admissions;
  (*out)[static_cast<size_t>(qr.request.shard)].push_back(grant);
}

void MemoryBroker::ShedExpired(std::deque<QueuedRequest>* queue,
                               std::vector<Request>* shed) {
  std::deque<QueuedRequest> kept;
  for (QueuedRequest& qr : *queue) {
    // The earliest stamp this request can still be granted at; monotone
    // in last_freed_at_, so once it reaches the deadline it stays there.
    const SimTime earliest =
        qr.waited ? std::max(qr.request.arrival, last_freed_at_)
                  : qr.request.arrival;
    if (qr.request.deadline > 0 && earliest >= qr.request.deadline) {
      ++stats_.shed_requests;
      if (shed != nullptr) shed->push_back(qr.request);
    } else {
      kept.push_back(std::move(qr));
    }
  }
  queue->swap(kept);
}

std::vector<std::vector<MemoryBroker::Grant>> MemoryBroker::Arbitrate(
    int num_shards, std::vector<Request>* shed) {
  std::vector<Request> requests;
  std::vector<Release> releases;
  {
    std::lock_guard<std::mutex> lock(mu_);
    requests.swap(pending_requests_);
    releases.swap(pending_releases_);
  }
  // Canonical event order: thread interleaving decided only *when* an
  // event landed in the inbox, never its position here.
  std::sort(releases.begin(), releases.end(),
            [](const Release& a, const Release& b) {
              return a.completed_at != b.completed_at
                         ? a.completed_at < b.completed_at
                         : a.uid < b.uid;
            });
  std::sort(requests.begin(), requests.end(),
            [](const Request& a, const Request& b) {
              return a.arrival != b.arrival ? a.arrival < b.arrival
                                            : a.uid < b.uid;
            });

  for (const Release& r : releases) {
    DQS_CHECK_MSG(outstanding_bytes_ >= r.bytes,
                  "broker released more than outstanding");
    outstanding_bytes_ -= r.bytes;
    last_freed_at_ = std::max(last_freed_at_, r.completed_at);
    ++stats_.releases_applied;
  }
  const bool freed_this_round = !releases.empty();
  for (Request& r : requests) {
    std::deque<QueuedRequest>& queue =
        r.fairness == FairnessClass::kInteractive ? interactive_ : batch_;
    QueuedRequest qr;
    qr.request = r;
    // The arrival-stamped carve-out: only a request that joins an empty
    // class queue in a round that needed no release can claim it found
    // room the moment it arrived.
    qr.waited = freed_this_round || !queue.empty();
    queue.push_back(std::move(qr));
  }
  stats_.peak_queued_requests = std::max(
      stats_.peak_queued_requests,
      static_cast<int64_t>(interactive_.size() + batch_.size()));

  // Deadline-aware admission: drop requests that can no longer win
  // before spending budget on them.
  ShedExpired(&interactive_, shed);
  ShedExpired(&batch_, shed);

  std::vector<std::vector<Grant>> out(static_cast<size_t>(num_shards));
  while (true) {
    if (!interactive_.empty() && Fits(interactive_.front())) {
      Admit(&interactive_, &out);
    } else if (!batch_.empty() && Fits(batch_.front())) {
      Admit(&batch_, &out);
    } else {
      break;
    }
  }
  for (QueuedRequest& qr : interactive_) qr.waited = true;
  for (QueuedRequest& qr : batch_) qr.waited = true;
  return out;
}

bool MemoryBroker::HasQueued() const {
  return !interactive_.empty() || !batch_.empty();
}

void MemoryBroker::ReportReclaimable(int shard, int64_t bytes) {
  DQS_CHECK(shard >= 0 && bytes >= 0);
  if (reclaimable_by_shard_.size() <= static_cast<size_t>(shard)) {
    reclaimable_by_shard_.resize(static_cast<size_t>(shard) + 1, 0);
  }
  reclaimable_by_shard_[static_cast<size_t>(shard)] = bytes;
}

std::vector<int64_t> MemoryBroker::ReclaimTargets(int num_shards) const {
  std::vector<int64_t> targets(static_cast<size_t>(num_shards), 0);
  int64_t cached_total = 0;
  for (size_t s = 0; s < reclaimable_by_shard_.size(); ++s) {
    cached_total += reclaimable_by_shard_[s];
  }
  int64_t excess = outstanding_bytes_ + cached_total -
                   config_.total_budget_bytes;
  if (excess <= 0) return targets;
  // Greedy largest-cache-first (shard id breaks ties), so trims
  // concentrate on the shards hoarding the most — and the order is a
  // pure function of the reported sizes.
  std::vector<int> order;
  for (int s = 0; s < num_shards &&
                  static_cast<size_t>(s) < reclaimable_by_shard_.size();
       ++s) {
    if (reclaimable_by_shard_[static_cast<size_t>(s)] > 0) {
      order.push_back(s);
    }
  }
  std::sort(order.begin(), order.end(), [this](int a, int b) {
    const int64_t ca = reclaimable_by_shard_[static_cast<size_t>(a)];
    const int64_t cb = reclaimable_by_shard_[static_cast<size_t>(b)];
    return ca != cb ? ca > cb : a < b;
  });
  for (int s : order) {
    if (excess <= 0) break;
    const int64_t take =
        std::min(excess, reclaimable_by_shard_[static_cast<size_t>(s)]);
    targets[static_cast<size_t>(s)] = take;
    excess -= take;
  }
  return targets;
}

}  // namespace dqsched::core
