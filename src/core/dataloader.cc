#include "core/dataloader.h"

#include <chrono>
#include <thread>

#include "common/check.h"

namespace dcp {

DcpDataLoader::DcpDataLoader(BatchStream stream, MaskSpec mask_spec,
                             std::shared_ptr<Planner> planner, int lookahead)
    : stream_(std::move(stream)),
      mask_spec_(mask_spec),
      planner_(std::move(planner)),
      lookahead_(lookahead) {
  DCP_CHECK(planner_ != nullptr);
  DCP_CHECK_GE(lookahead, 0);
  metrics::Registry& registry = metrics::Registry::Global();
  next_wait_us_ = registry.GetHistogram(
      "dcp_loader_next_wait_us", {},
      "Time Next() blocked waiting for the front look-ahead plan, microseconds.");
  stalls_ = registry.GetCounter(
      "dcp_loader_stalls_total", {},
      "Next() calls whose plan was not ready yet (look-ahead miss).");
  retries_ = registry.GetCounter(
      "dcp_loader_plan_retries_total", {},
      "Transient (UNAVAILABLE) planning failures absorbed by the retry loop.");
  ready_ = registry.GetGauge(
      "dcp_loader_lookahead_ready", {},
      "Look-ahead slots whose plan was already finished at the last Next().");
  for (int i = 0; i <= lookahead_; ++i) {
    EnqueueOne();
  }
}

DcpDataLoader::~DcpDataLoader() {
  // Drain in-flight planning jobs before tearing down the engine pool.
  for (auto& fut : pending_) {
    fut.wait();
  }
}

void DcpDataLoader::EnqueueOne() {
  // Sampling the batch is cheap and must stay deterministic, so it happens on the calling
  // thread; only the planning runs on the engine's pool. The stream's lengths are always
  // positive, so a persistent planning failure here is a configuration bug — surfaced
  // loudly. UNAVAILABLE is the exception: a remote planner (PlanClient) returns it for
  // transient conditions — an overloaded server, a dropped connection mid-restart — and
  // a training job must ride those out, not abort, so the look-ahead job retries with a
  // short backoff before giving up.
  Batch batch = stream_.NextBatch();
  MaskSpec mask_spec = mask_spec_;
  Planner* planner = planner_.get();
  metrics::Counter* retries = retries_;
  pending_.push_back(planner_->pool().Submit(
      [batch = std::move(batch), mask_spec, planner, retries]() mutable {
        StatusOr<PlanHandle> handle = planner->Plan(batch.seqlens, mask_spec);
        for (int retry = 0;
             retry < 5 && !handle.ok() &&
             handle.status().code() == StatusCode::kUnavailable;
             ++retry) {
          retries->Increment();
          std::this_thread::sleep_for(std::chrono::milliseconds(20 << retry));
          handle = planner->Plan(batch.seqlens, mask_spec);
        }
        DCP_CHECK(handle.ok()) << "look-ahead planning failed: "
                               << handle.status().ToString();
        PlannedIteration iteration;
        iteration.batch = std::move(batch);
        iteration.handle = std::move(handle).value();
        return iteration;
      }));
}

PlannedIteration DcpDataLoader::Next() {
  DCP_CHECK(!pending_.empty());
  std::future<PlannedIteration> front = std::move(pending_.front());
  pending_.pop_front();
  EnqueueOne();
  // One wait_for(0) per slot: the window is small (kappa+1 futures), and the
  // ready count is the paper's look-ahead-effectiveness signal.
  int64_t ready = 0;
  for (const auto& fut : pending_) {
    if (fut.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
      ++ready;
    }
  }
  ready_->Set(ready);
  if (front.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
    stalls_->Increment();
    metrics::ScopedLatencyTimer wait_timer(next_wait_us_);
    return front.get();
  }
  return front.get();
}

int DcpDataLoader::PendingPlans() const { return static_cast<int>(pending_.size()); }

}  // namespace dcp
