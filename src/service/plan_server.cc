#include "service/plan_server.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/eventfd.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <thread>
#include <unordered_set>
#include <utility>

#include "common/check.h"
#include "common/metrics.h"
#include "core/plan_store.h"

namespace dcp {
namespace {

int64_t NowMs() { return metrics::MonotonicMillis(); }

PlanServeSource SourceFromOrigin(PlanOrigin origin) {
  switch (origin) {
    case PlanOrigin::kFresh:
      return PlanServeSource::kPlanned;
    case PlanOrigin::kMemoryCache:
      return PlanServeSource::kMemoryCache;
    case PlanOrigin::kStoreCache:
      return PlanServeSource::kStoreCache;
  }
  return PlanServeSource::kPlanned;
}

PlanServiceResponse ErrorResponse(StatusCode code, std::string message) {
  PlanServiceResponse response;
  response.code = code;
  response.message = std::move(message);
  return response;
}

// Longest accept backoff under sustained pressure (EMFILE storms): short enough that
// recovery is prompt, long enough that a full fd table doesn't spin the loop.
constexpr int64_t kMaxAcceptBackoffMs = 200;
// Frames gathered per writev: 3 iovecs each (head, record body, crc trailer).
constexpr size_t kMaxFramesPerWritev = 4;
constexpr int kMaxIovPerWritev = 12;
// Most descriptors the fd table is grown to up front (512 KB of kernel table).
constexpr rlim_t kMaxReservedFds = rlim_t{1} << 16;

// Grows the process fd table to cover every descriptor the fd limit allows (up to
// kMaxReservedFds). The kernel grows the table by doubling when a new fd lands past
// its end, and in a multithreaded process each growth waits out an RCU grace period
// inside the allocating call: 8-20 ms per doubling on a 4-vCPU Linux 6.x VM. Left to
// accept(2) on the accepting loop, that stalls every connection the loop serves each
// time the connection count crosses 64, 128, 256, 512, ... descriptors. The table
// never shrinks, so this pays once per process, before any connection is served.
// Best effort: F_DUPFD_CLOEXEC takes the lowest free fd at or above the target and
// never replaces an open one; a failure only forgoes the reservation.
void ReserveFdTable(int fd) {
  rlimit limit{};
  if (::getrlimit(RLIMIT_NOFILE, &limit) != 0 || limit.rlim_cur == 0) {
    return;
  }
  const rlim_t target = std::min(limit.rlim_cur, kMaxReservedFds) - 1;
  const int probe = ::fcntl(fd, F_DUPFD_CLOEXEC, static_cast<int>(target));
  if (probe >= 0) {
    ::close(probe);
  }
}

}  // namespace

struct PlanServer::PlanJob {
  std::string payload;  // Wire bytes; view.tenant aliases into these.
  std::vector<int64_t> seqlens;  // view.seqlens aliases this.
  PlanServiceRequestView view;
  std::string tenant;  // Owned copy: registry / quota / counter keys outlive payload.
  int64_t arrival_ms = 0;
  int64_t arrival_us = 0;  // Same instant as arrival_ms; trace/phase resolution.
  bool quota_held = false;
};

PlanServer::PlanServer(std::shared_ptr<TenantRegistry> registry,
                       PlanServerOptions options)
    : registry_(std::move(registry)),
      options_(options),
      trace_ring_(std::max(1, options.trace_ring_capacity)) {
  DCP_CHECK(registry_ != nullptr);
  DCP_CHECK_GE(options_.max_queue, 0);
  metrics_ = metrics::Registry::NewAttached({});
  const auto counter = [this](const char* name, const char* help) {
    return metrics_->GetCounter(name, {}, help);
  };
  counters_.connections_accepted =
      counter("dcp_server_connections_accepted_total", "Accepted connections");
  counters_.requests_received = counter("dcp_server_requests_received_total",
                                        "Well-formed request frames received");
  counters_.responses_sent =
      counter("dcp_server_responses_sent_total", "Response frames fully written");
  counters_.plan_ok = counter("dcp_server_plan_ok_total", "Plan requests served OK");
  counters_.plan_errors = counter("dcp_server_plan_errors_total",
                                  "Plan requests answered with a non-OK status");
  counters_.rejected_overload = counter("dcp_server_rejected_overload_total",
                                        "Requests rejected at the in-flight bound");
  counters_.malformed_frames =
      counter("dcp_server_malformed_frames_total", "Malformed or torn frames");
  counters_.shed_quota = counter("dcp_server_shed_quota_total",
                                 "Requests rejected over a tenant's quota");
  counters_.shed_deadline = counter("dcp_server_shed_deadline_total",
                                    "Requests dropped with an expired deadline");
  counters_.replica_cache_hits = counter(
      "dcp_server_replica_cache_hits_total", "Served from gossip-adopted records");
  counters_.sync_records_shipped = counter("dcp_server_sync_records_shipped_total",
                                           "Records shipped to gossip peers");
  counters_.sync_records_adopted = counter("dcp_server_sync_records_adopted_total",
                                           "Peer records validated and adopted");
  counters_.sync_records_rejected = counter("dcp_server_sync_records_rejected_total",
                                            "Peer records that failed validation");
  counters_.accept_soft_errors = counter("dcp_server_accept_soft_errors_total",
                                         "Transient accept failures (backoff+retry)");
  counters_.zero_copy_serves = counter("dcp_server_zero_copy_serves_total",
                                       "Responses written from shared record bytes");
  counters_.slow_reader_closes = counter("dcp_server_slow_reader_closes_total",
                                         "Connections shed at the outbox bound");
}

PlanServer::~PlanServer() { Stop(); }

Status PlanServer::Start(const ServiceAddress& address) {
  if (running()) {
    return Status::FailedPrecondition("server already running");
  }
  StatusOr<Listener> listener = Listener::Bind(address, options_.listen_backlog);
  if (!listener.ok()) {
    return listener.status();
  }
  listener_ = std::move(listener).value();
  bound_ = listener_.bound_address();
  ReserveFdTable(listener_.fd());
  pool_ = std::make_unique<ThreadPool>(std::max(1, options_.workers));
  // Undoes a partial start: the loops built so far (and their eventfds), the pool and
  // the listener.
  const auto abort_start = [this](Status status) {
    for (auto& loop : loops_) {
      ::close(loop->wake_fd);
    }
    loops_.clear();
    pool_.reset();
    listener_.Close();
    return status;
  };
  const int num_loops = std::max(1, options_.io_threads);
  for (int i = 0; i < num_loops; ++i) {
    StatusOr<Poller> poller = Poller::Create();
    if (!poller.ok()) {
      return abort_start(poller.status());
    }
    auto loop = std::make_unique<IoLoop>(std::move(poller).value());
    loop->index = i;
    const std::vector<metrics::Label> loop_labels = {{"loop", std::to_string(i)}};
    loop->queue_depth = metrics_->GetGauge(
        "dcp_server_loop_queue_depth", loop_labels,
        "Response frames queued across this IO loop's connections");
    loop->output_queue_bytes = metrics_->GetGauge(
        "dcp_server_loop_output_queue_bytes", loop_labels,
        "Response bytes queued across this IO loop's connections");
    loop->wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (loop->wake_fd < 0) {
      return abort_start(Status::Internal("cannot create IO loop eventfd"));
    }
    Status added = loop->poller.Add(loop->wake_fd, /*want_read=*/true,
                                    /*want_write=*/false);
    if (added.ok() && i == 0) {
      added = loop->poller.Add(listener_.fd(), /*want_read=*/true,
                               /*want_write=*/false);
    }
    if (!added.ok()) {
      ::close(loop->wake_fd);
      return abort_start(added);
    }
    loops_.push_back(std::move(loop));
  }
  // Publish the loop count stats pollers read, BEFORE running_ flips: a bench or
  // stats thread observing running() must never deref loops_ itself — Stop() clears
  // that vector concurrently with late pollers.
  io_thread_count_.store(static_cast<int>(loops_.size()), std::memory_order_release);
  running_.store(true, std::memory_order_release);
  for (auto& loop : loops_) {
    IoLoop* raw = loop.get();
    raw->thread = std::thread([this, raw] { IoLoopMain(*raw); });
  }
  if (!options_.peers.empty() && options_.gossip_interval_ms > 0) {
    gossip_thread_ = std::thread([this] { GossipLoop(); });
  }
  return Status::Ok();
}

void PlanServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    return;
  }
  io_thread_count_.store(0, std::memory_order_release);
  for (auto& loop : loops_) {
    Wake(*loop);
  }
  gossip_cv_.NotifyAll();
  if (gossip_thread_.joinable()) {
    gossip_thread_.join();
  }
  for (auto& loop : loops_) {
    if (loop->thread.joinable()) {
      loop->thread.join();
    }
  }
  // ThreadPool teardown drains queued jobs; their responses land in outboxes nothing
  // will flush, which is harmless — the connections close right below. The pool must
  // drain BEFORE the connections are freed: jobs hold raw Connection pointers.
  pool_.reset();
  for (auto& loop : loops_) {
    loop->conns.clear();  // Closes every socket; blocked clients see EOF.
    loop->graveyard.clear();
    {
      MutexLock lock(loop->mu);
      loop->incoming.clear();
      loop->notify_queue.clear();
    }
    if (loop->wake_fd >= 0) {
      ::close(loop->wake_fd);
      loop->wake_fd = -1;
    }
  }
  loops_.clear();
  listener_.Close();
}

void PlanServer::Wake(IoLoop& loop) {
  if (loop.wake_fd < 0) {
    return;
  }
  const uint64_t one = 1;
  ssize_t written;
  do {
    written = ::write(loop.wake_fd, &one, sizeof(one));
  } while (written < 0 && errno == EINTR);
}

void PlanServer::DrainWake(IoLoop& loop) {
  uint64_t count = 0;
  while (::read(loop.wake_fd, &count, sizeof(count)) > 0) {
  }
}

void PlanServer::IoLoopMain(IoLoop& loop) {
  std::vector<Poller::Event> events;
  while (running()) {
    int timeout_ms = 50;
    if (loop.accept_paused) {
      const int64_t until = loop.accept_resume_ms - NowMs();
      timeout_ms = static_cast<int>(std::clamp<int64_t>(until, 1, timeout_ms));
    }
    (void)loop.poller.Wait(timeout_ms, &events);
    if (!running()) {
      break;
    }
    for (const Poller::Event& ev : events) {
      if (ev.fd == loop.wake_fd) {
        DrainWake(loop);
        continue;
      }
      if (loop.index == 0 && ev.fd == listener_.fd()) {
        DoAccept(loop);
        continue;
      }
      auto it = loop.conns.find(ev.fd);
      if (it == loop.conns.end()) {
        continue;  // Closed earlier in this batch.
      }
      Connection* conn = it->second.get();
      if (ev.writable) {
        FlushWrites(loop, conn);
        // FlushWrites may close the connection; re-check before reading.
        auto again = loop.conns.find(ev.fd);
        if (again == loop.conns.end() || again->second.get() != conn) {
          continue;
        }
      }
      if (ev.readable || ev.hangup) {
        if (conn->read_open) {
          OnReadable(loop, conn);
        } else if (ev.hangup) {
          // Peer fully gone (RST / both halves closed): pending responses are
          // undeliverable, so stop holding the connection for them.
          CloseConn(loop, conn);
        }
      }
    }
    if (loop.accept_paused && NowMs() >= loop.accept_resume_ms) {
      ResumeAccept(loop);
    }
    AdoptIncoming(loop);
    ProcessNotifies(loop);
    // Half-closed connections whose last worker job finished since the response was
    // flushed have no event left to trigger them; sweep them on the tick.
    std::vector<Connection*> lingering;
    for (auto& entry : loop.conns) {
      if (!entry.second->read_open || entry.second->close_after_drain) {
        lingering.push_back(entry.second.get());
      }
    }
    for (Connection* conn : lingering) {
      MaybeFinish(loop, conn);
    }
    Reap(loop);
  }
}

void PlanServer::DoAccept(IoLoop& loop) {
  while (running()) {
    if (options_.fault_injector != nullptr) {
      const FaultDecision fault = options_.fault_injector->Decide(FaultPoint::kAccept);
      if (fault.action == FaultAction::kFail || fault.action == FaultAction::kTear) {
        // Simulated transient accept-path pressure (EMFILE/ECONNABORTED). The pending
        // connection is NOT consumed — it stays in the backlog for the retry.
        counters_.accept_soft_errors->Increment();
        PauseAccept(loop);
        return;
      }
    }
    const int fd = ::accept4(listener_.fd(), nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        loop.accept_backoff_ms = 1;  // Backlog drained: pressure (if any) is over.
        return;
      }
      // EMFILE, ENFILE, ECONNABORTED, ENOBUFS, ...: every real accept errno here is
      // transient operational pressure, not a programming error. Count it, back off,
      // retry — the one thing an accept loop must never do is exit and turn a full fd
      // table into a permanently deaf server.
      counters_.accept_soft_errors->Increment();
      PauseAccept(loop);
      return;
    }
    loop.accept_backoff_ms = 1;
    if (bound_.kind == ServiceAddress::Kind::kTcp) {
      // Plan RPCs are small request / large response; never trade latency for batching.
      const int one = 1;
      (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
    counters_.connections_accepted->Increment();
    auto conn = std::make_unique<Connection>(options_.max_frame_payload_bytes);
    conn->socket = Socket(fd);
    // Chaos mode (dcpctl serve --chaos) faults server-side IO too.
    conn->socket.set_fault_injector(GlobalFaultInjector());
    conn->fd = fd;
    const int target =
        static_cast<int>(next_loop_.fetch_add(1, std::memory_order_relaxed) %
                         loops_.size());
    conn->loop_index = target;
    if (target == loop.index) {
      AdoptConnection(loop, std::move(conn));
    } else {
      IoLoop& peer = *loops_[target];
      {
        MutexLock lock(peer.mu);
        peer.incoming.push_back(std::move(conn));
      }
      Wake(peer);
    }
  }
}

void PlanServer::PauseAccept(IoLoop& loop) {
  if (!loop.accept_paused) {
    loop.poller.Remove(listener_.fd());
    loop.accept_paused = true;
  }
  loop.accept_resume_ms = NowMs() + loop.accept_backoff_ms;
  loop.accept_backoff_ms = std::min(loop.accept_backoff_ms * 2, kMaxAcceptBackoffMs);
}

void PlanServer::ResumeAccept(IoLoop& loop) {
  loop.accept_paused = false;
  (void)loop.poller.Add(listener_.fd(), /*want_read=*/true, /*want_write=*/false);
  DoAccept(loop);  // The backlog may already hold connections; no edge will fire.
}

void PlanServer::AdoptConnection(IoLoop& loop, std::unique_ptr<Connection> conn) {
  Connection* raw = conn.get();
  if (!loop.poller.Add(raw->fd, /*want_read=*/true, /*want_write=*/false).ok()) {
    return;  // Destroys (closes) the connection.
  }
  loop.conns.emplace(raw->fd, std::move(conn));
  // Bytes may already be waiting (level-triggered pollers would report them, but only
  // on the next Wait; serve them now).
  OnReadable(loop, raw);
}

void PlanServer::AdoptIncoming(IoLoop& loop) {
  std::vector<std::unique_ptr<Connection>> incoming;
  {
    MutexLock lock(loop.mu);
    incoming.swap(loop.incoming);
  }
  for (auto& conn : incoming) {
    AdoptConnection(loop, std::move(conn));
  }
}

void PlanServer::ProcessNotifies(IoLoop& loop) {
  std::vector<Connection*> pending;
  {
    MutexLock lock(loop.mu);
    pending.swap(loop.notify_queue);
  }
  for (Connection* conn : pending) {
    {
      MutexLock lock(conn->mu);
      conn->notified = false;
    }
    // The connection may have been closed (graveyarded) since the notify was queued;
    // only flush it if it is still this loop's live conn for that fd.
    auto it = loop.conns.find(conn->fd);
    if (it == loop.conns.end() || it->second.get() != conn) {
      continue;
    }
    FlushWrites(loop, conn);
  }
}

void PlanServer::OnReadable(IoLoop& loop, Connection* conn) {
  char buf[64 * 1024];
  while (conn->read_open) {
    const IoResult r = conn->socket.ReadSome(buf, sizeof(buf));
    switch (r.kind) {
      case IoResult::Kind::kProgress:
        conn->assembler.Append(buf, r.bytes);
        ProcessInbound(loop, conn);
        if (conn->close_after_drain) {
          conn->read_open = false;
          (void)loop.poller.Modify(conn->fd, /*want_read=*/false,
                                   conn->registered_write);
          MaybeFinish(loop, conn);
          return;
        }
        continue;
      case IoResult::Kind::kWouldBlock:
        return;
      case IoResult::Kind::kEof:
        if (conn->assembler.buffered_bytes() > 0 && !conn->assembler.failed()) {
          // The peer closed mid-frame: a torn frame, counted like any other.
          counters_.malformed_frames->Increment();
        }
        conn->read_open = false;
        (void)loop.poller.Modify(conn->fd, /*want_read=*/false,
                                 conn->registered_write);
        MaybeFinish(loop, conn);
        return;
      case IoResult::Kind::kError:
        CloseConn(loop, conn);
        return;
    }
  }
}

void PlanServer::ProcessInbound(IoLoop& loop, Connection* conn) {
  while (!conn->close_after_drain) {
    StatusOr<Frame> frame = conn->assembler.Next();
    if (!frame.ok()) {
      if (frame.status().code() == StatusCode::kNotFound) {
        return;  // Need more bytes.
      }
      // Corrupt or oversized frame: count it, answer, and drain-then-close — framing
      // sync is gone, but queued responses still go out first.
      counters_.malformed_frames->Increment();
      QueueResponse(conn, EncodeFrameParts(FrameType::kErrorResponse,
                                           SerializePlanServiceResponse(ErrorResponse(
                                               StatusCode::kDataLoss,
                                               frame.status().message()))));
      conn->close_after_drain = true;
      return;
    }
    HandleInboundFrame(loop, conn, std::move(frame).value());
  }
}

void PlanServer::HandleInboundFrame(IoLoop& loop, Connection* conn, Frame frame) {
  (void)loop;
  counters_.requests_received->Increment();
  // Backpressure: admit the request only if the in-flight budget allows. The loop
  // answers overload itself so a saturated worker pool still rejects promptly. The
  // rejection frame matches the request's frame type — a kSyncRequest must never be
  // answered with a kPlanResponse the sync client cannot decode.
  const int admitted = in_flight_.fetch_add(1, std::memory_order_acq_rel);
  if (admitted >= options_.max_queue) {
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    counters_.rejected_overload->Increment();
    const std::string message = "server overloaded: " +
                                std::to_string(options_.max_queue) +
                                " requests already in flight";
    switch (frame.type) {
      case FrameType::kSyncRequest: {
        PlanSyncResponse overload;
        overload.code = StatusCode::kUnavailable;
        overload.message = message;
        QueueResponse(conn, EncodeFrameParts(FrameType::kSyncResponse,
                                             SerializePlanSyncResponse(overload)));
        break;
      }
      case FrameType::kMetricsRequest: {
        PlanServiceMetricsResponse overload;
        overload.code = StatusCode::kUnavailable;
        overload.message = message;
        QueueResponse(
            conn, EncodeFrameParts(FrameType::kMetricsResponse,
                                   SerializePlanServiceMetricsResponse(overload)));
        break;
      }
      default:
        QueueResponse(conn,
                      EncodeFrameParts(FrameType::kPlanResponse,
                                       SerializePlanServiceResponse(ErrorResponse(
                                           StatusCode::kUnavailable, message))));
        break;
    }
    return;
  }
  if (frame.type == FrameType::kPlanRequest) {
    // Plan requests are decoded on the loop thread: per-tenant admission needs the
    // tenant name before a worker slot is committed, and deadline shedding needs the
    // arrival timestamp, not the (possibly much later) worker-pickup time. The decode
    // is views over the payload plus one exactly sized seqlens vector.
    auto job = std::make_shared<PlanJob>();
    job->payload = std::move(frame.payload);
    job->arrival_us = metrics::MonotonicMicros();
    job->arrival_ms = job->arrival_us / 1000;
    StatusOr<PlanServiceRequestView> view =
        DeserializePlanServiceRequestView(job->payload, &job->seqlens);
    if (!view.ok()) {
      in_flight_.fetch_sub(1, std::memory_order_acq_rel);
      counters_.malformed_frames->Increment();
      QueueResponse(conn, EncodeFrameParts(FrameType::kPlanResponse,
                                           SerializePlanServiceResponse(ErrorResponse(
                                               view.status().code(),
                                               view.status().message()))));
      return;
    }
    job->view = view.value();
    job->tenant = std::string(job->view.tenant);
    if (options_.max_inflight_per_tenant > 0 &&
        registry_->Find(job->tenant) != nullptr) {
      bool over_quota = false;
      {
        MutexLock lock(quota_mu_);
        int& inflight = tenant_inflight_[job->tenant];
        if (inflight >= options_.max_inflight_per_tenant) {
          over_quota = true;
        } else {
          ++inflight;
          job->quota_held = true;
        }
      }
      // Counters and the rejection frame run outside quota_mu_: the counter path
      // takes stats_mu_ and the registry mutex, and quota_mu_ stays a leaf.
      if (over_quota) {
        in_flight_.fetch_sub(1, std::memory_order_acq_rel);
        counters_.shed_quota->Increment();
        TenantCountersFor(job->tenant).shed_quota->Increment();
        QueueResponse(
            conn, EncodeFrameParts(
                      FrameType::kPlanResponse,
                      SerializePlanServiceResponse(ErrorResponse(
                          StatusCode::kUnavailable,
                          "tenant '" + job->tenant + "' over quota: " +
                              std::to_string(options_.max_inflight_per_tenant) +
                              " requests already in flight"))));
        return;
      }
    }
    conn->pending_jobs.fetch_add(1, std::memory_order_acq_rel);
    pool_->Submit([this, conn, job] {
      HandlePlanJob(conn, job);
      in_flight_.fetch_sub(1, std::memory_order_acq_rel);
      // Last touch of `conn`: the owning loop frees it only at pending_jobs == 0.
      conn->pending_jobs.fetch_sub(1, std::memory_order_acq_rel);
    });
    return;
  }
  conn->pending_jobs.fetch_add(1, std::memory_order_acq_rel);
  pool_->Submit([this, conn, frame = std::move(frame)]() mutable {
    HandleFrame(conn, std::move(frame));
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    conn->pending_jobs.fetch_sub(1, std::memory_order_acq_rel);
  });
}

void PlanServer::FlushWrites(IoLoop& loop, Connection* conn) {
  while (true) {
    iovec iov[kMaxIovPerWritev];
    int iovcnt = 0;
    bool dead = false;
    {
      MutexLock lock(conn->mu);
      dead = conn->dead;
      if (!dead) {
        // Gather up to kMaxFramesPerWritev frames' unwritten segments. Workers only
        // ever push_back and the loop thread alone pops, so the deque elements (and
        // the shared record bytes they point at) stay stable while writev runs
        // outside the lock.
        size_t offset = conn->front_offset;
        size_t frames = 0;
        for (auto it = conn->outbox.begin();
             it != conn->outbox.end() && frames < kMaxFramesPerWritev; ++it, ++frames) {
          const FrameParts& parts = it->parts;
          if (offset < parts.head.size()) {
            iov[iovcnt].iov_base = const_cast<char*>(parts.head.data()) + offset;
            iov[iovcnt].iov_len = parts.head.size() - offset;
            ++iovcnt;
            offset = 0;
          } else {
            offset -= parts.head.size();
          }
          const size_t body = parts.body_size();
          if (body > 0) {
            if (offset < body) {
              iov[iovcnt].iov_base = const_cast<char*>(parts.body->data()) + offset;
              iov[iovcnt].iov_len = body - offset;
              ++iovcnt;
              offset = 0;
            } else {
              offset -= body;
            }
          }
          if (offset < parts.crc.size()) {
            iov[iovcnt].iov_base = const_cast<char*>(parts.crc.data()) + offset;
            iov[iovcnt].iov_len = parts.crc.size() - offset;
            ++iovcnt;
            offset = 0;
          } else {
            offset -= parts.crc.size();
          }
        }
      }
    }
    if (dead) {
      CloseConn(loop, conn);
      return;
    }
    if (iovcnt == 0) {
      if (conn->registered_write) {
        conn->registered_write = false;
        (void)loop.poller.Modify(conn->fd, conn->read_open, /*want_write=*/false);
      }
      MaybeFinish(loop, conn);
      return;
    }
    const IoResult r = conn->socket.Writev(iov, iovcnt);
    switch (r.kind) {
      case IoResult::Kind::kProgress: {
        size_t completed = 0;
        size_t completed_bytes = 0;
        std::vector<PendingResponseTrace> drained_traces;
        {
          MutexLock lock(conn->mu);
          conn->front_offset += r.bytes;
          while (!conn->outbox.empty() &&
                 conn->front_offset >= conn->outbox.front().parts.TotalBytes()) {
            OutboxEntry& front = conn->outbox.front();
            const size_t bytes = front.parts.TotalBytes();
            conn->front_offset -= bytes;
            conn->outbox_bytes -= bytes;
            completed_bytes += bytes;
            if (front.trace.armed()) {
              drained_traces.push_back(std::move(front.trace));
            }
            conn->outbox.pop_front();
            ++completed;
          }
        }
        if (completed > 0) {
          counters_.responses_sent->Add(static_cast<int64_t>(completed));
          loop.queue_depth->Add(-static_cast<int64_t>(completed));
          loop.output_queue_bytes->Add(-static_cast<int64_t>(completed_bytes));
        }
        // Finalized outside conn->mu: the slow log and histogram lookups must not
        // ride under a lock QueueResponse contends for.
        for (PendingResponseTrace& pending : drained_traces) {
          FinalizeResponseTrace(pending, /*drained=*/true);
        }
        continue;
      }
      case IoResult::Kind::kWouldBlock:
        if (!conn->registered_write) {
          conn->registered_write = true;
          (void)loop.poller.Modify(conn->fd, conn->read_open, /*want_write=*/true);
        }
        return;
      case IoResult::Kind::kEof:
      case IoResult::Kind::kError:
        CloseConn(loop, conn);
        return;
    }
  }
}

void PlanServer::CloseConn(IoLoop& loop, Connection* conn) {
  std::vector<PendingResponseTrace> discarded;
  {
    MutexLock lock(conn->mu);
    conn->dead = true;
    if (!conn->outbox.empty()) {
      loop.queue_depth->Add(-static_cast<int64_t>(conn->outbox.size()));
      loop.output_queue_bytes->Add(-static_cast<int64_t>(conn->outbox_bytes));
    }
    for (OutboxEntry& entry : conn->outbox) {
      if (entry.trace.armed()) {
        discarded.push_back(std::move(entry.trace));
      }
    }
    conn->outbox.clear();
    conn->outbox_bytes = 0;
  }
  // Undelivered responses still leave a trace (ok stays as served; the write-drain
  // phase just ends at the close instant) so a shed request remains diagnosable.
  for (PendingResponseTrace& pending : discarded) {
    FinalizeResponseTrace(pending, /*drained=*/false);
  }
  auto it = loop.conns.find(conn->fd);
  if (it == loop.conns.end() || it->second.get() != conn) {
    return;  // Already closed.
  }
  loop.poller.Remove(conn->fd);
  conn->socket.Close();
  // Workers may still hold this pointer (pending_jobs > 0) or a notify for it may be
  // queued; park it in the graveyard until both drain.
  loop.graveyard.push_back(std::move(it->second));
  loop.conns.erase(it);
}

void PlanServer::MaybeFinish(IoLoop& loop, Connection* conn) {
  bool dead;
  bool drained;
  {
    MutexLock lock(conn->mu);
    dead = conn->dead;
    drained = conn->outbox.empty();
  }
  if (dead) {
    CloseConn(loop, conn);
    return;
  }
  if ((conn->close_after_drain || !conn->read_open) && drained &&
      conn->pending_jobs.load(std::memory_order_acquire) == 0) {
    CloseConn(loop, conn);
  }
}

void PlanServer::Reap(IoLoop& loop) {
  for (auto it = loop.graveyard.begin(); it != loop.graveyard.end();) {
    Connection* conn = it->get();
    bool notified;
    {
      MutexLock lock(conn->mu);
      notified = conn->notified;
    }
    if (!notified && conn->pending_jobs.load(std::memory_order_acquire) == 0) {
      it = loop.graveyard.erase(it);
    } else {
      ++it;
    }
  }
}

void PlanServer::QueueResponse(Connection* conn, FrameParts parts,
                               PendingResponseTrace trace) {
  IoLoop& loop = *loops_[static_cast<size_t>(conn->loop_index)];
  const size_t total_bytes = parts.TotalBytes();
  bool notify = false;
  bool shed = false;
  bool queued = false;
  {
    MutexLock lock(conn->mu);
    if (conn->dead) {
      return;  // Closing; the response is undeliverable.
    }
    if (conn->outbox_bytes + total_bytes > options_.max_output_queue_bytes) {
      // Slow-reader shedding closes the whole connection rather than dropping one
      // response: the protocol is strictly request-response ordered, and a silently
      // missing response would desynchronize every later reply on the stream.
      conn->dead = true;
      shed = true;
    } else {
      conn->outbox_bytes += total_bytes;
      conn->outbox.push_back({std::move(parts), std::move(trace)});
      queued = true;
    }
    if (!conn->notified) {
      conn->notified = true;
      notify = true;
    }
  }
  if (queued) {
    loop.queue_depth->Add(1);
    loop.output_queue_bytes->Add(static_cast<int64_t>(total_bytes));
  }
  if (shed) {
    counters_.slow_reader_closes->Increment();
  }
  if (notify) {
    {
      MutexLock lock(loop.mu);
      loop.notify_queue.push_back(conn);
    }
    Wake(loop);
  }
}

void PlanServer::QueuePlanResponse(Connection* conn,
                                   const PlanServiceResponse& response,
                                   std::shared_ptr<const std::string> record,
                                   std::shared_ptr<metrics::Trace> trace) {
  const size_t record_size = record == nullptr ? 0 : record->size();
  std::string head = SerializePlanServiceResponseHead(response, record_size);
  if (record_size > 0) {
    counters_.zero_copy_serves->Increment();
  }
  PendingResponseTrace pending{};
  if (trace != nullptr) {
    pending.trace = std::move(trace);
    // Resolved here on the worker thread, where tenant and serve source are both
    // known, so the loop thread finalizes with one histogram Record().
    pending.latency_hist =
        ServeHistogramFor(pending.trace->tenant, response.source);
    pending.enqueue_us = metrics::MonotonicMicros();
  }
  QueueResponse(conn, EncodeFrameParts(FrameType::kPlanResponse, head,
                                       std::move(record)),
                std::move(pending));
}

void PlanServer::FinalizeResponseTrace(PendingResponseTrace& pending, bool drained) {
  metrics::Trace& trace = *pending.trace;
  const int64_t end_us = metrics::MonotonicMicros();
  metrics::RecordPhase(&trace, metrics::TracePhase::kWriteDrain,
                       end_us - pending.enqueue_us);
  trace.total_us = end_us - trace.start_us;
  if (!drained) {
    trace.ok = false;  // The response never reached the peer.
  }
  if (pending.latency_hist != nullptr) {
    pending.latency_hist->Record(trace.total_us);
  }
  if (options_.slow_request_log_ms > 0 &&
      trace.total_us >= options_.slow_request_log_ms * 1000) {
    std::fprintf(stderr, "dcp::PlanServer: slow request: %s\n",
                 metrics::FormatTrace(trace).c_str());
  }
  trace_ring_.Push(trace);
}

void PlanServer::HandlePlanJob(Connection* conn,
                               const std::shared_ptr<PlanJob>& job) {
  const auto release_quota = [this, &job] {
    if (job->quota_held) {
      MutexLock lock(quota_mu_);
      --tenant_inflight_[job->tenant];
    }
  };
  // Every plan request gets a trace; the client's id (v3 wire field) keys it when
  // present so client and server logs line up, otherwise a fresh id is minted. The
  // scope makes it ambient for this worker thread: the engine's cache-probe /
  // store-read / plan-stage phases all land in it without further plumbing.
  auto trace = std::make_shared<metrics::Trace>();
  trace->trace_id =
      job->view.trace_id != 0 ? job->view.trace_id : metrics::NextTraceId();
  trace->tenant = job->tenant;
  trace->start_us = job->arrival_us;
  metrics::TraceContext::Scope scope(trace.get());
  metrics::RecordPhase(metrics::TracePhase::kQueueWait,
                       metrics::MonotonicMicros() - job->arrival_us);
  if (options_.fault_injector != nullptr) {
    const FaultDecision fault = options_.fault_injector->Decide(FaultPoint::kServe);
    if (fault.action == FaultAction::kDelay) {
      std::this_thread::sleep_for(std::chrono::milliseconds(fault.delay_ms));
    } else if (fault.action == FaultAction::kFail) {
      QueuePlanResponse(conn,
                        ErrorResponse(StatusCode::kUnavailable,
                                      "fault injection: serve failed"),
                        nullptr);
      release_quota();
      return;
    }
  }
  if (job->view.deadline_ms > 0 &&
      NowMs() - job->arrival_ms >= job->view.deadline_ms) {
    // The caller's budget is already gone (it has timed out, failed over, or hedged
    // away); planning now would only steal workers from live requests.
    counters_.shed_deadline->Increment();
    trace->ok = false;
    trace->source = "shed-deadline";
    QueuePlanResponse(
        conn,
        ErrorResponse(StatusCode::kDeadlineExceeded,
                      "deadline of " + std::to_string(job->view.deadline_ms) +
                          "ms expired before planning started"),
        nullptr, trace);
    release_quota();
    return;
  }
  ServeResult served = HandlePlanRequest(job->tenant, job->view.seqlens,
                                         job->view.mask_spec, job->view.block_size);
  trace->ok = served.response.code == StatusCode::kOk;
  trace->source = PlanServeSourceName(served.response.source);
  QueuePlanResponse(conn, served.response, std::move(served.record), trace);
  release_quota();
}

void PlanServer::HandleFrame(Connection* conn, Frame frame) {
  switch (frame.type) {
    case FrameType::kSyncRequest: {
      StatusOr<PlanSyncRequest> request = DeserializePlanSyncRequest(frame.payload);
      PlanSyncResponse response;
      if (!request.ok()) {
        counters_.malformed_frames->Increment();
        response.code = request.status().code();
        response.message = request.status().message();
      } else {
        response = HandleSyncRequest(request.value());
      }
      QueueResponse(conn, EncodeFrameParts(FrameType::kSyncResponse,
                                           SerializePlanSyncResponse(response)));
      return;
    }
    case FrameType::kMetricsRequest: {
      StatusOr<PlanServiceMetricsRequest> request =
          DeserializePlanServiceMetricsRequest(frame.payload);
      PlanServiceMetricsResponse response;
      if (!request.ok()) {
        counters_.malformed_frames->Increment();
        response.code = request.status().code();
        response.message = request.status().message();
      } else {
        // The process-global registry, not just this server's child: one scrape
        // shows the engines, stores, replica sets, and server in one exposition.
        response.text = metrics::Registry::Global().RenderPrometheus(
            request.value().name_prefix);
      }
      QueueResponse(
          conn, EncodeFrameParts(FrameType::kMetricsResponse,
                                 SerializePlanServiceMetricsResponse(response)));
      return;
    }
    default: {
      // Well-framed but not a request type: answer with an error and keep the
      // connection (framing is intact, the client just sent nonsense).
      counters_.malformed_frames->Increment();
      QueueResponse(
          conn,
          EncodeFrameParts(
              FrameType::kErrorResponse,
              SerializePlanServiceResponse(ErrorResponse(
                  StatusCode::kInvalidArgument,
                  "frame type " + std::to_string(static_cast<uint32_t>(frame.type)) +
                      " is not a request"))));
      return;
    }
  }
}

PlanServer::ServeResult PlanServer::HandlePlanRequest(
    const std::string& tenant, std::span<const int64_t> seqlens,
    const MaskSpec& mask_spec, int64_t block_size) {
  ServeResult result;
  const std::shared_ptr<Engine> engine = registry_->Find(tenant);
  if (engine == nullptr) {
    // Counted only in the service-wide plan_errors: keying tenant_counters_ on
    // arbitrary unknown names would let a client cycling bogus tenants grow server
    // memory without bound (and the entries would never surface in stats anyway).
    result.response =
        ErrorResponse(StatusCode::kNotFound, "unknown tenant '" + tenant + "'");
  } else {
    TenantCountersFor(tenant).requests->Increment();
    // Gossip-adopted records: a peer may have planned this exact shape already. The
    // signature is computable without planning, except under auto-tune with block 0
    // (the chosen block size — part of the signature — is only known after tuning;
    // RequestSignature fails then). Everything else goes through the engine, so its
    // hit/miss counters and the memory/store/planned sources stay exact.
    StatusOr<PlanSignature> sig =
        engine->RequestSignature(seqlens, mask_spec, block_size);
    if (sig.ok()) {
      MutexLock lock(peer_records_mu_);
      if (const auto* bytes = peer_records_.Find(sig.value())) {
        result.response.source = PlanServeSource::kReplicaCache;
        result.response.signature_lo = sig.value().lo;
        result.response.signature_hi = sig.value().hi;
        result.record = *bytes;  // Shared bytes; never copied.
      }
    }
    if (result.record != nullptr) {
      counters_.replica_cache_hits->Increment();
      counters_.plan_ok->Increment();
      return result;
    }
    PlanOrigin origin = PlanOrigin::kFresh;
    StatusOr<PlanHandle> planned =
        engine->PlanWithBlockSize(seqlens, mask_spec, block_size, &origin);
    if (!planned.ok()) {
      result.response =
          ErrorResponse(planned.status().code(), planned.status().message());
    } else {
      const PlanHandle& handle = planned.value();
      result.response.source = SourceFromOrigin(origin);
      result.response.signature_lo = handle->signature.lo;
      result.response.signature_hi = handle->signature.hi;
      // The wire carries the persistence format: one CRC-trailed PlanStore record,
      // encoded once per handle and served as the handle's shared bytes on later
      // hits — the response path never copies them.
      result.record = handle->Record();
    }
  }
  if (result.response.code == StatusCode::kOk) {
    counters_.plan_ok->Increment();
  } else {
    counters_.plan_errors->Increment();
    if (engine != nullptr) {
      TenantCountersFor(tenant).plan_errors->Increment();
    }
  }
  return result;
}

PlanServer::TenantCounters& PlanServer::TenantCountersFor(const std::string& tenant) {
  {
    MutexLock lock(stats_mu_);
    const auto it = tenant_counters_.find(tenant);
    if (it != tenant_counters_.end()) {
      return it->second;
    }
  }
  // Resolve outside stats_mu_ so the registry mutex never nests under it; racing
  // resolvers get identical pointers (GetCounter is idempotent) and emplace keeps
  // whichever entry landed first. References stay valid: unordered_map never
  // invalidates them on rehash.
  TenantCounters fresh;
  const std::vector<metrics::Label> labels = {{"tenant", tenant}};
  fresh.requests = metrics_->GetCounter("dcp_server_tenant_requests_total", labels,
                                        "Plan RPCs routed to the tenant");
  fresh.plan_errors =
      metrics_->GetCounter("dcp_server_tenant_plan_errors_total", labels,
                           "Plan RPCs answered non-OK for the tenant");
  fresh.shed_quota =
      metrics_->GetCounter("dcp_server_tenant_shed_quota_total", labels,
                           "Plan RPCs rejected over the tenant's quota");
  MutexLock lock(stats_mu_);
  return tenant_counters_.emplace(tenant, fresh).first->second;
}

metrics::Histogram* PlanServer::ServeHistogramFor(const std::string& tenant,
                                                  PlanServeSource source) {
  return metrics_->GetHistogram(
      "dcp_server_serve_latency_us",
      {{"tenant", tenant}, {"source", PlanServeSourceName(source)}},
      "Plan request latency, arrival to last response byte written");
}

PlanSyncResponse PlanServer::HandleSyncRequest(const PlanSyncRequest& request) {
  PlanSyncResponse response;
  const std::shared_ptr<Engine> engine = registry_->Find(request.tenant);
  if (engine == nullptr) {
    response.code = StatusCode::kNotFound;
    response.message = "unknown tenant '" + request.tenant + "'";
    return response;
  }
  std::unordered_set<PlanSignature, PlanSignatureHash> peer_has;
  peer_has.reserve(request.have.size());
  for (const auto& pair : request.have) {
    PlanSignature sig;
    sig.lo = pair.first;
    sig.hi = pair.second;
    peer_has.insert(sig);
  }
  // Ship what the peer lacks: this engine's own compiled plans first (the authoritative
  // copies), then the records we ourselves adopted from other replicas — gossip is
  // transitive, so a plan computed once reaches replicas that never talk directly.
  std::unordered_set<PlanSignature, PlanSignatureHash> shipped;
  const int cap = std::max(0, options_.max_sync_records_per_exchange);
  for (const PlanHandle& handle : engine->CachedPlans()) {
    if (static_cast<int>(response.records.size()) >= cap) {
      break;
    }
    if (peer_has.count(handle->signature) != 0 ||
        !shipped.insert(handle->signature).second) {
      continue;
    }
    response.records.push_back(*handle->Record());
  }
  // Snapshot the shared pointers, then copy the bytes outside the serve-path lock.
  std::vector<std::pair<PlanSignature, std::shared_ptr<const std::string>>> adopted;
  {
    MutexLock lock(peer_records_mu_);
    peer_records_.ForEach(
        [&adopted](const PlanSignature& sig,
                   const std::shared_ptr<const std::string>& bytes) {
          adopted.emplace_back(sig, bytes);
        });
  }
  for (const auto& [sig, bytes] : adopted) {
    if (static_cast<int>(response.records.size()) >= cap) {
      break;
    }
    if (peer_has.count(sig) != 0 || !shipped.insert(sig).second) {
      continue;
    }
    response.records.push_back(*bytes);
  }
  if (options_.fault_injector != nullptr) {
    for (std::string& record : response.records) {
      const FaultDecision fault =
          options_.fault_injector->Decide(FaultPoint::kSyncRecord);
      if (fault.action == FaultAction::kStale && !record.empty()) {
        // A "stale" replica ships a record whose bytes no longer match its CRC — the
        // receiver must catch this in validation, never adopt it.
        record[record.size() / 2] ^= 0x20;
      }
    }
  }
  counters_.sync_records_shipped->Add(
      static_cast<int64_t>(response.records.size()));
  return response;
}

std::vector<std::pair<uint64_t, uint64_t>> PlanServer::LocalSignatureIndex(
    Engine& engine) {
  std::vector<std::pair<uint64_t, uint64_t>> index;
  for (const PlanHandle& handle : engine.CachedPlans()) {
    index.emplace_back(handle->signature.lo, handle->signature.hi);
  }
  MutexLock lock(peer_records_mu_);
  peer_records_.ForEach(
      [&index](const PlanSignature& sig, const std::shared_ptr<const std::string>&) {
        index.emplace_back(sig.lo, sig.hi);
      });
  return index;
}

void PlanServer::GossipLoop() {
  while (running()) {
    {
      // Interval sleep that Stop() cuts short: it flips running_ then notifies. Inline
      // deadline loop (not a predicate lambda) so the analysis follows the lock.
      MutexLock lock(gossip_mu_);
      const int64_t deadline_ms =
          metrics::MonotonicMillis() + options_.gossip_interval_ms;
      while (running()) {
        const int64_t remaining_ms = deadline_ms - metrics::MonotonicMillis();
        if (remaining_ms <= 0) {
          break;
        }
        gossip_cv_.WaitFor(gossip_mu_, std::chrono::milliseconds(remaining_ms));
      }
    }
    if (!running()) {
      return;
    }
    for (const ServiceAddress& peer : options_.peers) {
      if (!running()) {
        return;
      }
      GossipWithPeer(peer);
    }
  }
}

void PlanServer::GossipWithPeer(const ServiceAddress& peer) {
  // A dead or slow peer must not wedge the gossip thread: short connect budget, bounded
  // I/O, and any failure simply waits for the next round.
  // dcp-lint: allow(blocking-io) — gossip runs on its own thread, not a loop callback.
  StatusOr<Socket> socket = ConnectSocket(peer, /*timeout_ms=*/1000);
  if (!socket.ok()) {
    return;
  }
  socket.value().set_io_timeout_ms(2000);
  for (const std::string& tenant : registry_->Names()) {
    const std::shared_ptr<Engine> engine = registry_->Find(tenant);
    if (engine == nullptr) {
      continue;
    }
    PlanSyncRequest request;
    request.tenant = tenant;
    request.have = LocalSignatureIndex(*engine);
    // dcp-lint: allow(blocking-io) — gossip thread; bounded by the socket timeout.
    if (!WriteFrame(socket.value(), FrameType::kSyncRequest,
                    SerializePlanSyncRequest(request))
             .ok()) {
      return;
    }
    // dcp-lint: allow(blocking-io) — gossip thread; bounded by the socket timeout.
    StatusOr<Frame> reply = ReadFrame(socket.value(), kMaxFramePayloadBytes);
    if (!reply.ok() || reply.value().type != FrameType::kSyncResponse) {
      return;  // Torn exchange or a peer that doesn't speak sync: drop the round.
    }
    StatusOr<PlanSyncResponse> response =
        DeserializePlanSyncResponse(reply.value().payload);
    if (!response.ok() || response.value().code != StatusCode::kOk) {
      continue;  // E.g. the peer doesn't host this tenant; other tenants may still sync.
    }
    for (std::string& record : response.value().records) {
      // Full validation before adoption: DecodeRecord re-checks the CRC and decodes
      // every field, so a stale/corrupt peer record is counted and dropped here.
      StatusOr<std::pair<PlanSignature, BatchPlan>> decoded =
          PlanStore::DecodeRecord(record);
      if (!decoded.ok()) {
        counters_.sync_records_rejected->Increment();
        continue;
      }
      // A signature already adopted stays as it is and is not counted: the bytes
      // are identical.
      const auto bytes = std::make_shared<const std::string>(std::move(record));
      bool adopted = false;
      {
        MutexLock lock(peer_records_mu_);
        adopted = peer_records_.Insert(decoded.value().first, bytes) == bytes;
      }
      if (adopted) {
        counters_.sync_records_adopted->Increment();
      }
    }
  }
}

PlanServerStats PlanServer::stats() const {
  // Thin view over the registry counters: each read is an atomic load, so the
  // snapshot is exact at quiescence and never lies about any individual counter.
  PlanServerStats stats;
  stats.connections_accepted = counters_.connections_accepted->value();
  stats.requests_received = counters_.requests_received->value();
  stats.responses_sent = counters_.responses_sent->value();
  stats.plan_ok = counters_.plan_ok->value();
  stats.plan_errors = counters_.plan_errors->value();
  stats.rejected_overload = counters_.rejected_overload->value();
  stats.malformed_frames = counters_.malformed_frames->value();
  stats.shed_quota = counters_.shed_quota->value();
  stats.shed_deadline = counters_.shed_deadline->value();
  stats.replica_cache_hits = counters_.replica_cache_hits->value();
  stats.sync_records_shipped = counters_.sync_records_shipped->value();
  stats.sync_records_adopted = counters_.sync_records_adopted->value();
  stats.sync_records_rejected = counters_.sync_records_rejected->value();
  stats.accept_soft_errors = counters_.accept_soft_errors->value();
  stats.zero_copy_serves = counters_.zero_copy_serves->value();
  stats.slow_reader_closes = counters_.slow_reader_closes->value();
  return stats;
}

}  // namespace dcp
