#include "server/net/net_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "server/net/wire.h"
#include "util/fault_injector.h"

namespace mpfdb::server::net {

namespace {

using SteadyClock = std::chrono::steady_clock;
using SocketFault = FaultInjector::SocketFault;

constexpr size_t kReadChunk = 16384;

void StallBriefly() {
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
}

}  // namespace

// All mutable state of one connection. Owned by exactly one IO loop and
// touched only from that loop's thread; worker threads reach a connection
// exclusively by posting tasks to its loop.
struct Connection {
  int fd = -1;
  uint64_t id = 0;
  size_t loop_index = 0;
  std::shared_ptr<Session> session;
  FrameReader reader;
  std::vector<uint8_t> write_buf;
  size_t write_pos = 0;
  size_t inflight = 0;  // requests dispatched but not yet answered
  bool reads_paused = false;
  bool want_epollout = false;
  bool close_after_flush = false;
  bool closed = false;
};

struct NetServer::Impl {
  explicit Impl(MpfServer& server, NetServerOptions opts)
      : mpf(server), options(opts) {}

  // --- one epoll event loop ----------------------------------------------
  struct IoLoop {
    int epoll_fd = -1;
    int wake_fd = -1;  // eventfd; epoll data.ptr == nullptr marks it
    std::thread thread;
    std::map<uint64_t, std::unique_ptr<Connection>> conns;  // loop-thread only
    std::vector<uint64_t> dead;  // closed this iteration, reap at bottom
    bool stopping = false;       // loop-thread only, set via task

    std::mutex task_mu;
    std::vector<std::function<void()>> tasks;  // guarded by task_mu
  };

  // One parsed request waiting for a query worker.
  struct PendingRequest {
    size_t loop_index = 0;
    uint64_t conn_id = 0;
    std::shared_ptr<Session> session;
    QueryRequestFrame query;
    bool is_metrics = false;
    uint64_t metrics_request_id = 0;
    bool is_update = false;
    UpdateRequestFrame update;
    SteadyClock::time_point deadline{};
    bool has_deadline = false;
  };

  MpfServer& mpf;
  const NetServerOptions options;

  int listen_fd = -1;
  uint16_t bound_port = 0;
  std::atomic<bool> started{false};
  std::atomic<bool> stopped{false};
  std::atomic<bool> draining{false};

  // Acceptor.
  std::thread acceptor_thread;
  int acceptor_epoll_fd = -1;
  int acceptor_wake_fd = -1;
  std::atomic<bool> acceptor_stop{false};

  std::vector<std::unique_ptr<IoLoop>> loops;
  std::atomic<size_t> next_loop{0};
  std::atomic<uint64_t> next_conn_id{1};

  // Query worker pool + dispatch queue.
  std::vector<std::thread> workers;
  std::mutex queue_mu;
  std::condition_variable queue_cv;
  std::deque<PendingRequest> dispatch;  // guarded by queue_mu
  bool stop_workers = false;            // guarded by queue_mu

  // Requests dispatched to workers whose response has not yet been posted
  // back to an IO loop; drain waits for this to reach zero.
  std::atomic<uint64_t> outstanding{0};

  // Stats (atomics: incremented from acceptor, loops, and workers).
  std::atomic<uint64_t> st_accepted{0}, st_closed{0}, st_refused{0},
      st_accept_failures{0}, st_frames_read{0}, st_requests{0}, st_results{0},
      st_errors{0}, st_protocol_errors{0}, st_reads_paused{0}, st_kicks{0},
      st_io_faults{0}, st_drain_errors{0};
  std::atomic<size_t> open_connections{0};

  // --- lifecycle ----------------------------------------------------------
  Status Start();
  void Shutdown();

  void AcceptorLoop();
  void LoopRun(IoLoop* loop);
  void WorkerLoop();

  // --- IO-loop-thread helpers ---------------------------------------------
  void PostTask(IoLoop* loop, std::function<void()> task);
  void WakeLoop(IoLoop* loop);
  void UpdateEpoll(IoLoop* loop, Connection* c);
  void CloseConn(IoLoop* loop, Connection* c);
  void HandleReadable(IoLoop* loop, Connection* c);
  void DrainFrames(IoLoop* loop, Connection* c);
  void HandleFrame(IoLoop* loop, Connection* c, Frame&& frame);
  void QueueWrite(IoLoop* loop, Connection* c,
                  const std::vector<uint8_t>& bytes);
  void FlushWrites(IoLoop* loop, Connection* c);
  void SendErrorNow(IoLoop* loop, Connection* c, const ErrorFrame& err);

  // --- worker helpers ------------------------------------------------------
  std::vector<uint8_t> RunRequest(const PendingRequest& req);
  void PostResponse(size_t loop_index, uint64_t conn_id,
                    std::vector<uint8_t> bytes);
  ErrorFrame TranslateStatus(uint64_t request_id, const Status& status);
};

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

NetServer::NetServer(MpfServer& server, NetServerOptions options)
    : server_(server), impl_(std::make_unique<Impl>(server, options)) {}

NetServer::~NetServer() { Shutdown(); }

Status NetServer::Start() { return impl_->Start(); }

uint16_t NetServer::port() const { return impl_->bound_port; }

void NetServer::Shutdown() { impl_->Shutdown(); }

NetServerStats NetServer::stats() const {
  const Impl& i = *impl_;
  NetServerStats s;
  s.connections_accepted = i.st_accepted.load();
  s.connections_closed = i.st_closed.load();
  s.connections_refused = i.st_refused.load();
  s.accept_failures = i.st_accept_failures.load();
  s.frames_read = i.st_frames_read.load();
  s.requests_received = i.st_requests.load();
  s.results_sent = i.st_results.load();
  s.errors_sent = i.st_errors.load();
  s.protocol_errors = i.st_protocol_errors.load();
  s.reads_paused = i.st_reads_paused.load();
  s.slow_reader_kicks = i.st_kicks.load();
  s.io_faults_injected = i.st_io_faults.load();
  s.drain_errors_sent = i.st_drain_errors.load();
  s.open_connections = i.open_connections.load();
  return s;
}

Status NetServer::Impl::Start() {
  if (started.exchange(true)) {
    return Status::FailedPrecondition("NetServer already started");
  }
  listen_fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd < 0) {
    return Status::Internal(std::string("socket(): ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options.port);
  if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(listen_fd);
    listen_fd = -1;
    return Status::Internal(std::string("bind(): ") + std::strerror(errno));
  }
  if (::listen(listen_fd, 128) < 0) {
    ::close(listen_fd);
    listen_fd = -1;
    return Status::Internal(std::string("listen(): ") + std::strerror(errno));
  }
  socklen_t addr_len = sizeof(addr);
  ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  bound_port = ntohs(addr.sin_port);

  int n_loops = std::max(1, options.io_threads);
  for (int i = 0; i < n_loops; ++i) {
    auto loop = std::make_unique<IoLoop>();
    loop->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    loop->wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (loop->epoll_fd < 0 || loop->wake_fd < 0) {
      return Status::Internal("epoll/eventfd creation failed");
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = nullptr;  // the wake marker
    ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, loop->wake_fd, &ev);
    loops.push_back(std::move(loop));
  }
  for (auto& loop : loops) {
    loop->thread = std::thread([this, l = loop.get()] { LoopRun(l); });
  }

  int n_workers = options.query_threads > 0
                      ? options.query_threads
                      : static_cast<int>(mpf.options().max_concurrent) + 2;
  for (int i = 0; i < n_workers; ++i) {
    workers.emplace_back([this] { WorkerLoop(); });
  }

  acceptor_epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
  acceptor_wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = acceptor_wake_fd;
  ::epoll_ctl(acceptor_epoll_fd, EPOLL_CTL_ADD, acceptor_wake_fd, &ev);
  ev.data.fd = listen_fd;
  ::epoll_ctl(acceptor_epoll_fd, EPOLL_CTL_ADD, listen_fd, &ev);
  acceptor_thread = std::thread([this] { AcceptorLoop(); });
  return Status::Ok();
}

void NetServer::Impl::Shutdown() {
  if (!started.load() || stopped.exchange(true)) return;
  auto deadline =
      SteadyClock::now() + std::chrono::milliseconds(options.drain_timeout_ms);

  // 1. Stop accepting new connections.
  draining.store(true);
  acceptor_stop.store(true);
  uint64_t one = 1;
  [[maybe_unused]] ssize_t w = ::write(acceptor_wake_fd, &one, sizeof(one));
  if (acceptor_thread.joinable()) acceptor_thread.join();
  ::close(acceptor_epoll_fd);
  ::close(acceptor_wake_fd);
  ::close(listen_fd);
  listen_fd = -1;

  // 2. Workers see `draining` and answer every queued request with a
  // definite retryable error; requests already inside Session::Query finish
  // normally. Wait (bounded) for all dispatched requests to be answered.
  queue_cv.notify_all();
  while (outstanding.load(std::memory_order_acquire) > 0 &&
         SteadyClock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  // 3. Ask every loop to flush pending responses and close its
  // connections; new reads are already answered with drain errors.
  for (auto& loop : loops) {
    PostTask(loop.get(), [this, l = loop.get()] {
      for (auto& [id, conn] : l->conns) {
        Connection* c = conn.get();
        if (c->closed) continue;
        c->close_after_flush = true;
        FlushWrites(l, c);
        if (!c->closed && c->write_pos >= c->write_buf.size()) {
          CloseConn(l, c);
        }
      }
    });
  }
  while (open_connections.load(std::memory_order_acquire) > 0 &&
         SteadyClock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  // 4. Stop the loops (force-closing anything the drain budget abandoned)
  // and the workers, then join everything.
  for (auto& loop : loops) {
    PostTask(loop.get(), [this, l = loop.get()] {
      l->stopping = true;
      for (auto& [id, conn] : l->conns) {
        if (!conn->closed) CloseConn(l, conn.get());
      }
    });
  }
  for (auto& loop : loops) {
    if (loop->thread.joinable()) loop->thread.join();
    ::close(loop->epoll_fd);
    ::close(loop->wake_fd);
  }
  {
    std::lock_guard<std::mutex> lock(queue_mu);
    stop_workers = true;
  }
  queue_cv.notify_all();
  for (auto& worker : workers) {
    if (worker.joinable()) worker.join();
  }
}

// ---------------------------------------------------------------------------
// Acceptor
// ---------------------------------------------------------------------------

void NetServer::Impl::AcceptorLoop() {
  epoll_event events[8];
  while (!acceptor_stop.load(std::memory_order_acquire)) {
    int n = ::epoll_wait(acceptor_epoll_fd, events, 8, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      if (events[i].data.fd == acceptor_wake_fd) {
        uint64_t drain_count;
        while (::read(acceptor_wake_fd, &drain_count, sizeof(drain_count)) >
               0) {
        }
        continue;
      }
      // Accept everything pending.
      for (;;) {
        int cfd = ::accept4(listen_fd, nullptr, nullptr,
                            SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (cfd < 0) {
          if (errno == EINTR) continue;
          if (errno == EAGAIN || errno == EWOULDBLOCK) break;
          st_accept_failures.fetch_add(1, std::memory_order_relaxed);
          break;
        }
        if (FaultInjector::MaybeSocketFault("net::Accept",
                                            /*is_accept=*/true) ==
            SocketFault::kAcceptFail) {
          // Simulated accept failure: the kernel already completed the
          // handshake, so the client observes an immediate clean close.
          st_io_faults.fetch_add(1, std::memory_order_relaxed);
          st_accept_failures.fetch_add(1, std::memory_order_relaxed);
          ::close(cfd);
          continue;
        }
        if (open_connections.load(std::memory_order_acquire) >=
                options.max_connections ||
            draining.load(std::memory_order_acquire)) {
          st_refused.fetch_add(1, std::memory_order_relaxed);
          ::close(cfd);
          continue;
        }
        int one = 1;
        ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        if (options.send_buffer_bytes > 0) {
          ::setsockopt(cfd, SOL_SOCKET, SO_SNDBUF, &options.send_buffer_bytes,
                       sizeof(options.send_buffer_bytes));
        }
        auto conn = std::make_unique<Connection>();
        conn->fd = cfd;
        conn->id = next_conn_id.fetch_add(1, std::memory_order_relaxed);
        conn->loop_index =
            next_loop.fetch_add(1, std::memory_order_relaxed) % loops.size();
        conn->session =
            mpf.CreateSession("conn-" + std::to_string(conn->id));
        st_accepted.fetch_add(1, std::memory_order_relaxed);
        open_connections.fetch_add(1, std::memory_order_acq_rel);
        IoLoop* loop = loops[conn->loop_index].get();
        PostTask(loop, [this, loop, raw = conn.release()]() mutable {
          std::unique_ptr<Connection> owned(raw);
          Connection* c = owned.get();
          if (loop->stopping) {
            ::close(c->fd);
            open_connections.fetch_sub(1, std::memory_order_acq_rel);
            st_closed.fetch_add(1, std::memory_order_relaxed);
            return;
          }
          epoll_event ev{};
          ev.events = EPOLLIN;
          ev.data.ptr = c;
          loop->conns.emplace(c->id, std::move(owned));
          ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, c->fd, &ev);
        });
      }
    }
  }
}

// ---------------------------------------------------------------------------
// IO loops
// ---------------------------------------------------------------------------

void NetServer::Impl::PostTask(IoLoop* loop, std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(loop->task_mu);
    loop->tasks.push_back(std::move(task));
  }
  WakeLoop(loop);
}

void NetServer::Impl::WakeLoop(IoLoop* loop) {
  uint64_t one = 1;
  [[maybe_unused]] ssize_t w = ::write(loop->wake_fd, &one, sizeof(one));
}

void NetServer::Impl::LoopRun(IoLoop* loop) {
  epoll_event events[64];
  for (;;) {
    int n = ::epoll_wait(loop->epoll_fd, events, 64, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      if (events[i].data.ptr == nullptr) {
        uint64_t drain_count;
        while (::read(loop->wake_fd, &drain_count, sizeof(drain_count)) > 0) {
        }
        continue;
      }
      auto* c = static_cast<Connection*>(events[i].data.ptr);
      if (c->closed) continue;
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        CloseConn(loop, c);
        continue;
      }
      if ((events[i].events & EPOLLIN) != 0) HandleReadable(loop, c);
      if (!c->closed && (events[i].events & EPOLLOUT) != 0) {
        FlushWrites(loop, c);
      }
    }
    // Tasks posted by the acceptor (registrations) and workers (responses).
    std::vector<std::function<void()>> tasks;
    {
      std::lock_guard<std::mutex> lock(loop->task_mu);
      tasks.swap(loop->tasks);
    }
    for (auto& task : tasks) task();
    // Reap connections closed during this iteration.
    for (uint64_t id : loop->dead) loop->conns.erase(id);
    loop->dead.clear();
    if (loop->stopping && loop->conns.empty()) break;
  }
}

void NetServer::Impl::UpdateEpoll(IoLoop* loop, Connection* c) {
  epoll_event ev{};
  ev.events = (c->reads_paused ? 0u : static_cast<uint32_t>(EPOLLIN)) |
              (c->want_epollout ? static_cast<uint32_t>(EPOLLOUT) : 0u);
  ev.data.ptr = c;
  ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_MOD, c->fd, &ev);
}

void NetServer::Impl::CloseConn(IoLoop* loop, Connection* c) {
  if (c->closed) return;
  c->closed = true;
  ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_DEL, c->fd, nullptr);
  ::close(c->fd);
  st_closed.fetch_add(1, std::memory_order_relaxed);
  open_connections.fetch_sub(1, std::memory_order_acq_rel);
  loop->dead.push_back(c->id);
}

void NetServer::Impl::DrainFrames(IoLoop* loop, Connection* c) {
  while (!c->closed && !c->reads_paused) {
    Frame frame;
    auto next = c->reader.Next(&frame);
    if (!next.ok()) {
      // Framing is unrecoverable; a best-effort error frame, then close.
      st_protocol_errors.fetch_add(1, std::memory_order_relaxed);
      SendErrorNow(loop, c,
                   ErrorFrame{0, StatusCode::kInvalidArgument, false, 0,
                              next.status().message()});
      if (!c->closed) {
        c->close_after_flush = true;
        if (c->write_pos >= c->write_buf.size()) CloseConn(loop, c);
      }
      return;
    }
    if (!*next) return;
    st_frames_read.fetch_add(1, std::memory_order_relaxed);
    HandleFrame(loop, c, std::move(frame));
  }
}

void NetServer::Impl::HandleReadable(IoLoop* loop, Connection* c) {
  // Frames may be sitting whole in the reader from before a backpressure
  // pause; serve those before touching the socket.
  DrainFrames(loop, c);
  uint8_t buf[kReadChunk];
  while (!c->closed && !c->reads_paused) {
    size_t want = sizeof(buf);
    switch (FaultInjector::MaybeSocketFault("net::Read")) {
      case SocketFault::kNone:
        break;
      case SocketFault::kShort:
        st_io_faults.fetch_add(1, std::memory_order_relaxed);
        want = 1;
        break;
      case SocketFault::kEintr:
        // As if read() returned EINTR: loop and retry.
        st_io_faults.fetch_add(1, std::memory_order_relaxed);
        continue;
      case SocketFault::kStall:
        st_io_faults.fetch_add(1, std::memory_order_relaxed);
        StallBriefly();
        break;
      case SocketFault::kReset:
      case SocketFault::kAcceptFail:
        st_io_faults.fetch_add(1, std::memory_order_relaxed);
        CloseConn(loop, c);
        return;
    }
    ssize_t r = ::read(c->fd, buf, want);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      CloseConn(loop, c);
      return;
    }
    if (r == 0) {  // peer closed its end
      CloseConn(loop, c);
      return;
    }
    c->reader.Append(buf, static_cast<size_t>(r));
    DrainFrames(loop, c);
    if (static_cast<size_t>(r) < want) return;  // kernel buffer drained
  }
}

void NetServer::Impl::HandleFrame(IoLoop* loop, Connection* c, Frame&& frame) {
  if (frame.type != FrameType::kQuery && frame.type != FrameType::kMetrics &&
      frame.type != FrameType::kUpdate) {
    // Clients may only send requests.
    st_protocol_errors.fetch_add(1, std::memory_order_relaxed);
    SendErrorNow(loop, c,
                 ErrorFrame{0, StatusCode::kInvalidArgument, false, 0,
                            "unexpected frame type from client"});
    if (!c->closed) {
      c->close_after_flush = true;
      if (c->write_pos >= c->write_buf.size()) CloseConn(loop, c);
    }
    return;
  }
  st_requests.fetch_add(1, std::memory_order_relaxed);
  uint64_t request_id = frame.type == FrameType::kQuery
                            ? frame.query.request_id
                            : frame.type == FrameType::kUpdate
                                  ? frame.update.request_id
                                  : frame.metrics.request_id;
  if (draining.load(std::memory_order_acquire)) {
    // Drain promise: every request gets a definite, retryable answer.
    st_drain_errors.fetch_add(1, std::memory_order_relaxed);
    SendErrorNow(loop, c,
                 ErrorFrame{request_id, StatusCode::kCancelled, true,
                            options.drain_timeout_ms,
                            "server draining; retry against a live server"});
    return;
  }
  PendingRequest req;
  req.loop_index = c->loop_index;
  req.conn_id = c->id;
  req.session = c->session;
  if (frame.type == FrameType::kQuery) {
    req.query = std::move(frame.query);
    if (req.query.deadline_ms > 0) {
      req.has_deadline = true;
      req.deadline = SteadyClock::now() +
                     std::chrono::milliseconds(req.query.deadline_ms);
    }
  } else if (frame.type == FrameType::kUpdate) {
    req.is_update = true;
    req.update = std::move(frame.update);
  } else {
    req.is_metrics = true;
    req.metrics_request_id = frame.metrics.request_id;
  }
  ++c->inflight;
  if (c->inflight >= options.max_inflight_per_connection &&
      !c->reads_paused) {
    // Backpressure: this client has enough unanswered work in the building.
    c->reads_paused = true;
    st_reads_paused.fetch_add(1, std::memory_order_relaxed);
    UpdateEpoll(loop, c);
  }
  outstanding.fetch_add(1, std::memory_order_acq_rel);
  {
    std::lock_guard<std::mutex> lock(queue_mu);
    dispatch.push_back(std::move(req));
  }
  queue_cv.notify_one();
}

void NetServer::Impl::SendErrorNow(IoLoop* loop, Connection* c,
                                   const ErrorFrame& err) {
  std::vector<uint8_t> bytes;
  EncodeError(err, &bytes);
  st_errors.fetch_add(1, std::memory_order_relaxed);
  QueueWrite(loop, c, bytes);
}

void NetServer::Impl::QueueWrite(IoLoop* loop, Connection* c,
                                 const std::vector<uint8_t>& bytes) {
  if (c->closed) return;
  // Compact the consumed prefix before growing.
  if (c->write_pos > 0 && c->write_pos == c->write_buf.size()) {
    c->write_buf.clear();
    c->write_pos = 0;
  } else if (c->write_pos > 65536 && c->write_pos * 2 > c->write_buf.size()) {
    c->write_buf.erase(c->write_buf.begin(),
                       c->write_buf.begin() +
                           static_cast<ptrdiff_t>(c->write_pos));
    c->write_pos = 0;
  }
  c->write_buf.insert(c->write_buf.end(), bytes.begin(), bytes.end());
  FlushWrites(loop, c);
  if (!c->closed &&
      c->write_buf.size() - c->write_pos > options.max_write_buffer_bytes) {
    // Slow-reader kick: the kernel took what it would and this much output
    // is still parked in user space — the client is not consuming its
    // responses, and holding them indefinitely would let one bad client
    // exhaust the server. A hard close is a definite outcome client-side.
    st_kicks.fetch_add(1, std::memory_order_relaxed);
    CloseConn(loop, c);
  }
}

void NetServer::Impl::FlushWrites(IoLoop* loop, Connection* c) {
  while (!c->closed && c->write_pos < c->write_buf.size()) {
    size_t remaining = c->write_buf.size() - c->write_pos;
    size_t chunk = remaining;
    switch (FaultInjector::MaybeSocketFault("net::Write")) {
      case SocketFault::kNone:
        break;
      case SocketFault::kShort:
        st_io_faults.fetch_add(1, std::memory_order_relaxed);
        chunk = 1;
        break;
      case SocketFault::kEintr:
        st_io_faults.fetch_add(1, std::memory_order_relaxed);
        continue;
      case SocketFault::kStall:
        st_io_faults.fetch_add(1, std::memory_order_relaxed);
        StallBriefly();
        break;
      case SocketFault::kReset:
      case SocketFault::kAcceptFail:
        st_io_faults.fetch_add(1, std::memory_order_relaxed);
        CloseConn(loop, c);
        return;
    }
    ssize_t w = ::send(c->fd, c->write_buf.data() + c->write_pos, chunk,
                       MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!c->want_epollout) {
          c->want_epollout = true;
          UpdateEpoll(loop, c);
        }
        return;
      }
      CloseConn(loop, c);
      return;
    }
    c->write_pos += static_cast<size_t>(w);
  }
  if (c->closed) return;
  // Fully flushed.
  c->write_buf.clear();
  c->write_pos = 0;
  if (c->want_epollout) {
    c->want_epollout = false;
    UpdateEpoll(loop, c);
  }
  if (c->close_after_flush) CloseConn(loop, c);
}

// ---------------------------------------------------------------------------
// Query workers
// ---------------------------------------------------------------------------

void NetServer::Impl::WorkerLoop() {
  for (;;) {
    PendingRequest req;
    {
      std::unique_lock<std::mutex> lock(queue_mu);
      queue_cv.wait(lock, [&] { return stop_workers || !dispatch.empty(); });
      if (dispatch.empty()) {
        if (stop_workers) return;
        continue;
      }
      req = std::move(dispatch.front());
      dispatch.pop_front();
    }
    std::vector<uint8_t> response = RunRequest(req);
    PostResponse(req.loop_index, req.conn_id, std::move(response));
    outstanding.fetch_sub(1, std::memory_order_acq_rel);
  }
}

ErrorFrame NetServer::Impl::TranslateStatus(uint64_t request_id,
                                            const Status& status) {
  ErrorFrame err;
  err.request_id = request_id;
  err.code = status.code();
  err.message = status.message();
  // Overload and shutdown rejections happen before any execution, so the
  // request is safe to resubmit verbatim; everything else (bad view name,
  // deadline blown mid-execution, internal faults) is the client's call.
  err.retryable = status.code() == StatusCode::kResourceExhausted ||
                  status.code() == StatusCode::kCancelled;
  if (err.retryable) {
    err.retry_after_ms = static_cast<uint32_t>(mpf.RetryAfterHintMs());
  }
  return err;
}

std::vector<uint8_t> NetServer::Impl::RunRequest(const PendingRequest& req) {
  std::vector<uint8_t> out;
  if (draining.load(std::memory_order_acquire)) {
    uint64_t id = req.is_metrics
                      ? req.metrics_request_id
                      : req.is_update ? req.update.request_id
                                      : req.query.request_id;
    st_drain_errors.fetch_add(1, std::memory_order_relaxed);
    st_errors.fetch_add(1, std::memory_order_relaxed);
    EncodeError(ErrorFrame{id, StatusCode::kCancelled, true,
                           options.drain_timeout_ms,
                           "server draining; retry against a live server"},
                &out);
    return out;
  }
  if (req.is_metrics) {
    EncodeMetricsReply(MetricsReplyFrame{req.metrics_request_id,
                                         mpf.MetricsText()},
                       &out);
    return out;
  }
  if (req.is_update) {
    std::vector<MeasureUpdateSpec> specs;
    specs.reserve(req.update.ops.size());
    for (const UpdateOp& op : req.update.ops) {
      specs.push_back({op.table, op.row_vars, op.new_measure});
    }
    uint64_t commit_epoch = 0;
    Status status = req.session->Update(specs, &commit_epoch);
    if (!status.ok()) {
      st_errors.fetch_add(1, std::memory_order_relaxed);
      EncodeError(TranslateStatus(req.update.request_id, status), &out);
      return out;
    }
    // The exact epoch of the commit that applied this batch: a snapshot at
    // or past it sees every update (differential replay harnesses key on
    // it).
    st_results.fetch_add(1, std::memory_order_relaxed);
    EncodeUpdateAck(UpdateAckFrame{req.update.request_id, commit_epoch},
                    &out);
    return out;
  }
  const QueryRequestFrame& q = req.query;
  QueryContext ctx;
  if (req.has_deadline) {
    if (SteadyClock::now() >= req.deadline) {
      st_errors.fetch_add(1, std::memory_order_relaxed);
      EncodeError(TranslateStatus(q.request_id,
                                  Status::DeadlineExceeded(
                                      "deadline expired before execution")),
                  &out);
      return out;
    }
    ctx.set_deadline(req.deadline);
  }
  if (q.cached) {
    Database& db = mpf.database();
    uint64_t pre = db.epoch();
    auto result = req.session->QueryCached(q.view, q.query, &ctx);
    uint64_t post = db.epoch();
    if (!result.ok()) {
      st_errors.fetch_add(1, std::memory_order_relaxed);
      EncodeError(TranslateStatus(q.request_id, result.status()), &out);
      return out;
    }
    ResultFrame frame;
    frame.request_id = q.request_id;
    // A cached answer raced an update iff the epoch moved around the call;
    // the differential harness skips replaying those.
    frame.snapshot_epoch = pre == post ? pre : post;
    frame.epoch_inexact = pre != post;
    frame.table = *result;
    st_results.fetch_add(1, std::memory_order_relaxed);
    EncodeResult(frame, &out);
    return out;
  }
  std::string optimizer = q.optimizer.empty() ? "cs+nonlinear" : q.optimizer;
  if (q.approx) {
    ApproxOptions approx;
    approx.eps = q.eps;
    approx.max_rounds = q.max_rounds;
    approx.seed = q.seed;
    auto result =
        req.session->QueryApprox(q.view, q.query, approx, optimizer, &ctx);
    if (!result.ok()) {
      st_errors.fetch_add(1, std::memory_order_relaxed);
      EncodeError(TranslateStatus(q.request_id, result.status()), &out);
      return out;
    }
    ResultFrame frame;
    frame.request_id = q.request_id;
    frame.snapshot_epoch = result->snapshot_epoch;
    frame.approximate = result->approximate;
    frame.deadline_degraded = result->deadline_hit;
    frame.table = result->estimate;
    if (result->approximate) {
      frame.samples = result->samples;
      frame.bound_gap = result->max_gap;
      frame.lower = result->lower;
      frame.upper = result->upper;
    }
    st_results.fetch_add(1, std::memory_order_relaxed);
    EncodeResult(frame, &out);
    return out;
  }
  auto result = req.session->Query(q.view, q.query, optimizer, &ctx);
  if (!result.ok()) {
    st_errors.fetch_add(1, std::memory_order_relaxed);
    EncodeError(TranslateStatus(q.request_id, result.status()), &out);
    return out;
  }
  ResultFrame frame;
  frame.request_id = q.request_id;
  frame.snapshot_epoch = result->snapshot_epoch;
  frame.plan_cache_hit = result->plan_cache_hit;
  frame.table = result->table;
  st_results.fetch_add(1, std::memory_order_relaxed);
  EncodeResult(frame, &out);
  return out;
}

void NetServer::Impl::PostResponse(size_t loop_index, uint64_t conn_id,
                                   std::vector<uint8_t> bytes) {
  IoLoop* loop = loops[loop_index].get();
  PostTask(loop, [this, loop, conn_id, b = std::move(bytes)] {
    auto it = loop->conns.find(conn_id);
    if (it == loop->conns.end()) return;  // client disconnected meanwhile
    Connection* c = it->second.get();
    if (c->closed) return;
    if (c->inflight > 0) --c->inflight;
    QueueWrite(loop, c, b);
    if (!c->closed && c->reads_paused &&
        c->inflight < options.max_inflight_per_connection &&
        !c->close_after_flush) {
      c->reads_paused = false;
      UpdateEpoll(loop, c);
      // Whole frames may already be buffered; serve them now rather than
      // waiting for the next socket readable edge.
      HandleReadable(loop, c);
    }
  });
}

}  // namespace mpfdb::server::net
