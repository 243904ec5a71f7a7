#include "net/conn_server.hpp"

#include <atomic>
#include <filesystem>
#include <system_error>
#include <thread>
#include <utility>

#include "util/thread_annotations.hpp"

namespace scoris::net {

struct ConnServer::State {
  WakePipe wake;
  std::atomic<std::size_t> active{0};
  // `active` is decremented under the mutex so the drain wait cannot
  // miss the final notify.
  util::Mutex mu;
  util::CondVar cv;

  [[nodiscard]] bool admit(std::size_t cap) {
    std::size_t current = active.load(std::memory_order_relaxed);
    while (current < cap) {
      if (active.compare_exchange_weak(current, current + 1,
                                       std::memory_order_acq_rel)) {
        return true;
      }
    }
    return false;
  }

  void release() {
    {
      util::MutexLock lock(mu);
      active.fetch_sub(1, std::memory_order_acq_rel);
    }
    cv.notify_all();
  }
};

ConnServer::Conn::Conn(std::shared_ptr<State> state, Socket sock,
                       std::uint64_t id)
    : state_(std::move(state)), sock_(std::move(sock)), id_(id) {}

bool ConnServer::Conn::next_frame(Frame& frame) {
  std::uint8_t header[kFrameHeaderBytes];
  if (!receive(header, sizeof(header), /*frame_start=*/true)) return false;
  const std::uint32_t len = parse_frame_header(header, frame.tag);
  frame.payload.resize(len);
  return receive(frame.payload.data(), len, /*frame_start=*/false);
}

bool ConnServer::Conn::receive(void* data, std::size_t size,
                               bool frame_start) {
  char* p = static_cast<char*>(data);
  std::size_t got = 0;
  while (got < size) {
    // Poll before every receive, and let the wake pipe win over pending
    // bytes: an idle connection and a half-received frame are both
    // dropped at stop, so a stalled peer cannot hold the drain.
    if ((wait_readable(sock_.fd(), state_->wake.read_fd(), -1) & 2) != 0) {
      return false;
    }
    const std::size_t n = sock_.recv_some(p + got, size - got);
    if (n == 0) {
      if (frame_start && got == 0) return false;  // clean EOF between frames
      throw NetError("connection closed mid-frame (got " +
                     std::to_string(got) + " of " + std::to_string(size) +
                     " bytes)");
    }
    got += n;
  }
  return true;
}

ConnServer::ConnServer(Endpoint endpoint, int backlog, std::size_t max_conns)
    : state_(std::make_shared<State>()),
      endpoint_(std::move(endpoint)),
      backlog_(backlog),
      max_conns_(max_conns) {
  ignore_sigpipe();
}

ConnServer::~ConnServer() {
  // Detached stragglers own state_ and exit on the wake signal; nothing
  // here blocks on them.
  state_->wake.signal_stop();
  if (bound_ && endpoint_.kind == Endpoint::Kind::kUnix) {
    std::error_code ec;
    std::filesystem::remove(endpoint_.path, ec);
  }
}

void ConnServer::bind() {
  if (bound_) return;
  listener_ = listen_endpoint(endpoint_, backlog_);
  bound_ = true;
}

void ConnServer::request_stop() { state_->wake.signal_stop(); }

void ConnServer::serve(const Handler& handler, const Refuser& refuse) {
  bind();
  State& state = *state_;
  for (;;) {
    const int ready = wait_readable(listener_.fd(), state.wake.read_fd(), -1);
    if ((ready & 2) != 0) break;  // wake pipe: shutdown requested
    if ((ready & 1) == 0) continue;
    Socket sock = accept_connection(listener_);
    if (!sock.valid()) continue;
    if (!state.admit(max_conns_)) {
      if (refuse) refuse(sock);
      continue;
    }
    const std::uint64_t id = next_conn_id_++;
    try {
      std::thread(
          [state = state_, handler, id](Socket conn_sock) {
            // Declared first so the slot is released last, after the
            // connection is closed.
            struct SlotGuard {
              State& state;
              ~SlotGuard() { state.release(); }
            } guard{*state};
            Conn conn(state, std::move(conn_sock), id);
            handler(conn);
          },
          std::move(sock))
          .detach();
    } catch (const std::system_error&) {
      // No thread for this connection: drop it and free its slot.
      state.release();
    }
  }
  // Stop accepting, then drain: handlers mid-frame finish it, idle ones
  // see the never-drained wake byte and return.
  listener_.close();
  util::MutexLock lock(state.mu);
  while (state.active.load(std::memory_order_acquire) != 0) {
    state.cv.wait(state.mu);
  }
}

}  // namespace scoris::net
