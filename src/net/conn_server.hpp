// One connection server for every scoris daemon: the lifecycle that
// `scoris serve` (daemon::Server) and `scoris worker` (dist::Worker)
// share, each of which keeps only its conversation, as a handler.
//
//   * serve() accepts, admits each connection by a CAS on the active
//     count against the cap (or hands it to the refusal callback and
//     closes it), and runs the handler on a detached thread that holds a
//     shared_ptr to the server state and releases its slot on any exit.
//   * Every wait (the accept loop, Conn::next_frame) also polls a
//     WakePipe.  request_stop() only writes one byte to it, so it is
//     async-signal-safe; the byte is never drained, so every poller sees
//     it for the rest of the shutdown.
//   * Shutdown drains: a frame received whole before the stop is handled
//     to the end (a query runs to DONE, a group to WEND); a connection
//     that is idle, or whose next frame is half received, is closed.
//     serve() returns once the last handler has released its slot.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>

#include "net/frame.hpp"
#include "net/socket.hpp"

namespace scoris::net {

class ConnServer {
  struct State;

 public:
  /// One admitted connection, as its handler sees it.
  class Conn {
   public:
    [[nodiscard]] Socket& socket() { return sock_; }
    [[nodiscard]] std::uint64_t id() const { return id_; }

    /// Park on poll(connection, wake pipe) until the next frame arrives,
    /// then read it whole, watching the wake pipe between partial
    /// receives.  Returns false when the peer closed cleanly between
    /// frames, or when a stop was requested before the frame was
    /// complete: the frame is abandoned and the handler should return,
    /// which closes the connection.  Throws NetError on transport
    /// errors, an EOF inside a frame, or an oversized length prefix.
    [[nodiscard]] bool next_frame(Frame& frame);

   private:
    friend class ConnServer;
    Conn(std::shared_ptr<State> state, Socket sock, std::uint64_t id);

    /// Fill `size` bytes; false on a stop request, or on a clean EOF
    /// before the first byte when `frame_start`.
    [[nodiscard]] bool receive(void* data, std::size_t size,
                               bool frame_start);

    std::shared_ptr<State> state_;
    Socket sock_;
    std::uint64_t id_;
  };

  /// Runs a whole connection on its own thread; must not throw.
  using Handler = std::function<void(Conn&)>;
  /// Told about a connection refused at the cap, on the accept thread,
  /// before it is closed.
  using Refuser = std::function<void(Socket&)>;

  ConnServer(Endpoint endpoint, int backlog, std::size_t max_conns);
  ~ConnServer();
  ConnServer(const ConnServer&) = delete;
  ConnServer& operator=(const ConnServer&) = delete;

  /// Bind + listen now (throws NetError), resolving TCP port 0.  A unix
  /// socket file is removed when the server is destroyed.
  void bind();

  /// Accept loop.  Blocks until request_stop(), then drains and
  /// returns.  Calls bind() if it has not happened yet.
  void serve(const Handler& handler, const Refuser& refuse);

  /// Async-signal-safe (one write(2)) and idempotent.
  void request_stop();

  /// The resolved listen endpoint (real port for TCP port-0 binds).
  /// Valid after bind().
  [[nodiscard]] const Endpoint& endpoint() const { return endpoint_; }

 private:
  std::shared_ptr<State> state_;
  Endpoint endpoint_;
  int backlog_;
  std::size_t max_conns_;
  Socket listener_;
  bool bound_ = false;
  std::uint64_t next_conn_id_ = 1;
};

}  // namespace scoris::net
