// POSIX socket plumbing for the scorisd network layer.
//
// Everything the framing protocol and the daemon need from the OS lives
// here behind RAII: endpoint parsing ("host:port" or "unix:/path"),
// listen/connect/accept, and exact-length send/recv loops that retry
// EINTR and short transfers — a short write silently truncating a
// response frame is precisely the class of bug this layer exists to
// make impossible.  All failures throw NetError carrying errno text.
//
// SIGPIPE: a peer that disconnects mid-stream turns the next write into
// a process-killing signal under the POSIX default.  Sends here use
// MSG_NOSIGNAL so they fail with EPIPE (-> NetError) instead, and
// ignore_sigpipe() covers every other write path (stdout pipes, file
// sinks) for processes that opt in — the CLI and daemon both do.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace scoris::net {

/// Socket-layer failure (connect refused, peer hung up, short read at
/// EOF, ...).  what() includes the operation and the errno string.
class NetError : public std::runtime_error {
 public:
  explicit NetError(const std::string& what) : std::runtime_error(what) {}
};

/// Install SIG_IGN for SIGPIPE (idempotent).  Writes to closed pipes and
/// sockets then fail with EPIPE instead of killing the process.
void ignore_sigpipe();

/// A listen/connect address: "host:port" (TCP, port 0 = ephemeral) or
/// "unix:/path/to.sock" (Unix domain).
struct Endpoint {
  enum class Kind { kTcp, kUnix };
  Kind kind = Kind::kTcp;
  std::string host;         ///< TCP only
  std::uint16_t port = 0;   ///< TCP only
  std::string path;         ///< Unix only
};

/// Parse "host:port", "[v6::addr]:port", or "unix:/path".  Throws
/// NetError naming what was wrong.
[[nodiscard]] Endpoint parse_endpoint(const std::string& spec);

/// "host:port" / "unix:/path" round-trip of parse_endpoint.
[[nodiscard]] std::string to_string(const Endpoint& ep);

/// Move-only owning fd wrapper.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  [[nodiscard]] int fd() const { return fd_; }
  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  void close();

  /// Write all `size` bytes, retrying EINTR and short writes, with
  /// MSG_NOSIGNAL.  Throws NetError (EPIPE for a vanished peer).
  void send_all(const void* data, std::size_t size);

  /// One recv(2) of at most `size` bytes, retrying EINTR.  Returns the
  /// byte count, 0 at EOF; throws NetError on errors.
  [[nodiscard]] std::size_t recv_some(void* data, std::size_t size);

  /// Read exactly `size` bytes.  Returns false on a clean EOF before the
  /// first byte (peer closed between messages); throws NetError on
  /// errors or an EOF mid-message (truncated frame).
  [[nodiscard]] bool recv_exact(void* data, std::size_t size);

 private:
  int fd_ = -1;
};

/// Bind + listen on the endpoint.  `backlog` bounds the kernel accept
/// queue (the admission-control outer tier).  TCP listeners set
/// SO_REUSEADDR; for TCP port 0 the resolved port is written back into
/// `ep` so callers can advertise the real address.
[[nodiscard]] Socket listen_endpoint(Endpoint& ep, int backlog);

/// Connect to the endpoint; throws NetError.  With `timeout_ms` > 0 the
/// TCP handshake (or unix connect) must finish within it or
/// NetError("connect ...: timed out") is thrown; the returned socket is
/// back in blocking mode.  `timeout_ms` <= 0 connects blocking.
[[nodiscard]] Socket connect_endpoint(const Endpoint& ep, int timeout_ms = 0);

/// Bound every subsequent recv on `sock` to `timeout_ms` (SO_RCVTIMEO).
/// A stalled peer then surfaces as NetError("recv: timed out ...") from
/// recv_exact instead of blocking forever — the coordinator's read
/// timeout against slow or wedged workers.  `timeout_ms` <= 0 clears the
/// bound.
void set_recv_timeout(Socket& sock, int timeout_ms);

/// Accept one connection from a listener the caller knows is readable.
/// Returns an invalid Socket on transient failure (ECONNABORTED, ...).
[[nodiscard]] Socket accept_connection(Socket& listener);

/// Block until `fd_a` or `fd_b` (pass -1 to skip) is readable or has
/// hung up.  Returns a bitmask: bit 0 = fd_a, bit 1 = fd_b.
/// `timeout_ms` < 0 waits forever; 0 is returned on timeout.
[[nodiscard]] int wait_readable(int fd_a, int fd_b, int timeout_ms);

/// Self-pipe used to interrupt poll loops from signal handlers or other
/// threads.  signal_stop() only calls write(2), so it is async-signal-
/// safe; the written byte is never drained, which makes the wake
/// level-triggered — every poller (acceptor and all per-client loops)
/// observes it for as long as the shutdown lasts.
class WakePipe {
 public:
  WakePipe();   ///< throws NetError if pipe(2) fails
  ~WakePipe();
  WakePipe(const WakePipe&) = delete;
  WakePipe& operator=(const WakePipe&) = delete;

  [[nodiscard]] int read_fd() const { return fds_[0]; }
  void signal_stop();  ///< async-signal-safe

 private:
  int fds_[2] = {-1, -1};
};

}  // namespace scoris::net
