// JSON-lines-over-Unix-domain-socket front end for SimService
// (docs/SERVICE.md). POSIX only.
//
// One accept loop, one thread per connection: each '\n'-terminated frame
// (read through svc/line_socket.hpp, the one framing implementation) is
// parsed with the strict json.hpp entry point, dispatched through
// SimService::handle (submits block that connection's thread — admission
// control lives in the bounded job queue, not the socket layer), and
// answered with one reply line. A shutdown request answers `goodbye`,
// stops the accept loop, unblocks every open connection, and drains the
// service before serve() returns.
#pragma once

#include <memory>
#include <string>
#include <thread>

#include "svc/service.hpp"

namespace steersim::svc {

struct ServerOptions {
  std::string socket_path = {};
  /// Frames longer than this without a newline poison the connection
  /// (error reply, then close) instead of growing without bound.
  std::size_t max_frame_bytes = 1 << 20;
  /// Slowloris guard: each whole frame must arrive within this long of
  /// the server starting to wait for it (at accept, or after the previous
  /// reply was sent). A connection that misses it — silent, or trickling
  /// a partial frame a byte at a time — is answered with a retriable
  /// `timeout` error and closed, so it cannot pin its thread. 0 disables.
  std::uint64_t idle_timeout_ms = 30'000;
};

class SocketServer {
 public:
  SocketServer(SimService& service, ServerOptions options);
  /// Stops the server, joins the thread start() began, and unlinks the
  /// socket file.
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Binds and listens on the socket path (an existing stale socket file
  /// is removed first). False on error, with a message to stderr.
  bool listen();

  /// Accept loop; returns after a shutdown request (or stop()) once every
  /// connection thread has exited and the service has drained. Calls
  /// listen() if it has not been called yet.
  bool serve();

  /// listen(), then serve() on a thread this server owns (the destructor
  /// stops and joins it). False when listen() fails.
  bool start();

  /// Thread-safe: ends the accept loop and unblocks open connections.
  void stop();

  const std::string& socket_path() const { return options_.socket_path; }

 private:
  struct Connection;
  void handle_connection(Connection& conn);
  /// Joins and discards connection threads that have finished, so a
  /// long-lived daemon does not accumulate one dead jthread per client.
  void reap_finished();

  SimService& service_;
  ServerOptions options_;
  int listen_fd_ = -1;
  /// Open connections, guarded by impl-side mutex (see server.cpp).
  struct State;
  std::unique_ptr<State> state_;
  std::jthread serve_thread_;
};

}  // namespace steersim::svc
