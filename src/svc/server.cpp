#include "svc/server.hpp"

#include <cstdio>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <mutex>
#include <vector>

#include "svc/chaos.hpp"
#include "svc/line_socket.hpp"

namespace steersim::svc {

/// One accepted client. `socket` is closed under State::mutex, so stop()
/// can never shutdown() a recycled descriptor number; `done` tells the
/// reaper the thread is joinable without blocking.
struct SocketServer::Connection {
  explicit Connection(int fd) : socket(fd) {}
  LineSocket socket;
  std::atomic<bool> done{false};
  std::jthread thread;
};

struct SocketServer::State {
  std::mutex mutex;
  std::vector<std::unique_ptr<Connection>> connections;
  bool stopping = false;
};

namespace {

/// Renders and writes one reply frame, applying chaos frame faults when
/// an injector is installed. Returns false when the connection should
/// close (write error — e.g. EPIPE when the client went away — or an
/// injected drop/truncate). Goodbye frames are exempt from chaos so a
/// chaos-storm run can always shut the daemon down cleanly.
bool send_frame(LineSocket& socket, const Reply& reply) {
  std::string frame = reply.to_json() + "\n";
  if (reply.type != ReplyType::kGoodbye) {
    if (auto chaos = ChaosInjector::global()) {
      if (chaos->roll(ChaosSite::kFrameDrop)) {
        return false;  // swallow the reply; client sees EOF
      }
      if (chaos->roll(ChaosSite::kFrameDelay)) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(chaos->spec().delay_ms));
      }
      if (chaos->roll(ChaosSite::kFrameTruncate)) {
        socket.write_all(
            std::string_view(frame).substr(0, frame.size() / 2));
        return false;
      }
      chaos->corrupt(frame);
    }
  }
  return socket.write_all(frame);
}

}  // namespace

SocketServer::SocketServer(SimService& service, ServerOptions options)
    : service_(service),
      options_(std::move(options)),
      state_(std::make_unique<State>()) {}

SocketServer::~SocketServer() {
  stop();
  if (serve_thread_.joinable()) {
    serve_thread_.join();
  }
  reap_finished();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (!options_.socket_path.empty()) {
    ::unlink(options_.socket_path.c_str());
  }
}

bool SocketServer::listen() {
  if (listen_fd_ >= 0) {
    return true;
  }
  // A client that disconnects while a reply is in flight must cost at
  // most one failed write, never a process-killing SIGPIPE (belt:
  // MSG_NOSIGNAL in LineSocket::write_all is the suspenders).
  std::signal(SIGPIPE, SIG_IGN);
  if (options_.socket_path.empty()) {
    std::fprintf(stderr, "steersimd: empty socket path\n");
    return false;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
    std::fprintf(stderr, "steersimd: socket path too long: %s\n",
                 options_.socket_path.c_str());
    return false;
  }
  std::memcpy(addr.sun_path, options_.socket_path.c_str(),
              options_.socket_path.size() + 1);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    std::perror("steersimd: socket");
    return false;
  }
  ::unlink(options_.socket_path.c_str());  // stale socket from a past run
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    std::perror("steersimd: bind");
    ::close(fd);
    return false;
  }
  if (::listen(fd, 64) < 0) {
    std::perror("steersimd: listen");
    ::close(fd);
    ::unlink(options_.socket_path.c_str());
    return false;
  }
  listen_fd_ = fd;
  return true;
}

void SocketServer::stop() {
  std::lock_guard<std::mutex> lock(state_->mutex);
  state_->stopping = true;
  if (listen_fd_ >= 0) {
    // Unblocks accept(); the fd itself is closed by the destructor so a
    // concurrent accept never races a recycled descriptor number.
    ::shutdown(listen_fd_, SHUT_RDWR);
  }
  for (const auto& conn : state_->connections) {
    conn->socket.shutdown();  // unblocks poll/read; the thread exits
  }
}

void SocketServer::reap_finished() {
  std::vector<std::unique_ptr<Connection>> finished;
  {
    std::lock_guard<std::mutex> lock(state_->mutex);
    for (auto it = state_->connections.begin();
         it != state_->connections.end();) {
      if ((*it)->done.load(std::memory_order_acquire)) {
        finished.push_back(std::move(*it));
        it = state_->connections.erase(it);
      } else {
        ++it;
      }
    }
  }
  finished.clear();  // jthread joins (threads already past their last line)
}

void SocketServer::handle_connection(Connection& conn) {
  const auto frame_deadline = [this] {
    return options_.idle_timeout_ms == 0
               ? LineSocket::Clock::time_point::max()
               : LineSocket::deadline_in(options_.idle_timeout_ms);
  };
  // The slowloris clock runs per frame, not per chunk: it starts when the
  // server begins waiting for a frame, so trickled bytes cannot extend it.
  auto deadline = frame_deadline();
  std::string line;
  while (true) {
    const LineSocket::Read read =
        conn.socket.read_line(deadline, options_.max_frame_bytes, line);
    if (read == LineSocket::Read::kTimeout) {
      // The peer owes us (the rest of) a frame and has not delivered it
      // in time; tell it why it is being cut off, then close.
      send_frame(conn.socket,
                 Reply::error("", error_code::kTimeout,
                              "no complete frame within " +
                                  std::to_string(options_.idle_timeout_ms) +
                                  " ms; closing connection",
                              /*retriable=*/true));
      break;
    }
    if (read == LineSocket::Read::kTooLong) {
      send_frame(conn.socket,
                 Reply::error("", error_code::kBadRequest,
                              "frame exceeds " +
                                  std::to_string(options_.max_frame_bytes) +
                                  " bytes"));
      break;
    }
    if (read != LineSocket::Read::kLine) {
      break;  // client closed (or stop() shut the socket down)
    }
    if (line.empty()) {
      continue;
    }
    Request request;
    std::string parse_error;
    Reply reply;
    if (Request::parse(line, request, parse_error)) {
      reply = service_.handle(request);
    } else {
      reply = Reply::error("", error_code::kBadRequest, parse_error);
    }
    if (!send_frame(conn.socket, reply)) {
      break;  // client went away mid-reply (or chaos cut it)
    }
    if (reply.type == ReplyType::kGoodbye) {
      stop();
      break;
    }
    deadline = frame_deadline();
  }
  std::lock_guard<std::mutex> lock(state_->mutex);
  conn.socket.close();
  conn.done.store(true, std::memory_order_release);
}

bool SocketServer::serve() {
  if (!listen()) {
    return false;
  }
  while (true) {
    reap_finished();
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    {
      std::lock_guard<std::mutex> lock(state_->mutex);
      if (state_->stopping) {
        if (fd >= 0) {
          ::close(fd);
        }
        break;
      }
      if (fd < 0) {
        if (errno == EINTR) {
          continue;
        }
        std::perror("steersimd: accept");
        break;
      }
      Connection* conn =
          state_->connections.emplace_back(std::make_unique<Connection>(fd))
              .get();
      conn->thread = std::jthread([this, conn] { handle_connection(*conn); });
    }
  }
  stop();  // unblock any connection still reading (accept may have failed)
  std::vector<std::unique_ptr<Connection>> connections;
  {
    std::lock_guard<std::mutex> lock(state_->mutex);
    connections.swap(state_->connections);
  }
  connections.clear();  // join
  service_.begin_shutdown();
  service_.drain();
  return true;
}

bool SocketServer::start() {
  if (!listen()) {
    return false;
  }
  serve_thread_ = std::jthread([this] { serve(); });
  return true;
}

}  // namespace steersim::svc
