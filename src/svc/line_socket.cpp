#include "svc/line_socket.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace steersim::svc {

namespace {

std::string with_errno(std::string what, int err) {
  what += ": ";
  what += std::strerror(err);
  return what;
}

}  // namespace

bool LineSocket::connect(const std::string& path, std::uint64_t timeout_ms) {
  close();
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    error_ = "socket path too long: " + path;
    return false;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    error_ = with_errno("socket", errno);
    return false;
  }
  // Nonblocking connect so a hung daemon costs timeout_ms, not forever;
  // the fd reverts to blocking afterwards (reads are paced by poll(),
  // AF_UNIX writes virtually never block).
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) < 0) {
    const int err = errno;
    if (err != EINPROGRESS && err != EAGAIN) {
      error_ = with_errno("connect " + path, err);
      ::close(fd);
      return false;
    }
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLOUT;
    const int ready = ::poll(
        &pfd, 1, static_cast<int>(std::min<std::uint64_t>(timeout_ms,
                                                          3'600'000)));
    int so_error = 0;
    socklen_t len = sizeof(so_error);
    if (ready <= 0 ||
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) < 0 ||
        so_error != 0) {
      const int cause = so_error != 0 ? so_error : errno;
      error_ = ready == 0 ? "connect " + path + ": timed out"
                          : with_errno("connect " + path, cause);
      ::close(fd);
      return false;
    }
  }
  ::fcntl(fd, F_SETFL, flags);
  fd_ = fd;
  return true;
}

bool LineSocket::write_all(std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) {
        continue;
      }
      error_ = n < 0 ? with_errno("write", errno)
                     : "write: connection closed";
      return false;
    }
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

LineSocket::Read LineSocket::read_line(Clock::time_point deadline,
                                       std::size_t max_bytes,
                                       std::string& line) {
  char chunk[4096];
  while (true) {
    const std::size_t newline = inbuf_.find('\n', scanned_);
    if (newline != std::string::npos) {
      line.assign(inbuf_, 0, newline);
      inbuf_.erase(0, newline + 1);
      scanned_ = 0;
      return Read::kLine;
    }
    scanned_ = inbuf_.size();
    if (inbuf_.size() > max_bytes) {
      return Read::kTooLong;
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (left.count() <= 0) {
      return Read::kTimeout;
    }
    pollfd pfd{};
    pfd.fd = fd_;
    pfd.events = POLLIN;
    // Waits of over an hour are split; the loop re-checks the deadline.
    const int ready = ::poll(
        &pfd, 1, static_cast<int>(std::min<std::int64_t>(left.count(),
                                                         3'600'000)));
    if (ready == 0) {
      continue;
    }
    if (ready < 0) {
      if (errno == EINTR) {
        continue;
      }
      error_ = with_errno("poll", errno);
      return Read::kError;
    }
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n == 0) {
      return Read::kClosed;
    }
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      error_ = with_errno("read", errno);
      return Read::kError;
    }
    inbuf_.append(chunk, static_cast<std::size_t>(n));
  }
}

void LineSocket::shutdown() {
  if (fd_ >= 0) {
    ::shutdown(fd_, SHUT_RDWR);
  }
}

void LineSocket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  inbuf_.clear();
  scanned_ = 0;
}

}  // namespace steersim::svc
