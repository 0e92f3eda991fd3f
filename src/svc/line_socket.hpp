// The one transport for the steersimd wire protocol (docs/SERVICE.md): an
// AF_UNIX stream socket carrying '\n'-terminated frames. The server's
// connection threads, SteersimClient, proto_fuzz and the socket tests all
// connect, write and read frames through this type, so framing, EINTR
// handling, SIGPIPE immunity and deadlines live in one place.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace steersim::svc {

class LineSocket {
 public:
  using Clock = std::chrono::steady_clock;

  /// What one read_line() call ended with.
  enum class Read {
    kLine,     ///< a complete frame, newline stripped
    kClosed,   ///< the peer closed (or the socket was shut down)
    kTimeout,  ///< the deadline passed before a newline arrived
    kTooLong,  ///< more than max_bytes buffered without a newline
    kError,    ///< poll/read failed; see error()
  };

  /// `ms` from now; saturates to Clock::time_point::max() (never) for
  /// spans too long for the clock to represent.
  static Clock::time_point deadline_in(std::uint64_t ms) {
    constexpr std::uint64_t kNeverMs = 1'000'000'000'000;  // ~31 years
    return ms >= kNeverMs ? Clock::time_point::max()
                          : Clock::now() + std::chrono::milliseconds(ms);
  }

  LineSocket() = default;
  /// Adopts an already-connected descriptor (an accept()ed client).
  explicit LineSocket(int fd) : fd_(fd) {}
  ~LineSocket() { close(); }
  LineSocket(const LineSocket&) = delete;
  LineSocket& operator=(const LineSocket&) = delete;

  /// Closes any open descriptor, then connects to the socket at `path`
  /// without blocking longer than `timeout_ms`. False with error() set.
  bool connect(const std::string& path, std::uint64_t timeout_ms);

  /// Writes every byte, retrying short writes and EINTR. Never raises
  /// SIGPIPE: a vanished peer is a false return with error() set.
  bool write_all(std::string_view bytes);

  /// Returns the next frame in `line`. Bytes read past that frame stay
  /// buffered for the next call; a frame already buffered is returned
  /// without touching the socket. Clock::time_point::max() never times
  /// out.
  Read read_line(Clock::time_point deadline, std::size_t max_bytes,
                 std::string& line);

  /// Unblocks a thread waiting in read_line() or write_all() on this
  /// socket; the descriptor stays open until close().
  void shutdown();
  /// Closes the descriptor and drops buffered bytes. Idempotent.
  void close();

  bool is_open() const { return fd_ >= 0; }
  /// The last failure of connect(), write_all() or read_line().
  const std::string& error() const { return error_; }

 private:
  int fd_ = -1;
  std::string inbuf_;
  /// Prefix of inbuf_ already searched for '\n'.
  std::size_t scanned_ = 0;
  std::string error_;
};

}  // namespace steersim::svc
