// Resilience-surface tests (docs/SERVICE.md §Failure modes): the per-frame
// (slowloris) timeout, SIGPIPE immunity when a client vanishes before its
// reply, SteersimClient's reconnect/retry/backoff discipline — including
// recovery through injected frame chaos — and the full-jitter backoff math.
//
// The socket tests drive a real SocketServer over a Unix domain socket in
// /tmp, speaking to it raw through the same LineSocket transport the
// server and client use.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>

#include "common/rng.hpp"
#include "svc/chaos.hpp"
#include "svc/client.hpp"
#include "svc/line_socket.hpp"
#include "svc/protocol.hpp"
#include "svc/server.hpp"
#include "svc/service.hpp"

namespace steersim::svc {
namespace {

// ---------------------------------------------------------------------------
// Full-jitter backoff: pure math, portable.

TEST(Backoff, ZeroBaseNeverSleeps) {
  Xoshiro256 rng(1);
  for (unsigned attempt = 0; attempt < 12; ++attempt) {
    EXPECT_EQ(SteersimClient::backoff_delay_ms(attempt, 0, 1000, rng), 0u);
  }
}

TEST(Backoff, DelayIsBoundedByTheGrowingCeilingAndTheCap) {
  Xoshiro256 rng(42);
  std::set<std::uint64_t> seen;
  for (int draw = 0; draw < 200; ++draw) {
    EXPECT_LE(SteersimClient::backoff_delay_ms(0, 8, 1000, rng), 8u);
    EXPECT_LE(SteersimClient::backoff_delay_ms(3, 8, 1000, rng), 64u);
    // Attempt 77 would shift base off the end of uint64: the cap holds.
    const std::uint64_t capped =
        SteersimClient::backoff_delay_ms(77, 8, 1000, rng);
    EXPECT_LE(capped, 1000u);
    seen.insert(capped);
  }
  EXPECT_GT(seen.size(), 1u) << "full jitter must actually jitter";
}

// ---------------------------------------------------------------------------
// Client vs a daemon that does not exist: fail fast, typed, retriable.

TEST(Client, AbsentDaemonYieldsASynthesizedTransportError) {
  ClientOptions options;
  options.socket_path = "/tmp/steersim-test-no-such-daemon.sock";
  options.connect_timeout_ms = 200;
  options.max_attempts = 3;
  options.backoff_base_ms = 0;
  SteersimClient client(options);

  Request ping;
  ping.type = RequestType::kPing;
  ping.id = "anyone-home";
  const Reply reply = client.call(ping);
  ASSERT_EQ(reply.type, ReplyType::kError);
  EXPECT_EQ(reply.code, error_code::kTransport)
      << "a code the server never sends: unmistakably client-side";
  EXPECT_TRUE(reply.retriable);
  EXPECT_EQ(reply.id, "anyone-home");
  EXPECT_NE(reply.message.find("after 3 attempts"), std::string::npos)
      << reply.message;
  EXPECT_EQ(client.stats().connects, 0u);
  EXPECT_FALSE(client.connected());
}

// ---------------------------------------------------------------------------
// Socket-level tests: a real SimService + SocketServer on a /tmp socket.

using Read = LineSocket::Read;
constexpr auto kNoLimit = std::string::npos;

std::string unique_socket_path(const char* tag) {
  static std::atomic<int> counter{0};
  return "/tmp/steersim-test-" + std::string(tag) + "-" +
         std::to_string(static_cast<long>(::getpid())) + "-" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

/// The slowloris verdict, given the first read after the client stalled:
/// one typed retriable `timeout` error frame, then the server closes.
void expect_timed_out(LineSocket& socket, Read first,
                      const std::string& line) {
  ASSERT_EQ(first, Read::kLine) << "expected one error frame";
  Reply reply;
  std::string error;
  ASSERT_TRUE(Reply::parse(line, reply, error)) << error;
  ASSERT_EQ(reply.type, ReplyType::kError);
  EXPECT_EQ(reply.code, error_code::kTimeout);
  EXPECT_TRUE(reply.retriable) << "an idle cut invites a clean retry";
  std::string rest;
  EXPECT_EQ(socket.read_line(LineSocket::deadline_in(5000), kNoLimit, rest),
            Read::kClosed)
      << "nothing after the error frame: the connection is closed";
}

Request submit_fib(std::uint64_t seed, std::string id = "") {
  Request request;
  request.type = RequestType::kSubmit;
  request.kernel = "fib";
  request.seed = seed;
  request.id = std::move(id);
  return request;
}

// ---------------------------------------------------------------------------
// Satellite: the slowloris guard. A connection holding a half frame open
// gets a typed retriable `timeout` error, then the server closes it.

TEST(Resilience, IdleConnectionIsTimedOutWithATypedError) {
  SimService service({.workers = 1, .queue_capacity = 4});
  SocketServer server(service, {.socket_path = unique_socket_path("idle"),
                                .idle_timeout_ms = 100});
  ASSERT_TRUE(server.start());
  LineSocket client;
  ASSERT_TRUE(client.connect(server.socket_path(), 1000)) << client.error();
  ASSERT_TRUE(client.write_all(R"({"type":"ping")"));  // half a frame

  std::string line;
  const Read read =
      client.read_line(LineSocket::deadline_in(5000), kNoLimit, line);
  expect_timed_out(client, read, line);
}

// The timeout bounds the whole frame, not the gap between chunks: a
// client trickling a partial frame at half the timeout per byte is cut
// off just as a silent one is.
TEST(Resilience, TricklingClientIsTimedOut) {
  SimService service({.workers = 1, .queue_capacity = 4});
  SocketServer server(service, {.socket_path = unique_socket_path("trickle"),
                                .idle_timeout_ms = 200});
  ASSERT_TRUE(server.start());
  LineSocket client;
  ASSERT_TRUE(client.connect(server.socket_path(), 1000)) << client.error();

  // 40 bytes at 100 ms each: 4 s of trickle against a 200 ms budget.
  const std::string partial = R"({"type":"ping","id":"trickle-trickle-tri)";
  std::string line;
  Read read = Read::kTimeout;
  for (const char byte : partial) {
    // Fails harmlessly once the server has replied and closed.
    client.write_all(std::string(1, byte));
    read = client.read_line(LineSocket::deadline_in(100), kNoLimit, line);
    if (read != Read::kTimeout) {
      break;
    }
  }
  expect_timed_out(client, read, line);
}

// ---------------------------------------------------------------------------
// Satellite: SIGPIPE immunity. A client that submits and vanishes before
// reading its reply must cost the daemon one EPIPE, not the process.

TEST(Resilience, ServerSurvivesAClientThatVanishesBeforeItsReply) {
  SimService service({.workers = 1, .queue_capacity = 4});
  SocketServer server(service, {.socket_path = unique_socket_path("vanish")});
  ASSERT_TRUE(server.start());
  LineSocket doomed;
  ASSERT_TRUE(doomed.connect(server.socket_path(), 1000)) << doomed.error();
  ASSERT_TRUE(doomed.write_all(submit_fib(1, "doomed").to_json() + "\n"));
  doomed.close();  // gone before the reply: the server's write hits EPIPE

  // Wait for the submit to have been processed, then prove the daemon is
  // still answering.
  for (int i = 0; i < 2000 && service.stats().submitted == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(service.stats().submitted, 1u);

  ClientOptions options;
  options.socket_path = server.socket_path();
  SteersimClient client(options);
  Request ping;
  ping.type = RequestType::kPing;
  ping.id = "still-there";
  const Reply pong = client.call(ping);
  ASSERT_EQ(pong.type, ReplyType::kPong) << pong.message;
  EXPECT_EQ(pong.id, "still-there");
}

// ---------------------------------------------------------------------------
// Tentpole: the resilient client completes every job through frame chaos.

TEST(Resilience, ClientRetriesThroughFrameChaosToEventualSuccess) {
  ChaosSpec spec;
  spec.site(ChaosSite::kFrameDrop) = 0.5;
  spec.site(ChaosSite::kFrameCorrupt) = 0.25;
  spec.seed = 1234;
  ChaosInjector::install(std::make_unique<ChaosInjector>(spec));

  {
    SimService service({.workers = 2, .queue_capacity = 8});
    SocketServer server(service, {.socket_path = unique_socket_path("chaos")});
    ASSERT_TRUE(server.start());
    ClientOptions options;
    options.socket_path = server.socket_path();
    options.read_timeout_ms = 2000;
    options.max_attempts = 64;
    options.backoff_base_ms = 1;
    options.backoff_cap_ms = 4;
    SteersimClient client(options);

    // Type is the only safe assertion on the payload: a corrupt-site bit
    // flip in a *data* byte (say, inside `outcome`) yields a frame that
    // still parses — the protocol has no checksum, so such corruption is
    // indistinguishable from a genuine reply. A flip that breaks the
    // JSON or the type tag is caught by strict parsing and retried.
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
      const Reply reply = client.call(submit_fib(seed));
      ASSERT_EQ(reply.type, ReplyType::kResult)
          << "seed " << seed << ": " << reply.message;
    }
    const ClientStats stats = client.stats();
    EXPECT_GE(stats.retries_transport, 1u)
        << "a 50% drop rate must have forced at least one retry";
    EXPECT_GE(stats.reconnects, 1u)
        << "dropped frames close the connection: reconnects follow";
    EXPECT_GT(stats.attempts, 6u);
  }
  // The server (and its connection threads) are down: safe to retire the
  // injector.
  ChaosInjector::install(nullptr);
}

// ---------------------------------------------------------------------------
// Retriable error replies retry on the live connection (no reconnect).

TEST(Resilience, RetriableErrorRepliesRetryWithoutReconnecting) {
  SimService service({.workers = 1,
                      .queue_capacity = 4,
                      .cancel_check_cycles = 512,
                      .watchdog_poll_ms = 5,
                      .watchdog_grace_ms = 10'000});
  SocketServer server(service,
                      {.socket_path = unique_socket_path("retriable")});
  ASSERT_TRUE(server.start());
  ClientOptions options;
  options.socket_path = server.socket_path();
  options.max_attempts = 2;
  options.backoff_base_ms = 0;
  SteersimClient client(options);

  Request hopeless;
  hopeless.type = RequestType::kSubmit;
  hopeless.asm_source = "loop:\n  addi r1, r1, 1\n  beq r0, r0, loop\n";
  hopeless.max_cycles = 40'000'000;
  hopeless.wall_ms = 30;
  const Reply reply = client.call(hopeless);
  ASSERT_EQ(reply.type, ReplyType::kError);
  EXPECT_EQ(reply.code, error_code::kWallDeadline)
      << "attempts exhausted: the last retriable reply comes back verbatim";
  EXPECT_TRUE(reply.retriable);

  const ClientStats stats = client.stats();
  EXPECT_EQ(stats.retries_retriable, 1u);
  EXPECT_EQ(stats.attempts, 2u);
  EXPECT_EQ(stats.reconnects, 0u)
      << "error replies are healthy transport: keep the connection";
  EXPECT_EQ(service.stats().wall_deadline_exceeded, 2u);
}

}  // namespace
}  // namespace steersim::svc
