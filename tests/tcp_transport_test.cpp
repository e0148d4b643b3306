// In-process exercise of the epoll TCP transport (net/tcp_transport.hpp):
// loopback delivery between two daemon-style transports, local (same-
// process) delivery, timers on the monotonic clock, and the hostile-stream
// path — a malformed frame must close only the offending connection, be
// counted in Stats::frames_rejected, and leave the hosted actors serving.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <stdexcept>
#include <vector>

#include "net/frame.hpp"
#include "net/tcp_transport.hpp"

namespace dla::net {
namespace {

// Tests in this binary run sequentially; derive a port block from the pid
// so parallel ctest invocations of other binaries cannot collide, and give
// each test its own sub-block. Every block lies in [20000, 29600): Linux
// hands out outbound connections' local ports from 32768-60999 by default,
// so a listen port there can already be taken by a parallel test's client
// socket; transport_e2e.sh uses [29600, 32640).
std::uint16_t test_base_port(std::uint16_t block) {
  return static_cast<std::uint16_t>(20000 + (::getpid() % 150) * 64 +
                                    block * 8);
}

// Records everything delivered; echoes type+1 back to the sender when
// `echo` is set so tests can observe a full round trip.
class RecorderNode : public Node {
 public:
  explicit RecorderNode(bool echo = false) : echo_(echo) {}

  void on_message(Transport& net, const Message& msg) override {
    received.push_back(msg);
    if (echo_) net.send(id(), msg.src, msg.type + 1, msg.payload);
  }
  void on_timer(Transport&, std::uint64_t timer_id) override {
    timers.push_back(timer_id);
  }

  std::vector<Message> received;
  std::vector<std::uint64_t> timers;

 private:
  bool echo_ = false;
};

TEST(TcpTransport, DeliversAcrossTwoTransportsAndBack) {
  const std::uint16_t base = test_base_port(0);
  TcpTransport a(base), b(base);
  RecorderNode alice;
  RecorderNode bob(/*echo=*/true);
  a.host(alice, 1);
  b.host(bob, 2);

  a.send(1, 2, 0x42, Bytes{9, 8, 7});
  // b must receive, echo, and a must see the echo. The two loops live in
  // one thread, so pump them alternately in short slices.
  bool done = false;
  for (int i = 0; i < 500 && !done; ++i) {
    b.run_until([] { return false; }, 5 * 1000);
    a.run_until([] { return false; }, 5 * 1000);
    done = !alice.received.empty();
  }
  ASSERT_EQ(bob.received.size(), 1u);
  EXPECT_EQ(bob.received[0].src, 1u);
  EXPECT_EQ(bob.received[0].dst, 2u);
  EXPECT_EQ(bob.received[0].type, 0x42u);
  EXPECT_EQ(bob.received[0].payload, (Bytes{9, 8, 7}));
  ASSERT_EQ(alice.received.size(), 1u);
  EXPECT_EQ(alice.received[0].type, 0x43u);
  EXPECT_EQ(alice.received[0].payload, (Bytes{9, 8, 7}));
  EXPECT_GE(a.stats().frames_sent, 1u);
  EXPECT_GE(a.stats().frames_delivered, 1u);
  EXPECT_GE(b.stats().connections_accepted, 1u);
}

TEST(TcpTransport, DeliversLocallyBetweenCoHostedActors) {
  const std::uint16_t base = test_base_port(1);
  TcpTransport t(base);
  RecorderNode a, b;
  t.host(a, 5);
  t.host(b, 6);
  t.send(5, 6, 7, Bytes{1});
  ASSERT_TRUE(t.run_until([&] { return !b.received.empty(); }, 2 * 1000 * 1000));
  EXPECT_EQ(b.received[0].src, 5u);
  EXPECT_EQ(b.received[0].type, 7u);
}

TEST(TcpTransport, TimersFireOnTheMonotonicClock) {
  const std::uint16_t base = test_base_port(2);
  TcpTransport t(base);
  RecorderNode a;
  t.host(a, 1);
  const SimTime before = t.now();
  std::uint64_t fired_id = t.set_timer(1, 5 * 1000);  // 5ms
  std::uint64_t cancelled_id = t.set_timer(1, 5 * 1000);
  t.cancel_timer(cancelled_id);
  ASSERT_TRUE(t.run_until([&] { return !a.timers.empty(); }, 2 * 1000 * 1000));
  ASSERT_EQ(a.timers.size(), 1u);
  EXPECT_EQ(a.timers[0], fired_id);
  EXPECT_GE(t.now(), before + 5 * 1000);
  // The cancelled timer must not fire later either.
  t.run_until([] { return false; }, 20 * 1000);
  EXPECT_EQ(a.timers.size(), 1u);
}

// Writes raw bytes to a hosted actor's listener from a plain socket.
int raw_connect(std::uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST(TcpTransport, MalformedStreamIsCountedAndConnectionDropped) {
  const std::uint16_t base = test_base_port(3);
  TcpTransport t(base);
  RecorderNode a;
  t.host(a, 0);

  int fd = raw_connect(base);
  ASSERT_GE(fd, 0);
  const std::uint8_t garbage[] = {0xde, 0xad, 0xbe, 0xef, 0x00, 0x11};
  ASSERT_EQ(::send(fd, garbage, sizeof(garbage), MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(garbage)));
  t.run_until([&] { return t.stats().frames_rejected > 0; }, 2 * 1000 * 1000);
  EXPECT_EQ(t.stats().frames_rejected, 1u);
  EXPECT_GE(t.stats().connections_dropped, 1u);
  ::close(fd);

  // A well-formed frame on a fresh connection still goes through: the
  // hostile stream poisoned its own connection only.
  Message msg;
  msg.src = 9;
  msg.dst = 0;
  msg.type = 3;
  msg.payload = Bytes{4, 5};
  Bytes wire = encode_frame(msg);
  int fd2 = raw_connect(base);
  ASSERT_GE(fd2, 0);
  ASSERT_EQ(::send(fd2, wire.data(), wire.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(wire.size()));
  ASSERT_TRUE(
      t.run_until([&] { return !a.received.empty(); }, 2 * 1000 * 1000));
  EXPECT_EQ(a.received[0].type, 3u);
  EXPECT_EQ(a.received[0].payload, (Bytes{4, 5}));
  ::close(fd2);
}

TEST(TcpTransport, FrameForNonHostedIdCountsAsMisrouted) {
  const std::uint16_t base = test_base_port(4);
  TcpTransport t(base);
  RecorderNode a;
  t.host(a, 0);

  Message msg;
  msg.src = 9;
  msg.dst = 77;  // not hosted here
  msg.type = 1;
  Bytes wire = encode_frame(msg);
  int fd = raw_connect(base);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(wire.size()));
  t.run_until([&] { return t.stats().frames_misrouted > 0; }, 2 * 1000 * 1000);
  EXPECT_EQ(t.stats().frames_misrouted, 1u);
  EXPECT_TRUE(a.received.empty());
  ::close(fd);
}

TEST(TcpTransport, OversizeFrameIsRejectedByThePayloadCap) {
  const std::uint16_t base = test_base_port(5);
  TcpTransport t(base, /*max_payload=*/64);
  RecorderNode a;
  t.host(a, 0);

  Message msg;
  msg.src = 1;
  msg.dst = 0;
  msg.type = 2;
  msg.payload = Bytes(65, 0xaa);
  Bytes wire = encode_frame(msg);
  int fd = raw_connect(base);
  ASSERT_GE(fd, 0);
  // The peer may reset the connection as soon as it sees the header; a
  // short or failed write is acceptable — but it must surface as an error,
  // not a SIGPIPE, hence MSG_NOSIGNAL.
  ssize_t ignored = ::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL);
  (void)ignored;
  t.run_until([&] { return t.stats().frames_rejected > 0; }, 2 * 1000 * 1000);
  EXPECT_EQ(t.stats().frames_rejected, 1u);
  EXPECT_TRUE(a.received.empty());
  ::close(fd);
}

// Plain listener standing in for a remote daemon; returns the listening fd.
int raw_listen(std::uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 4) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// Regression for two remote-triggerable daemon kills on the send path: a
// fatal write error inside send()'s flush used to destroy the Connection
// and then keep using the dangling reference (use-after-free), and the
// failing write itself used to raise SIGPIPE. A peer that resets before we
// send is routine (it is how poisoned streams are dropped), so sending
// after the reset must just close and count the connection.
TEST(TcpTransport, SendAfterPeerResetDropsConnectionSafely) {
  const std::uint16_t base = test_base_port(6);
  TcpTransport t(base);
  RecorderNode a;
  t.host(a, 1);
  int listener = raw_listen(static_cast<std::uint16_t>(base + 2));
  ASSERT_GE(listener, 0);

  t.send(1, 2, 1, Bytes{1, 2, 3});
  // Pump until the nonblocking connect completes and the frame flushes.
  t.run_until([] { return false; }, 50 * 1000);
  int peer = ::accept(listener, nullptr, nullptr);
  ASSERT_GE(peer, 0);
  // Reset (not FIN): SO_LINGER with zero timeout makes close() send RST.
  linger lg{1, 0};
  ASSERT_EQ(::setsockopt(peer, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg)), 0);
  ::close(peer);
  ::usleep(20 * 1000);  // let the RST land without pumping the loop

  // First send hits the reset socket (write fails -> connection destroyed
  // mid-send); the second goes through a fresh outbound connection. Neither
  // may crash or signal.
  t.send(1, 2, 2, Bytes{4});
  t.send(1, 2, 3, Bytes{5});
  t.run_until([] { return false; }, 20 * 1000);
  EXPECT_GE(t.stats().connections_dropped, 1u);
  ::close(listener);
}

TEST(TcpTransport, HostRejectsIdBeyondThePortSpace) {
  TcpTransport t(65000);
  RecorderNode a;
  EXPECT_THROW(t.host(a, 5000), std::out_of_range);  // 65000 + 5000 > 65535
  EXPECT_FALSE(t.hosts(5000));
}

// A hostile frame controls the src id an actor replies to; a dst that would
// wrap htons() onto a bogus port must be dropped and counted, never thrown
// (an exception here unwinds through the event loop and kills the daemon).
TEST(TcpTransport, SendToUnroutableIdIsDroppedAndCounted) {
  const std::uint16_t base = test_base_port(7);
  TcpTransport t(base);
  RecorderNode a;
  t.host(a, 1);
  EXPECT_NO_THROW(t.send(1, 0xffffffffu, 7, Bytes{1}));
  EXPECT_EQ(t.stats().frames_unroutable, 1u);
  EXPECT_EQ(t.stats().frames_sent, 1u);
  EXPECT_EQ(t.stats().connect_failures, 0u);
}

}  // namespace
}  // namespace dla::net
