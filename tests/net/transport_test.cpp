#include "net/transport.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <thread>

#include "net/loopback.hpp"
#include "net/tcp.hpp"
#include "util/require.hpp"

namespace perq::net {
namespace {

proto::Message hello(std::uint32_t id) {
  proto::Hello h;
  h.agent_id = id;
  return h;
}

std::uint32_t hello_id(const proto::Message& m) {
  return std::get<proto::Hello>(m).agent_id;
}

// ---- loopback --------------------------------------------------------------

TEST(Loopback, ConnectBeforeListenThrows) {
  LoopbackTransport t;
  EXPECT_THROW(t.connect("nowhere"), precondition_error);
}

TEST(Loopback, DoubleListenOnLiveAddressThrows) {
  LoopbackTransport t;
  auto l = t.listen("a");
  EXPECT_THROW(t.listen("a"), precondition_error);
}

TEST(Loopback, SynchronousBidirectionalDelivery) {
  LoopbackTransport t;
  auto listener = t.listen("perqd");
  auto client = t.connect("perqd");
  auto accepted = listener->accept_new();
  ASSERT_EQ(accepted.size(), 1u);
  auto& server = *accepted[0];

  EXPECT_TRUE(client->send(hello(1)));
  auto got = server.receive();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(hello_id(got[0]), 1u);

  EXPECT_TRUE(server.send(hello(2)));
  got = client->receive();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(hello_id(got[0]), 2u);
}

TEST(Loopback, OrderPreservedAcrossManyMessages) {
  LoopbackTransport t;
  auto listener = t.listen("perqd");
  auto client = t.connect("perqd");
  auto server = std::move(listener->accept_new()[0]);
  for (std::uint32_t i = 0; i < 100; ++i) client->send(hello(i));
  const auto got = server->receive();
  ASSERT_EQ(got.size(), 100u);
  for (std::uint32_t i = 0; i < 100; ++i) EXPECT_EQ(hello_id(got[i]), i);
}

TEST(Loopback, PeerCloseDrainsThenCloses) {
  LoopbackTransport t;
  auto listener = t.listen("perqd");
  auto client = t.connect("perqd");
  auto server = std::move(listener->accept_new()[0]);
  client->send(hello(7));
  client->close();
  EXPECT_FALSE(client->send(hello(8)));
  // The in-flight message is still deliverable before the close is final.
  EXPECT_TRUE(server->open());
  const auto got = server->receive();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(hello_id(got[0]), 7u);
  EXPECT_TRUE(server->receive().empty());
  EXPECT_FALSE(server->open());
}

/// Encodes messages back to back into one buffer, the way an agent batches
/// its tick.
SharedFrame batch_of(const std::vector<proto::Message>& msgs) {
  auto buf = std::make_shared<std::vector<std::uint8_t>>();
  for (const proto::Message& m : msgs) proto::encode_append(m, *buf);
  return buf;
}

TEST(Loopback, SendFrameDeliversEveryFrameOfABatchInOrder) {
  LoopbackTransport t;
  auto listener = t.listen("perqd");
  auto client = t.connect("perqd");
  auto server = std::move(listener->accept_new()[0]);
  EXPECT_TRUE(client->send_frame(batch_of({hello(1), hello(2), hello(3)})));
  const auto got = server->receive();
  ASSERT_EQ(got.size(), 3u);
  for (std::uint32_t i = 0; i < 3; ++i) EXPECT_EQ(hello_id(got[i]), i + 1);
}

TEST(Loopback, SendFrameRefusesABatchThatFramesDoNotTile) {
  LoopbackTransport t;
  auto listener = t.listen("perqd");
  auto client = t.connect("perqd");
  auto server = std::move(listener->accept_new()[0]);
  const SharedFrame whole = batch_of({hello(1), hello(2), hello(3)});

  // The last frame cut short by one byte: nothing is delivered, not even
  // the two whole frames before it.
  const auto cut = std::make_shared<std::vector<std::uint8_t>>(
      whole->begin(), whole->end() - 1);
  EXPECT_FALSE(client->send_frame(cut));
  // Trailing bytes too few for a length prefix.
  const auto tail = std::make_shared<std::vector<std::uint8_t>>(*whole);
  tail->insert(tail->end(), {0x01, 0x00});
  EXPECT_FALSE(client->send_frame(tail));
  EXPECT_FALSE(client->send_frame(std::make_shared<std::vector<std::uint8_t>>()));
  EXPECT_TRUE(server->receive().empty());
  EXPECT_TRUE(client->open());
}

// ---- tcp -------------------------------------------------------------------

TEST(Tcp, EphemeralPortRoundTrip) {
  TcpTransport t;
  auto listener = t.listen("127.0.0.1:0");
  const std::uint16_t port = listener_port(*listener);
  ASSERT_NE(port, 0);
  auto client = t.connect("127.0.0.1:" + std::to_string(port));

  std::unique_ptr<Connection> server;
  client->send(hello(42));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  std::vector<proto::Message> got;
  while (got.empty() && std::chrono::steady_clock::now() < deadline) {
    if (!server) {
      auto accepted = listener->accept_new();
      if (!accepted.empty()) server = std::move(accepted[0]);
    }
    if (server) {
      for (auto& m : server->receive()) got.push_back(std::move(m));
    }
    client->receive();  // progress the client's pending writes
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(hello_id(got[0]), 42u);

  // And the reverse direction.
  server->send(hello(43));
  got.clear();
  while (got.empty() && std::chrono::steady_clock::now() < deadline) {
    server->receive();
    for (auto& m : client->receive()) got.push_back(std::move(m));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(hello_id(got[0]), 43u);
}

TEST(Tcp, ManyMessagesSurvivePartialWrites) {
  TcpTransport t;
  auto listener = t.listen("127.0.0.1:0");
  auto client =
      t.connect("127.0.0.1:" + std::to_string(listener_port(*listener)));
  // A burst larger than typical socket buffers exercises the send-buffer
  // partial-write path.
  constexpr std::uint32_t kCount = 20000;
  for (std::uint32_t i = 0; i < kCount; ++i) client->send(hello(i));

  std::unique_ptr<Connection> server;
  std::vector<proto::Message> got;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (got.size() < kCount && std::chrono::steady_clock::now() < deadline) {
    if (!server) {
      auto accepted = listener->accept_new();
      if (!accepted.empty()) server = std::move(accepted[0]);
    }
    client->receive();  // flush pending writes
    if (server) {
      for (auto& m : server->receive()) got.push_back(std::move(m));
    }
  }
  ASSERT_EQ(got.size(), kCount);
  for (std::uint32_t i = 0; i < kCount; ++i) EXPECT_EQ(hello_id(got[i]), i);
}

TEST(Tcp, CorruptStreamClosesConnection) {
  TcpTransport t;
  auto listener = t.listen("127.0.0.1:0");
  const std::uint16_t port = listener_port(*listener);

  // Raw socket writing garbage straight at the server.
  auto client = t.connect("127.0.0.1:" + std::to_string(port));
  const std::uint8_t junk[] = {0xFF, 0xFF, 0xFF, 0xFF, 0xDE, 0xAD};
  // Smuggle the junk through a Hello-then-garbage by using the fd directly:
  // send a valid frame first so the connection is definitely established.
  client->send(hello(1));

  std::unique_ptr<Connection> server;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  bool wrote_junk = false;
  while (std::chrono::steady_clock::now() < deadline) {
    if (!server) {
      auto accepted = listener->accept_new();
      if (!accepted.empty()) server = std::move(accepted[0]);
    }
    client->receive();
    if (server) {
      server->receive();
      if (!wrote_junk && client->fd() >= 0) {
        // 0xFFFFFFFF as a length prefix is beyond kMaxFrameBytes.
        ASSERT_GT(::write(client->fd(), junk, sizeof(junk)), 0);
        wrote_junk = true;
      }
      if (!server->open()) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(server != nullptr);
  EXPECT_FALSE(server->open());
}

TEST(Tcp, EofClosesServerSide) {
  TcpTransport t;
  auto listener = t.listen("127.0.0.1:0");
  auto client =
      t.connect("127.0.0.1:" + std::to_string(listener_port(*listener)));
  client->send(hello(5));

  std::unique_ptr<Connection> server;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  bool closed_client = false;
  std::size_t got = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    if (!server) {
      auto accepted = listener->accept_new();
      if (!accepted.empty()) server = std::move(accepted[0]);
    }
    client->receive();
    if (server) {
      got += server->receive().size();
      if (got >= 1 && !closed_client) {
        client->close();
        closed_client = true;
      }
      if (closed_client && !server->open()) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(got, 1u);
  ASSERT_TRUE(closed_client);
  EXPECT_FALSE(server->open());
}

TEST(Tcp, BadAddressThrows) {
  TcpTransport t;
  EXPECT_THROW(t.listen("not-an-address"), precondition_error);
  EXPECT_THROW(t.connect("127.0.0.1"), precondition_error);
  EXPECT_THROW(t.listen("127.0.0.1:notaport"), precondition_error);
}

}  // namespace
}  // namespace perq::net
