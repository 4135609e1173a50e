#include "net/loopback.hpp"

#include <deque>
#include <iterator>
#include <map>

#include "util/require.hpp"

namespace perq::net {

/// Shared state of one connection: a queue per direction plus open flags.
struct LoopbackQueue {
  std::mutex mu;
  std::deque<proto::Message> to_server;
  std::deque<proto::Message> to_client;
  bool server_open = true;
  bool client_open = true;
};

LoopbackConnection::LoopbackConnection(std::shared_ptr<LoopbackQueue> q,
                                       bool is_server)
    : q_(std::move(q)), is_server_(is_server) {}

LoopbackConnection::~LoopbackConnection() { close(); }

bool LoopbackConnection::send(const proto::Message& m) {
  std::lock_guard lock(q_->mu);
  if (!my_open() || !peer_open()) return false;
  (is_server_ ? q_->to_client : q_->to_server).push_back(m);
  return true;
}

std::vector<proto::Message> LoopbackConnection::receive() {
  std::lock_guard lock(q_->mu);
  auto& inbox = is_server_ ? q_->to_server : q_->to_client;
  std::vector<proto::Message> out(std::make_move_iterator(inbox.begin()),
                                  std::make_move_iterator(inbox.end()));
  inbox.clear();
  return out;
}

void LoopbackConnection::receive_into(std::vector<proto::Message>& out) {
  std::lock_guard lock(q_->mu);
  auto& inbox = is_server_ ? q_->to_server : q_->to_client;
  for (proto::Message& m : inbox) out.push_back(std::move(m));
  inbox.clear();
}

bool LoopbackConnection::open() const {
  std::lock_guard lock(q_->mu);
  // Like a socket: stays readable-open until the inbox drains even if the
  // peer already closed, so no queued message is lost on shutdown.
  const auto& inbox = is_server_ ? q_->to_server : q_->to_client;
  return my_open() && (peer_open() || !inbox.empty());
}

void LoopbackConnection::close() {
  std::lock_guard lock(q_->mu);
  (is_server_ ? q_->server_open : q_->client_open) = false;
}

bool LoopbackConnection::my_open() const {
  return is_server_ ? q_->server_open : q_->client_open;
}

bool LoopbackConnection::peer_open() const {
  return is_server_ ? q_->client_open : q_->server_open;
}

namespace {

struct ListenerState {
  std::mutex mu;
  std::deque<std::unique_ptr<Connection>> pending;
  bool open = true;
};

}  // namespace

struct LoopbackTransport::Registry {
  std::mutex mu;
  std::map<std::string, std::shared_ptr<ListenerState>> listeners;
};

namespace {

class LoopbackListener final : public Listener {
 public:
  explicit LoopbackListener(std::shared_ptr<ListenerState> state)
      : state_(std::move(state)) {}

  ~LoopbackListener() override { close(); }

  std::vector<std::unique_ptr<Connection>> accept_new() override {
    std::lock_guard lock(state_->mu);
    std::vector<std::unique_ptr<Connection>> out;
    while (!state_->pending.empty()) {
      out.push_back(std::move(state_->pending.front()));
      state_->pending.pop_front();
    }
    return out;
  }

  void close() override {
    std::lock_guard lock(state_->mu);
    state_->open = false;
    state_->pending.clear();
  }

 private:
  std::shared_ptr<ListenerState> state_;
};

}  // namespace

LoopbackTransport::LoopbackTransport() : registry_(std::make_shared<Registry>()) {}

LoopbackTransport::~LoopbackTransport() = default;

std::unique_ptr<Listener> LoopbackTransport::listen(const std::string& address) {
  std::lock_guard lock(registry_->mu);
  auto& slot = registry_->listeners[address];
  PERQ_REQUIRE(slot == nullptr || !slot->open,
               "loopback address already listening: " + address);
  slot = std::make_shared<ListenerState>();
  return std::make_unique<LoopbackListener>(slot);
}

std::unique_ptr<Connection> LoopbackTransport::connect(const std::string& address) {
  std::shared_ptr<ListenerState> state;
  {
    std::lock_guard lock(registry_->mu);
    const auto it = registry_->listeners.find(address);
    PERQ_REQUIRE(it != registry_->listeners.end() && it->second->open,
                 "no loopback listener at: " + address);
    state = it->second;
  }
  auto pair = std::make_shared<LoopbackQueue>();
  auto client = std::make_unique<LoopbackConnection>(pair, /*is_server=*/false);
  {
    std::lock_guard lock(state->mu);
    PERQ_REQUIRE(state->open, "loopback listener closed: " + address);
    state->pending.push_back(
        std::make_unique<LoopbackConnection>(std::move(pair), /*is_server=*/true));
  }
  return client;
}

}  // namespace perq::net
