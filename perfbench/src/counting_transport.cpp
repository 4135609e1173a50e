#include "counting_transport.hpp"

#include <utility>

namespace perfbench {

bool CountingConnection::send(const perq::proto::Message& m) {
  const bool ok = inner_->send(m);
  if (ok) {
    perq::proto::encode_into(m, scratch_);
    ++counts_.frames_sent;
    counts_.bytes_sent += scratch_.size();
  }
  return ok;
}

bool CountingConnection::send_frame(const perq::net::SharedFrame& f) {
  const bool ok = inner_->send_frame(f);
  if (ok) {
    ++counts_.frames_sent;
    counts_.bytes_sent += f->size();
  }
  return ok;
}

std::vector<perq::proto::Message> CountingConnection::receive() {
  std::vector<perq::proto::Message> msgs = inner_->receive();
  count_received(msgs, 0);
  return msgs;
}

void CountingConnection::receive_into(std::vector<perq::proto::Message>& out) {
  const std::size_t from = out.size();
  inner_->receive_into(out);
  count_received(out, from);
}

void CountingConnection::count_received(const std::vector<perq::proto::Message>& msgs,
                                        std::size_t from) {
  for (std::size_t i = from; i < msgs.size(); ++i) {
    perq::proto::encode_into(msgs[i], scratch_);
    ++counts_.frames_recv;
    counts_.bytes_recv += scratch_.size();
  }
}

std::unique_ptr<perq::net::Connection> CountingTransport::connect(
    const std::string& address) {
  auto conn = inner_.connect(address);
  if (conn == nullptr) return conn;
  return std::make_unique<CountingConnection>(std::move(conn), counts_);
}

}  // namespace perfbench
