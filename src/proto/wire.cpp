#include "proto/wire.hpp"

namespace perq::proto {

void WireWriter::bytes(const std::uint8_t* data, std::size_t n) {
  buf_->insert(buf_->end(), data, data + n);
}

void WireWriter::patch_u32(std::size_t offset, std::uint32_t v) {
  for (std::size_t i = 0; i < 4; ++i) {
    (*buf_)[offset + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

void WireReader::blob(std::vector<std::uint8_t>& out) {
  out.clear();
  const std::uint32_t n = u32();
  if (!ok_ || size_ - pos_ < n) {
    ok_ = false;
    return;
  }
  out.insert(out.end(), data_ + pos_, data_ + pos_ + n);
  pos_ += n;
}

}  // namespace perq::proto
