#include "acct/event_log.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <vector>

#include "util/require.hpp"

namespace perq::acct {
namespace {

constexpr std::size_t kHeaderBytes = 8;  // u32 len + u32 crc

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

std::uint32_t read_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

void write_le32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

void write_record(std::FILE* f, const std::uint8_t* payload, std::size_t n,
                  const std::string& path) {
  std::uint8_t header[kHeaderBytes];
  write_le32(header, static_cast<std::uint32_t>(n));
  write_le32(header + 4, crc32(payload, n));
  PERQ_REQUIRE(std::fwrite(header, 1, sizeof(header), f) == sizeof(header) &&
                   std::fwrite(payload, 1, n, f) == n,
               "event log write failed: " + path);
}

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t n) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c = table[(c ^ data[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

EventLog::~EventLog() { close_file(); }

void EventLog::close_file() {
  if (file_ != nullptr) {
    std::fflush(file_);
    std::fclose(file_);
    file_ = nullptr;
  }
}

void EventLog::open(const std::string& path, const Magic& magic,
                    const ReplayFn& replay) {
  PERQ_REQUIRE(!opened_, "event log already open");
  opened_ = true;
  path_ = path;
  magic_ = magic;
  if (path_.empty()) return;  // in-memory mode

  // "a+b" creates the file when absent and never clobbers existing bytes.
  file_ = std::fopen(path_.c_str(), "a+b");
  PERQ_REQUIRE(file_ != nullptr, "cannot open event log " + path_ + ": " +
                                     std::strerror(errno));

  // Scan phase: validate the magic, then replay records until the first
  // torn or corrupt one.
  std::rewind(file_);
  Magic found{};
  const std::size_t got = std::fread(found.data(), 1, found.size(), file_);
  if (got == 0) {
    // Fresh log: stamp the magic.
    PERQ_REQUIRE(std::fwrite(magic_.data(), 1, magic_.size(), file_) ==
                     magic_.size(),
                 "cannot initialize event log " + path_);
    std::fflush(file_);
    return;
  }
  PERQ_REQUIRE(got == found.size() && found == magic_,
               path_ + " is not a " +
                   std::string(magic_.data(), magic_.size()) + " log");
  long valid_end = static_cast<long>(magic_.size());

  std::vector<std::uint8_t> payload;
  for (;;) {
    std::uint8_t header[kHeaderBytes];
    const std::size_t h = std::fread(header, 1, sizeof(header), file_);
    if (h != sizeof(header)) break;  // clean EOF or torn header
    const std::uint32_t len = read_le32(header);
    const std::uint32_t crc = read_le32(header + 4);
    if (len == 0 || len > kMaxPayload) break;  // corrupt length
    payload.resize(len);
    if (std::fread(payload.data(), 1, len, file_) != len) break;  // torn
    if (crc32(payload.data(), len) != crc) break;                 // corrupt
    if (replay) replay(payload.data(), len);
    ++replayed_count_;
    ++record_count_;
    valid_end += static_cast<long>(sizeof(header) + len);
  }

  // Truncate anything past the last intact record so the append position
  // is exactly the end of the valid prefix.
  std::fflush(file_);
  struct stat st{};
  PERQ_REQUIRE(::fstat(::fileno(file_), &st) == 0,
               "cannot stat event log " + path_);
  if (st.st_size != valid_end) {
    truncated_tail_ = true;
    PERQ_REQUIRE(::ftruncate(::fileno(file_), valid_end) == 0,
                 "cannot truncate torn tail of " + path_);
  }
  std::clearerr(file_);
  PERQ_REQUIRE(std::fseek(file_, 0, SEEK_END) == 0,
               "cannot seek event log " + path_);
}

void EventLog::append(const std::uint8_t* payload, std::size_t n) {
  PERQ_REQUIRE(opened_, "event log not open");
  PERQ_REQUIRE(n > 0 && n <= kMaxPayload, "event log record size out of range");
  ++record_count_;
  if (file_ == nullptr) return;  // in-memory mode
  write_record(file_, payload, n, path_);
}

void EventLog::rewrite(const std::uint8_t* payload, std::size_t n) {
  PERQ_REQUIRE(opened_, "event log not open");
  PERQ_REQUIRE(n > 0 && n <= kMaxPayload, "event log record size out of range");
  record_count_ = 1;
  if (file_ == nullptr) return;  // in-memory mode

  const std::string tmp = path_ + ".tmp";
  std::FILE* out = std::fopen(tmp.c_str(), "wb");
  PERQ_REQUIRE(out != nullptr,
               "cannot open event log " + tmp + ": " + std::strerror(errno));
  PERQ_REQUIRE(std::fwrite(magic_.data(), 1, magic_.size(), out) ==
                   magic_.size(),
               "cannot initialize event log " + tmp);
  write_record(out, payload, n, tmp);
  PERQ_REQUIRE(std::fflush(out) == 0, "event log flush failed: " + tmp);
  std::fclose(out);

  close_file();
  PERQ_REQUIRE(std::rename(tmp.c_str(), path_.c_str()) == 0,
               "event log rename failed: " + path_);
  file_ = std::fopen(path_.c_str(), "a+b");
  PERQ_REQUIRE(file_ != nullptr, "cannot reopen event log " + path_ + ": " +
                                     std::strerror(errno));
}

void EventLog::flush() {
  if (file_ != nullptr) {
    PERQ_REQUIRE(std::fflush(file_) == 0, "event log flush failed: " + path_);
  }
}

}  // namespace perq::acct
