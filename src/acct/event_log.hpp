// Durable append-only record log: the storage engine under the accounting
// store (the slurmdbd side of the house) and under the controller's
// replication WAL.
//
// File layout:
//
//   8-byte magic, chosen by the caller             "PQACCT01", "PQREPL01"
//   [u32 len][u32 crc32(payload)][payload] ...    records, little-endian
//
// The magic names the log a file belongs to, so neither caller ever opens
// the other's file and replays its records as garbage.
//
// Appends are buffered stdio writes; flush() hands them to the kernel, after
// which a reopening reader sees them and they survive a crash of the writing
// process (kill -9). Power loss would need fsync, which the log never calls.
// Recovery is replay-on-open: open() scans the file, hands every intact
// payload to the caller's replay callback, and truncates the first torn or
// corrupt record and everything after it (a crash can only lose the suffix
// that was mid-write -- every prefix the scan accepts is exactly what a
// pre-crash reader saw). rewrite() atomically replaces every record with
// one (temp file + rename), which is how a caller bounds replay. An empty
// path runs the log in-memory only: appends are counted but nothing is
// stored.
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>

namespace perq::acct {

/// CRC-32 (IEEE 802.3, reflected) of a byte span.
std::uint32_t crc32(const std::uint8_t* data, std::size_t n);

class EventLog {
 public:
  using Magic = std::array<char, 8>;
  using ReplayFn = std::function<void(const std::uint8_t* payload,
                                      std::size_t size)>;

  /// Payloads above this are rejected on append and treated as corruption
  /// on replay. Equal to proto::kMaxFrameBytes: a WAL record is one frame,
  /// and no accounting record comes close.
  static constexpr std::uint32_t kMaxPayload = 1u << 20;

  EventLog() = default;
  ~EventLog();
  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  /// Opens (creating if absent, stamped with `magic`) the log at `path`,
  /// replays every intact record into `replay`, and truncates any torn
  /// tail. A file with another magic throws perq::precondition_error and is
  /// left untouched. Empty `path` = in-memory mode: nothing persisted,
  /// replay never called.
  void open(const std::string& path, const Magic& magic,
            const ReplayFn& replay = nullptr);

  /// Appends one record (open() first). Buffered; flush() to publish.
  void append(const std::uint8_t* payload, std::size_t n);

  /// Atomically replaces every record with this one (temp file + rename);
  /// appends continue after it.
  void rewrite(const std::uint8_t* payload, std::size_t n);

  void flush();

  bool persistent() const { return file_ != nullptr; }
  const std::string& path() const { return path_; }
  /// Records in the log: replayed on open + appended since (a rewrite
  /// leaves one).
  std::uint64_t record_count() const { return record_count_; }
  /// Records recovered by the open() scan (diagnostics).
  std::uint64_t replayed_count() const { return replayed_count_; }
  /// True when open() found and cut a torn tail.
  bool truncated_tail() const { return truncated_tail_; }

 private:
  void close_file();

  std::string path_;
  Magic magic_{};
  std::FILE* file_ = nullptr;
  bool opened_ = false;
  std::uint64_t record_count_ = 0;
  std::uint64_t replayed_count_ = 0;
  bool truncated_tail_ = false;
};

}  // namespace perq::acct
