// Controller snapshot codec.
//
// Serializes a ControllerState with the same little-endian wire primitives
// as the protocol (doubles as raw IEEE bits), so a state round-trips
// bit-for-bit -- the restart-determinism guarantee rests on this. The bytes
// travel in ReplSnapshot frames: to a warm standby, and into the
// replication WAL, where one snapshot record bounds replay. The encoding
// carries its own magic + version, independent of the network protocol
// version.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "daemon/controller.hpp"

namespace perq::daemon {

/// Serializes a controller state to bytes (header included).
std::vector<std::uint8_t> encode_snapshot(const ControllerState& s);

/// Parses bytes produced by encode_snapshot; nullopt on any malformation.
/// When `why` is non-null it receives a one-line reason on failure (bad
/// magic, unsupported version, crc mismatch, truncated section), so the
/// operator can tell a torn write from the wrong file.
std::optional<ControllerState> decode_snapshot(const std::uint8_t* data,
                                               std::size_t size,
                                               std::string* why = nullptr);

}  // namespace perq::daemon
