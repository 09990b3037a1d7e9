#pragma once
// Length-prefixed framing for the sweep service's wire protocol.
//
// Every frame is a 4-byte big-endian payload length followed by the payload
// bytes. Payloads are single flat JSON objects (util/json_mini.h) — control
// messages carry a "type" key, and result frames are verbatim
// run/report.h checkpoint records (`{"v": 2, ...}`): the existing
// JSON-lines checkpoint format IS the wire format, so whatever survives the
// socket also survives a crash on disk, parsed by the same code.
//
// TCP delivers a byte stream, not frames; FrameReader reassembles frames
// from arbitrary read() chunk boundaries. A length prefix beyond
// kMaxFrameBytes means the peer is not speaking this protocol (or the
// stream is corrupt) — that throws instead of allocating gigabytes.
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace bdg::net {

/// Upper bound on one payload. Checkpoint records are < 1 KiB; leases list
/// at most a few thousand indices. Anything past this is garbage.
constexpr std::size_t kMaxFrameBytes = 1u << 22;  // 4 MiB

/// Wrap a payload in its 4-byte big-endian length prefix.
[[nodiscard]] std::string encode_frame(std::string_view payload);

/// Append encode_frame(payload) to `out` (one buffer for many frames).
void append_frame(std::string& out, std::string_view payload);

/// Incremental decoder: feed() raw socket bytes in any chunking, next()
/// pops complete payloads in order.
class FrameReader {
 public:
  /// Append raw bytes read from the transport.
  void feed(const char* data, std::size_t len);

  /// Pop the next complete frame payload; nullopt while incomplete.
  /// Throws std::runtime_error on a length prefix > kMaxFrameBytes.
  [[nodiscard]] std::optional<std::string> next();

  /// Bytes buffered but not yet returned (diagnostics/tests).
  [[nodiscard]] std::size_t buffered() const { return buf_.size() - off_; }

 private:
  std::string buf_;
  std::size_t off_ = 0;  ///< consumed prefix, compacted lazily
};

}  // namespace bdg::net
