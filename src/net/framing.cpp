#include "net/framing.h"

#include <stdexcept>

namespace bdg::net {

std::string encode_frame(std::string_view payload) {
  std::string out;
  out.reserve(4 + payload.size());
  append_frame(out, payload);
  return out;
}

void append_frame(std::string& out, std::string_view payload) {
  if (payload.size() > kMaxFrameBytes)
    throw std::runtime_error("encode_frame: payload exceeds kMaxFrameBytes");
  const std::uint32_t n = static_cast<std::uint32_t>(payload.size());
  out.push_back(static_cast<char>((n >> 24) & 0xFF));
  out.push_back(static_cast<char>((n >> 16) & 0xFF));
  out.push_back(static_cast<char>((n >> 8) & 0xFF));
  out.push_back(static_cast<char>(n & 0xFF));
  out.append(payload.data(), payload.size());
}

void FrameReader::feed(const char* data, std::size_t len) {
  // Compact once the consumed prefix dominates, so long sessions do not
  // grow the buffer without bound.
  if (off_ > 4096 && off_ * 2 > buf_.size()) {
    buf_.erase(0, off_);
    off_ = 0;
  }
  buf_.append(data, len);
}

std::optional<std::string> FrameReader::next() {
  if (buf_.size() - off_ < 4) return std::nullopt;
  const unsigned char* p =
      reinterpret_cast<const unsigned char*>(buf_.data() + off_);
  const std::uint32_t n = (static_cast<std::uint32_t>(p[0]) << 24) |
                          (static_cast<std::uint32_t>(p[1]) << 16) |
                          (static_cast<std::uint32_t>(p[2]) << 8) |
                          static_cast<std::uint32_t>(p[3]);
  if (n > kMaxFrameBytes)
    throw std::runtime_error(
        "FrameReader: frame length exceeds kMaxFrameBytes (corrupt stream "
        "or foreign protocol)");
  if (buf_.size() - off_ - 4 < n) return std::nullopt;
  std::string payload = buf_.substr(off_ + 4, n);
  off_ += 4 + n;
  return payload;
}

}  // namespace bdg::net
