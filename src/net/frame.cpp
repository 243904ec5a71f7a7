#include "net/frame.hpp"

#include <bit>
#include <cctype>
#include <cstring>

namespace scoris::net {
namespace {

void append_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

void append_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

}  // namespace

std::string tag_name(const FrameTag& tag) {
  std::string name;
  for (const char c : tag) {
    const auto u = static_cast<unsigned char>(c);
    if (std::isprint(u) != 0) {
      name.push_back(c);
    } else {
      static constexpr char kHex[] = "0123456789abcdef";
      name += "\\x";
      name.push_back(kHex[u >> 4]);
      name.push_back(kHex[u & 0xF]);
    }
  }
  return name;
}

void write_frame(Socket& sock, const FrameTag& tag,
                 std::span<const std::uint8_t> payload) {
  if (payload.size() > kMaxFramePayload) {
    throw NetError("frame payload too large to send (" +
                   std::to_string(payload.size()) + " bytes)");
  }
  // One contiguous buffer per frame: a single send_all keeps the header
  // and payload atomic with respect to concurrent writers of other
  // sockets and avoids Nagle-induced header/payload splits mattering.
  std::vector<std::uint8_t> wire;
  wire.reserve(8 + payload.size());
  wire.insert(wire.end(), tag.begin(), tag.end());
  append_u32(wire, static_cast<std::uint32_t>(payload.size()));
  wire.insert(wire.end(), payload.begin(), payload.end());
  sock.send_all(wire.data(), wire.size());
}

void write_frame(Socket& sock, const FrameTag& tag, std::string_view payload) {
  write_frame(sock,
              tag,
              std::span<const std::uint8_t>(
                  reinterpret_cast<const std::uint8_t*>(payload.data()),
                  payload.size()));
}

std::uint32_t parse_frame_header(
    const std::uint8_t (&header)[kFrameHeaderBytes], FrameTag& tag) {
  std::memcpy(tag.data(), header, 4);
  const std::uint32_t len = static_cast<std::uint32_t>(header[4]) |
                            static_cast<std::uint32_t>(header[5]) << 8 |
                            static_cast<std::uint32_t>(header[6]) << 16 |
                            static_cast<std::uint32_t>(header[7]) << 24;
  if (len > kMaxFramePayload) {
    throw NetError("frame '" + tag_name(tag) + "': payload length " +
                   std::to_string(len) + " exceeds the protocol limit");
  }
  return len;
}

bool read_frame(Socket& sock, Frame& frame) {
  std::uint8_t header[kFrameHeaderBytes];
  if (!sock.recv_exact(header, sizeof(header))) return false;
  const std::uint32_t len = parse_frame_header(header, frame.tag);
  frame.payload.resize(len);
  if (len > 0 && !sock.recv_exact(frame.payload.data(), len)) {
    // recv_exact already threw unless EOF hit exactly at the boundary —
    // which is still a truncated frame from the protocol's view.
    throw NetError("frame '" + tag_name(frame.tag) +
                   "': connection closed before the payload arrived");
  }
  return true;
}

void PayloadWriter::put_u32(std::uint32_t v) { append_u32(bytes_, v); }

void PayloadWriter::put_u64(std::uint64_t v) { append_u64(bytes_, v); }

void PayloadWriter::put_f64(double v) {
  append_u64(bytes_, std::bit_cast<std::uint64_t>(v));
}

void PayloadWriter::put_string(std::string_view s) {
  if (s.size() > kMaxFramePayload) {
    throw NetError("string too large for a frame payload");
  }
  append_u32(bytes_, static_cast<std::uint32_t>(s.size()));
  put_bytes(s);
}

void PayloadWriter::put_bytes(std::string_view s) {
  bytes_.insert(bytes_.end(),
                reinterpret_cast<const std::uint8_t*>(s.data()),
                reinterpret_cast<const std::uint8_t*>(s.data()) + s.size());
}

void PayloadReader::require(std::size_t n) const {
  if (cursor_ + n > payload_.size()) {
    throw NetError(what_ + ": truncated frame payload (need " +
                   std::to_string(n) + " bytes at offset " +
                   std::to_string(cursor_) + " of " +
                   std::to_string(payload_.size()) + ")");
  }
}

std::uint8_t PayloadReader::get_u8() {
  require(1);
  return payload_[cursor_++];
}

std::uint32_t PayloadReader::get_u32() {
  require(4);
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = v << 8 | payload_[cursor_ + static_cast<std::size_t>(i)];
  }
  cursor_ += 4;
  return v;
}

std::uint64_t PayloadReader::get_u64() {
  require(8);
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = v << 8 | payload_[cursor_ + static_cast<std::size_t>(i)];
  }
  cursor_ += 8;
  return v;
}

double PayloadReader::get_f64() { return std::bit_cast<double>(get_u64()); }

std::string PayloadReader::get_string() {
  const std::uint32_t len = get_u32();
  require(len);
  std::string s(reinterpret_cast<const char*>(payload_.data()) + cursor_,
                len);
  cursor_ += len;
  return s;
}

std::string_view PayloadReader::rest() const {
  return std::string_view(
      reinterpret_cast<const char*>(payload_.data()) + cursor_,
      payload_.size() - cursor_);
}

}  // namespace scoris::net
