#include "targets.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <exception>
#include <span>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <string_view>

#include "core/exec/run_merge.hpp"
#include "dist/protocol.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "seqio/fasta.hpp"
#include "store/index_store.hpp"

namespace scoris::fuzztargets {

namespace {

/// Read-only memory streambuf that is deliberately NON-seekable
/// (inherits basic_streambuf's failing seekoff/seekpos): tellg() on the
/// wrapping istream reports -1, which drives parsers down the same
/// code path a socket-backed stream takes.  This is the path where the
/// SectionReader length-bomb lived — a seekable istringstream can
/// bound an untrusted length against the stream end, a socket cannot.
class MemoryStream : public std::streambuf {
 public:
  MemoryStream(const std::uint8_t* data, std::size_t size) {
    auto* p = const_cast<char*>(reinterpret_cast<const char*>(data));
    setg(p, p, p + size);
  }
};

/// Exercise PayloadReader getters in a data-driven order: the first
/// payload byte schedules which getters run, so the fuzzer controls
/// coverage of the bounds checks rather than one fixed getter sequence.
void exercise_payload(const net::Frame& frame) {
  net::PayloadReader reader(frame.payload, "fuzz");
  std::uint8_t plan = frame.payload.empty() ? 0 : frame.payload[0];
  try {
    for (int step = 0; step < 8; ++step, plan >>= 1) {
      switch (plan & 7u) {
        case 0: (void)reader.get_u8(); break;
        case 1: (void)reader.get_u32(); break;
        case 2: (void)reader.get_u64(); break;
        case 3: (void)reader.get_f64(); break;
        case 4: (void)reader.get_string(); break;
        case 5: (void)reader.rest(); break;
        default: (void)reader.remaining(); break;
      }
    }
  } catch (const net::NetError&) {
    // Truncation diagnostics are the expected outcome for short
    // payloads; the getters must never read past the span instead.
  }
}

}  // namespace

int frame(const std::uint8_t* data, std::size_t size) {
  // Cap below the kernel's socketpair buffer so the single write below
  // cannot block (there is no reader draining yet).
  constexpr std::size_t kMaxInput = std::size_t{64} << 10;
  if (size > kMaxInput) size = kMaxInput;

  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) return 0;
  {
    std::size_t written = 0;
    while (written < size) {
      const ssize_t n = ::write(fds[1], data + written, size - written);
      if (n <= 0) break;
      written += static_cast<std::size_t>(n);
    }
  }
  // Close the write end so read_frame sees EOF instead of blocking on a
  // frame whose length prefix promises more bytes than were sent.
  ::close(fds[1]);

  net::Socket sock(fds[0]);
  net::Frame f;
  try {
    while (net::read_frame(sock, f)) {
      exercise_payload(f);
    }
  } catch (const net::NetError&) {
    // Truncated / oversized-length frames must throw NetError; any
    // other escape (logic_error, bad_alloc) is a real finding.
  }
  return 0;
}

int dist_options(const std::uint8_t* data, std::size_t size) {
  // First byte selects the codec under test; the rest is the payload.
  if (size == 0) return 0;
  const std::uint8_t which = data[0];
  const std::span<const std::uint8_t> payload(data + 1, size - 1);
  try {
    net::PayloadReader reader(payload, "fuzz");
    switch (which % 3u) {
      case 0: (void)dist::read_options(reader); break;
      case 1: (void)dist::read_group(reader); break;
      default: (void)dist::read_group_end(reader); break;
    }
  } catch (const net::NetError&) {
    // Truncated blobs and future option-blob versions both surface as
    // NetError by contract (dist/protocol.hpp).
  }
  return 0;
}

int scix(const std::uint8_t* data, std::size_t size) {
  const std::string bytes(reinterpret_cast<const char*>(data), size);
  std::istringstream is(bytes, std::ios::binary);
  try {
    const store::IndexStore loaded = store::load_index(is, "fuzz scix");
    // A loaded index must be safe to walk: every occurrence slice stays
    // inside its positions and names a word inside the bank.
    for (std::size_t i = 0; i < loaded.size(); ++i) {
      const index::BankIndex& idx = loaded.index(i);
      const auto w = static_cast<std::size_t>(idx.coder().w());
      for (index::SeedCode c = 0; c < idx.coder().num_seeds(); ++c) {
        for (const std::int32_t p : idx.occurrences_span(c)) {
          if (p < 0 ||
              static_cast<std::size_t>(p) + w > loaded.bank().data_size()) {
            std::abort();
          }
        }
      }
    }
  } catch (const std::runtime_error&) {
    // Bad magic, future version, truncation, checksum mismatch — all
    // documented load_index outcomes.
  }
  return 0;
}

int spill_run(const std::uint8_t* data, std::size_t size) {
  const std::string bytes(reinterpret_cast<const char*>(data), size);
  // Seekable pass: the reader may pre-validate section lengths against
  // the stream end.
  try {
    std::istringstream is(bytes, std::ios::binary);
    core::exec::SpillRunReader reader(is, "fuzz spill");
    while (!reader.next_block(is).empty()) {
    }
  } catch (const std::runtime_error&) {
  }
  // Non-seekable pass: same bytes through a stream that cannot tell its
  // end, like a socket-backed RunFrameReader — length fields must be
  // consumed incrementally, never pre-allocated.
  try {
    MemoryStream buf(data, size);
    std::istream is(&buf);
    core::exec::SpillRunReader reader(is, "fuzz spill wire");
    while (!reader.next_block(is).empty()) {
    }
  } catch (const std::runtime_error&) {
  }
  return 0;
}

int fasta(const std::uint8_t* data, std::size_t size) {
  const std::string_view text(reinterpret_cast<const char*>(data), size);
  try {
    (void)seqio::read_fasta_string(text, "fuzz-bank");
  } catch (const std::runtime_error&) {
    // Malformed FASTA throws; anything else escapes.
  }
  return 0;
}

}  // namespace scoris::fuzztargets
