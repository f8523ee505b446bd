// MXRPC1 — the muxlinkd wire protocol (normative spec: DESIGN.md §13).
//
// Every message travels as one length-prefixed binary frame with the same
// hardening discipline as the model-v2 and MXZOO1 file formats: magic +
// version + CRC-32 trailer, strict reads, explicit size ceilings, and
// payload parsers that reject trailing bytes.
//
// Frame layout (all multi-byte integers little-endian):
//
//   offset  size  field
//   0       6     magic "MXRPC1"
//   6       1     version (0x01)
//   7       1     message type (MsgType)
//   8       4     payload length N (u32)
//   12      N     payload (UTF-8 JSON document, possibly empty)
//   12+N    4     CRC-32 (IEEE 802.3, reflected) over bytes [0, 12+N)
//
// A conforming receiver verifies, in order: magic, version, N against its
// frame ceiling, then (after reading exactly N+4 more bytes) the CRC.
// Any violation is a ProtocolError; on a stream it poisons the connection
// (framing is lost), so both sides close after best-effort error replies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "common/json.h"

namespace muxlink::daemon {

// Malformed frames and broken framing invariants (bad magic, unsupported
// version byte, oversize declaration, CRC mismatch, truncation, trailing
// bytes after a payload document). CLI exit code 6.
class ProtocolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline constexpr char kMagic[6] = {'M', 'X', 'R', 'P', 'C', '1'};
inline constexpr std::uint8_t kProtocolVersion = 1;
inline constexpr std::size_t kHeaderBytes = 12;   // magic + version + type + length
inline constexpr std::size_t kTrailerBytes = 4;   // CRC-32
inline constexpr std::size_t kMinFrameBytes = kHeaderBytes + kTrailerBytes;
// Default payload ceiling: BENCH text for the largest suite circuits is
// well under a megabyte; 64 MiB leaves room for scaled netlists while
// keeping a hostile 4 GiB length declaration unmappable.
inline constexpr std::size_t kDefaultMaxFrameBytes = 64u << 20;

// Message types. Requests are client->server; each has exactly one success
// reply type (request | 0x01); ERROR may answer any request.
enum class MsgType : std::uint8_t {
  kHello = 0x01,       // {"versions":[1]}
  kHelloOk = 0x02,     // {"version":1,"server":"muxlinkd"}
  kSubmit = 0x10,      // AttackJobSpec::to_json()
  kSubmitOk = 0x11,    // {"job_id":"j1"}
  kStatus = 0x12,      // {"job_id":"j1"}
  kStatusOk = 0x13,    // {"job_id","state",...}
  kResult = 0x14,      // {"job_id":"j1"}
  kResultOk = 0x15,    // {"job_id","state","manifest"?,"key"?,"error"?}
  kCancel = 0x16,      // {"job_id":"j1"}
  kCancelOk = 0x17,    // {"job_id","state"}
  kStats = 0x18,       // {}
  kStatsOk = 0x19,     // daemon.* counters/gauges snapshot
  kShutdown = 0x1a,    // {} — request a graceful drain
  kShutdownOk = 0x1b,  // {"draining":true}
  kWaitResult = 0x1c,  // {"job_id":"j1","timeout_ms":N} — long-poll RESULT
  kWaitResultOk = 0x1d,  // same shape as kResultOk (state may be non-terminal)
  kError = 0x7f,       // {"code":<ErrorCode>,"message":"..."}
};

// True for the types above; decode_frame rejects everything else.
bool is_known_type(std::uint8_t type) noexcept;
const char* type_name(MsgType t) noexcept;

// Application-level error codes carried by kError payloads. These travel in
// a well-formed frame — unlike ProtocolError they do NOT poison the
// connection (except kUnsupportedVersion, after which the server closes).
enum class ErrorCode : int {
  kBadRequest = 1,          // malformed payload, unknown type, missing HELLO
  kUnknownJob = 2,          // job id not in the daemon's table
  kUnsupportedVersion = 3,  // HELLO offered no version the server speaks
  kDraining = 4,            // submit refused: daemon is shutting down
  kQueueFull = 5,           // submit refused: bounded queue at capacity
  kInternal = 6,            // unexpected server-side failure
};

struct Frame {
  MsgType type = MsgType::kError;
  std::string payload;  // UTF-8 JSON text ("" = empty document)
};

// Encodes one complete frame (header + payload + CRC trailer).
std::string encode_frame(MsgType type, std::string_view payload);

// Decodes the frame at the head of `buf`.
//   * Returns std::nullopt when `buf` is a PREFIX of a valid frame (more
//     bytes needed); *need is set to the total frame size once the header
//     is complete, else to kHeaderBytes.
//   * Returns the frame and sets *need to its total size on success.
//   * Throws ProtocolError on bad magic, unsupported version, unknown type,
//     a payload length above `max_frame_bytes`, or CRC mismatch.
std::optional<Frame> decode_frame(std::string_view buf, std::size_t* need,
                                  std::size_t max_frame_bytes = kDefaultMaxFrameBytes);

// Parses a frame payload as one JSON document. "" parses as an empty
// object; anything else must be exactly one object — JsonError or trailing
// bytes become ProtocolError.
common::Json parse_payload(const Frame& frame);

// Builds a kError payload.
std::string error_payload(ErrorCode code, const std::string& message);

// --- blocking fd-level IO (unix/tcp stream sockets) ------------------------

// Writes the whole frame to `fd`; throws ProtocolError on short writes or
// socket errors.
void write_frame(int fd, MsgType type, std::string_view payload);

// Reads exactly one frame. Strict-read discipline: EOF at a frame boundary
// returns std::nullopt (orderly close); EOF or an idle period longer than
// `timeout_ms` anywhere INSIDE a frame is a truncation and throws
// ProtocolError. timeout_ms <= 0 blocks indefinitely.
std::optional<Frame> read_frame(int fd, std::size_t max_frame_bytes = kDefaultMaxFrameBytes,
                                int timeout_ms = -1);

}  // namespace muxlink::daemon
