//===- svc/Protocol.h - cmmexd wire protocol --------------------*- C++ -*-===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The binary request/response protocol of the cmmexd execution service
/// (docs/SERVICE.md). Everything travels in self-delimiting frames over a
/// byte stream (Unix or TCP socket), encoded with the same little-endian
/// primitives as the artifact container (support/ByteIO.h) and checksummed
/// the same way (engine/ArtifactStore.cpp):
///
///   "cmmx"    4-byte magic
///   u32       protocol version (ProtocolVersion)
///   u8        frame type (MsgType)
///   u64       payload length in bytes
///   payload   type-specific fields, little-endian
///   u64       FNV-1a 64 checksum of the payload bytes
///
/// The read side is strict and loud: a bad magic, stale version, oversized
/// length prefix, truncated payload, or checksum mismatch is a protocol
/// violation — the server answers with one Error frame (when it still
/// trusts the stream enough to write) and closes the connection; it never
/// guesses at resynchronization. tests/ServiceTest.cpp pins each rejection.
///
/// Requests are multiplexed: every request payload begins with a
/// client-chosen u64 request id, echoed in the response, so a client may
/// pipeline any number of requests on one connection and the server may
/// answer out of order.
///
//===----------------------------------------------------------------------===//

#ifndef CMM_SVC_PROTOCOL_H
#define CMM_SVC_PROTOCOL_H

#include "engine/Engine.h"
#include "sem/Executor.h"
#include "support/ByteIO.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace cmm::svc {

inline constexpr char FrameMagic[4] = {'c', 'm', 'm', 'x'};
inline constexpr uint32_t ProtocolVersion = 1;
/// Frame header bytes before the payload: magic + version + type + length.
inline constexpr size_t FrameHeaderSize = 4 + 4 + 1 + 8;
/// Trailing checksum bytes.
inline constexpr size_t FrameTrailerSize = 8;
/// Hard ceiling a frame receiver enforces before allocating anything; a
/// length prefix above the configured limit (ServerOptions::MaxFramePayload
/// <= this) is refused without reading the payload.
inline constexpr uint64_t AbsoluteMaxFramePayload = uint64_t(1) << 30;

/// FNV-1a 64 over \p Size bytes — the frame checksum (identical constants
/// to the artifact container's).
uint64_t fnv64(const uint8_t *Data, size_t Size);

/// Frame types. Requests are < 128, responses >= 128.
enum class MsgType : uint8_t {
  // Requests.
  ReqPing = 1,
  ReqCompile = 2,  ///< intern a program in the artifact cache
  ReqRun = 3,      ///< run a job (optionally parking a session at a yield)
  ReqResume = 4,   ///< continue a parked session (one Table 1 operation)
  ReqStats = 5,    ///< live MetricsRegistry snapshot
  ReqClose = 6,    ///< discard a parked session
  ReqShutdown = 7, ///< drain in-flight jobs, ack, stop accepting
  // Responses.
  RespPong = 128,
  RespCompiled = 129,
  RespResult = 130, ///< answer to ReqRun / ReqResume
  RespStats = 131,
  RespClosed = 132,
  RespShutdown = 133,
  RespError = 134,
};

/// Error codes carried by RespError.
enum class ErrCode : uint8_t {
  BadFrame = 1,      ///< malformed frame: magic/length/checksum/payload
  BadVersion = 2,    ///< stale or future protocol version
  BadRequest = 3,    ///< well-formed frame, invalid request semantics
  QuotaExceeded = 4, ///< per-tenant quota refused the request
  NoSuchSession = 5, ///< unknown or already-closed session id
  SessionBusy = 6,   ///< session is being driven by another request
  ShuttingDown = 7,  ///< server is draining; no new work accepted
  Internal = 8,
  SessionExpired = 9, ///< the TTL reaper discarded the idle session
};

std::string_view errCodeName(ErrCode C);

/// How a ReqResume continues a parked session (JobSession's operations).
enum class ResumeOp : uint8_t {
  Return = 0,    ///< rtResume: bundle return \p Index
  Unwind = 1,    ///< rtResume: `also unwinds to` \p Index
  Cut = 2,       ///< rtResume: cut to \p ContValue
  UnwindTop = 3, ///< rtUnwindTop(Index) — stack walk, stays suspended
  Dispatch = 4,  ///< service the yield with the server-side dispatcher
  Continue = 5,  ///< no resume: more budget for a Running session
};

//===----------------------------------------------------------------------===//
// Payload structs
//===----------------------------------------------------------------------===//

/// ReqCompile payload.
struct CompileRequestMsg {
  uint64_t ReqId = 0;
  std::string Tenant;
  std::vector<std::string> Sources;
  bool Optimize = false;
};

/// ReqRun payload. Budgets of 0 (or ~0 fuel) mean "tenant quota default".
struct RunRequestMsg {
  uint64_t ReqId = 0;
  std::string Tenant;
  std::vector<std::string> Sources;
  bool Optimize = false;
  uint8_t Backend = 0; ///< engine::Backend
  std::string Entry = "main";
  std::vector<Value> Args;
  uint8_t Dispatcher = 0; ///< engine::DispatcherKind (server-side)
  uint64_t MaxSteps = ~uint64_t(0);
  double DeadlineMillis = 0;
  uint64_t MaxMemoryBytes = 0;
  /// Park the executor in a session when the job suspends un-serviced
  /// (resume-over-the-wire); without it a suspension is a final status.
  bool Park = false;
  /// Return the per-job profile JSON in the response (non-parked runs).
  bool WantProfile = false;
};

/// ReqResume payload.
struct ResumeRequestMsg {
  uint64_t ReqId = 0;
  std::string Tenant;
  uint64_t SessionId = 0;
  ResumeOp Op = ResumeOp::Return;
  uint32_t Index = 0;
  Value ContValue;           ///< for Op == Cut
  std::vector<Value> Params; ///< rtResume parameters
  uint8_t Dispatcher = 0;    ///< for Op == Dispatch (engine::DispatcherKind)
  uint64_t MaxSteps = ~uint64_t(0);
  double DeadlineMillis = 0;
  uint64_t MaxMemoryBytes = 0;
  /// Discard the session in the same round trip when this segment leaves
  /// it suspended/running (client gives up after this much progress).
  bool CloseAfter = false;
};

/// RespResult payload: everything one run/resume segment produced — the
/// wire rendering of engine::JobResult plus the session handle.
struct ResultMsg {
  uint64_t ReqId = 0;
  uint64_t JobId = 0;
  uint8_t Status = 0; ///< MachineStatus
  std::string CompileError;
  std::vector<Value> Results; ///< returned values / pending yield request
  std::string WrongReason;
  bool TimedOut = false;
  bool MemExceeded = false;
  bool CacheHit = false;
  /// Non-zero when the job is parked: pass to ReqResume. A zero session
  /// with Status == Suspended means the yield was final (no Park, or the
  /// dispatch was unhandled and the session closed).
  uint64_t SessionId = 0;
  /// False when a Dispatch resume found no handler for the pending yield.
  bool DispatchHandled = true;
  uint64_t ResumeCycles = 0;
  Stats MachineStats; ///< cumulative over the whole job
  double CompileMillis = 0;
  double RunMillis = 0;
  std::string ProfileJson;
};

/// RespCompiled payload.
struct CompiledMsg {
  uint64_t ReqId = 0;
  std::string Key; ///< cache key, 32-hex spelling
  bool Ok = false;
  std::string Error;
  bool CacheHit = false;
};

/// RespError payload.
struct ErrorMsg {
  uint64_t ReqId = 0; ///< 0 when the request id was unrecoverable
  ErrCode Code = ErrCode::Internal;
  std::string Message;
};

//===----------------------------------------------------------------------===//
// Encoding / decoding
//===----------------------------------------------------------------------===//

/// Appends one complete frame (header + payload + checksum) to \p Out.
void encodeFrame(MsgType T, const ByteWriter &Payload,
                 std::vector<uint8_t> &Out);

/// Result of decodeFrameHeader over the first FrameHeaderSize bytes.
struct FrameHeader {
  MsgType Type = MsgType::RespError;
  uint64_t PayloadLen = 0;
};

/// Why a frame was refused (mapped to ErrCode by the server).
enum class FrameError : uint8_t {
  None = 0,
  BadMagic,
  BadVersion,
  Oversized, ///< length prefix exceeds \p MaxPayload
  BadType,
};

/// Validates a frame header. \p MaxPayload caps the length prefix.
FrameError decodeFrameHeader(const uint8_t Header[FrameHeaderSize],
                             uint64_t MaxPayload, FrameHeader &Out);

/// True when the trailing checksum matches the payload bytes.
bool verifyFrameChecksum(const uint8_t *Payload, size_t Len, uint64_t Sum);

// Value encoding: u8 kind, u8 width, u64 raw, f64 payload.
void encodeValue(ByteWriter &W, const Value &V);
Value decodeValue(ByteReader &R);
void encodeValues(ByteWriter &W, const std::vector<Value> &Vs);
std::vector<Value> decodeValues(ByteReader &R);

// Machine statistics travel as their 13 counters, in declaration order.
void encodeStats(ByteWriter &W, const Stats &S);
Stats decodeStats(ByteReader &R);

// Payload encoders/decoders. Decoders return false when the payload is
// malformed (reader tripped or trailing bytes remain).
void encodeCompileRequest(ByteWriter &W, const CompileRequestMsg &M);
bool decodeCompileRequest(ByteReader &R, CompileRequestMsg &M);
void encodeRunRequest(ByteWriter &W, const RunRequestMsg &M);
bool decodeRunRequest(ByteReader &R, RunRequestMsg &M);
void encodeResumeRequest(ByteWriter &W, const ResumeRequestMsg &M);
bool decodeResumeRequest(ByteReader &R, ResumeRequestMsg &M);
void encodeResult(ByteWriter &W, const ResultMsg &M);
bool decodeResult(ByteReader &R, ResultMsg &M);
void encodeCompiled(ByteWriter &W, const CompiledMsg &M);
bool decodeCompiled(ByteReader &R, CompiledMsg &M);
void encodeError(ByteWriter &W, const ErrorMsg &M);
bool decodeError(ByteReader &R, ErrorMsg &M);

} // namespace cmm::svc

#endif // CMM_SVC_PROTOCOL_H
