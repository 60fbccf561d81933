//===- svc/Protocol.cpp ---------------------------------------------------===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//

#include "svc/Protocol.h"

#include <cstring>

using namespace cmm;
using namespace cmm::svc;

uint64_t cmm::svc::fnv64(const uint8_t *Data, size_t Size) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (size_t I = 0; I < Size; ++I) {
    H ^= Data[I];
    H *= 0x100000001b3ull;
  }
  return H;
}

std::string_view cmm::svc::errCodeName(ErrCode C) {
  switch (C) {
  case ErrCode::BadFrame:
    return "bad-frame";
  case ErrCode::BadVersion:
    return "bad-version";
  case ErrCode::BadRequest:
    return "bad-request";
  case ErrCode::QuotaExceeded:
    return "quota-exceeded";
  case ErrCode::NoSuchSession:
    return "no-such-session";
  case ErrCode::SessionBusy:
    return "session-busy";
  case ErrCode::ShuttingDown:
    return "shutting-down";
  case ErrCode::SessionExpired:
    return "session-expired";
  case ErrCode::Internal:
    break;
  }
  return "internal";
}

//===----------------------------------------------------------------------===//
// Frames
//===----------------------------------------------------------------------===//

void cmm::svc::encodeFrame(MsgType T, const ByteWriter &Payload,
                           std::vector<uint8_t> &Out) {
  ByteWriter H;
  H.bytes(FrameMagic, sizeof FrameMagic);
  H.u32(ProtocolVersion);
  H.u8(uint8_t(T));
  H.u64(Payload.size());
  const std::vector<uint8_t> &HB = H.buffer();
  Out.insert(Out.end(), HB.begin(), HB.end());
  const std::vector<uint8_t> &PB = Payload.buffer();
  Out.insert(Out.end(), PB.begin(), PB.end());
  ByteWriter Tail;
  Tail.u64(fnv64(PB.data(), PB.size()));
  const std::vector<uint8_t> &TB = Tail.buffer();
  Out.insert(Out.end(), TB.begin(), TB.end());
}

FrameError cmm::svc::decodeFrameHeader(const uint8_t Header[FrameHeaderSize],
                                       uint64_t MaxPayload, FrameHeader &Out) {
  if (std::memcmp(Header, FrameMagic, sizeof FrameMagic) != 0)
    return FrameError::BadMagic;
  ByteReader R(Header + 4, FrameHeaderSize - 4);
  uint32_t Version = R.u32();
  uint8_t Type = R.u8();
  uint64_t Len = R.u64();
  if (Version != ProtocolVersion)
    return FrameError::BadVersion;
  if (Len > MaxPayload || Len > AbsoluteMaxFramePayload)
    return FrameError::Oversized;
  bool Req = Type >= uint8_t(MsgType::ReqPing) &&
             Type <= uint8_t(MsgType::ReqShutdown);
  bool Resp = Type >= uint8_t(MsgType::RespPong) &&
              Type <= uint8_t(MsgType::RespError);
  if (!Req && !Resp)
    return FrameError::BadType;
  Out.Type = MsgType(Type);
  Out.PayloadLen = Len;
  return FrameError::None;
}

bool cmm::svc::verifyFrameChecksum(const uint8_t *Payload, size_t Len,
                                   uint64_t Sum) {
  return fnv64(Payload, Len) == Sum;
}

//===----------------------------------------------------------------------===//
// Values and statistics
//===----------------------------------------------------------------------===//

void cmm::svc::encodeValue(ByteWriter &W, const Value &V) {
  W.u8(uint8_t(V.K));
  W.u8(V.Width);
  W.u64(V.Raw);
  W.f64(V.F);
}

Value cmm::svc::decodeValue(ByteReader &R) {
  Value V;
  uint8_t K = R.u8();
  if (K > uint8_t(Value::Kind::Cont)) {
    R.fail();
    return V;
  }
  V.K = Value::Kind(K);
  V.Width = R.u8();
  V.Raw = R.u64();
  V.F = R.f64();
  return V;
}

void cmm::svc::encodeValues(ByteWriter &W, const std::vector<Value> &Vs) {
  W.u64(Vs.size());
  for (const Value &V : Vs)
    encodeValue(W, V);
}

std::vector<Value> cmm::svc::decodeValues(ByteReader &R) {
  size_t N = R.count(2 + 8 + 8);
  std::vector<Value> Vs;
  Vs.reserve(N);
  for (size_t I = 0; I < N && R.ok(); ++I)
    Vs.push_back(decodeValue(R));
  return Vs;
}

void cmm::svc::encodeStats(ByteWriter &W, const Stats &S) {
  W.u64(S.Steps);
  W.u64(S.Calls);
  W.u64(S.Jumps);
  W.u64(S.Returns);
  W.u64(S.Cuts);
  W.u64(S.FramesCutOver);
  W.u64(S.Yields);
  W.u64(S.UnwindPops);
  W.u64(S.ContsBound);
  W.u64(S.Loads);
  W.u64(S.Stores);
  W.u64(S.CalleeSaveMoves);
  W.u64(S.MaxStackDepth);
}

Stats cmm::svc::decodeStats(ByteReader &R) {
  Stats S;
  S.Steps = R.u64();
  S.Calls = R.u64();
  S.Jumps = R.u64();
  S.Returns = R.u64();
  S.Cuts = R.u64();
  S.FramesCutOver = R.u64();
  S.Yields = R.u64();
  S.UnwindPops = R.u64();
  S.ContsBound = R.u64();
  S.Loads = R.u64();
  S.Stores = R.u64();
  S.CalleeSaveMoves = R.u64();
  S.MaxStackDepth = R.u64();
  return S;
}

//===----------------------------------------------------------------------===//
// Payloads
//===----------------------------------------------------------------------===//

namespace {

void encodeSources(ByteWriter &W, const std::vector<std::string> &Sources) {
  W.u64(Sources.size());
  for (const std::string &S : Sources)
    W.str(S);
}

bool decodeSources(ByteReader &R, std::vector<std::string> &Sources) {
  size_t N = R.count(8);
  Sources.clear();
  Sources.reserve(N);
  for (size_t I = 0; I < N && R.ok(); ++I)
    Sources.push_back(R.str());
  return R.ok();
}

/// Decoders accept exactly the payload: trailing bytes are a violation
/// (they would mean the two sides disagree about the encoding).
bool finish(ByteReader &R) { return R.ok() && R.remaining() == 0; }

} // namespace

void cmm::svc::encodeCompileRequest(ByteWriter &W,
                                    const CompileRequestMsg &M) {
  W.u64(M.ReqId);
  W.str(M.Tenant);
  encodeSources(W, M.Sources);
  W.u8(M.Optimize);
}

bool cmm::svc::decodeCompileRequest(ByteReader &R, CompileRequestMsg &M) {
  M.ReqId = R.u64();
  M.Tenant = R.str();
  if (!decodeSources(R, M.Sources))
    return false;
  M.Optimize = R.u8() != 0;
  return finish(R);
}

void cmm::svc::encodeRunRequest(ByteWriter &W, const RunRequestMsg &M) {
  W.u64(M.ReqId);
  W.str(M.Tenant);
  encodeSources(W, M.Sources);
  W.u8(M.Optimize);
  W.u8(M.Backend);
  W.str(M.Entry);
  encodeValues(W, M.Args);
  W.u8(M.Dispatcher);
  W.u64(M.MaxSteps);
  W.f64(M.DeadlineMillis);
  W.u64(M.MaxMemoryBytes);
  W.u8(M.Park);
  W.u8(M.WantProfile);
}

bool cmm::svc::decodeRunRequest(ByteReader &R, RunRequestMsg &M) {
  M.ReqId = R.u64();
  M.Tenant = R.str();
  if (!decodeSources(R, M.Sources))
    return false;
  M.Optimize = R.u8() != 0;
  M.Backend = R.u8();
  M.Entry = R.str();
  M.Args = decodeValues(R);
  M.Dispatcher = R.u8();
  M.MaxSteps = R.u64();
  M.DeadlineMillis = R.f64();
  M.MaxMemoryBytes = R.u64();
  M.Park = R.u8() != 0;
  M.WantProfile = R.u8() != 0;
  return finish(R);
}

void cmm::svc::encodeResumeRequest(ByteWriter &W, const ResumeRequestMsg &M) {
  W.u64(M.ReqId);
  W.str(M.Tenant);
  W.u64(M.SessionId);
  W.u8(uint8_t(M.Op));
  W.u32(M.Index);
  encodeValue(W, M.ContValue);
  encodeValues(W, M.Params);
  W.u8(M.Dispatcher);
  W.u64(M.MaxSteps);
  W.f64(M.DeadlineMillis);
  W.u64(M.MaxMemoryBytes);
  W.u8(M.CloseAfter);
}

bool cmm::svc::decodeResumeRequest(ByteReader &R, ResumeRequestMsg &M) {
  M.ReqId = R.u64();
  M.Tenant = R.str();
  M.SessionId = R.u64();
  uint8_t Op = R.u8();
  if (Op > uint8_t(ResumeOp::Continue)) {
    R.fail();
    return false;
  }
  M.Op = ResumeOp(Op);
  M.Index = R.u32();
  M.ContValue = decodeValue(R);
  M.Params = decodeValues(R);
  M.Dispatcher = R.u8();
  M.MaxSteps = R.u64();
  M.DeadlineMillis = R.f64();
  M.MaxMemoryBytes = R.u64();
  M.CloseAfter = R.u8() != 0;
  return finish(R);
}

void cmm::svc::encodeResult(ByteWriter &W, const ResultMsg &M) {
  W.u64(M.ReqId);
  W.u64(M.JobId);
  W.u8(M.Status);
  W.str(M.CompileError);
  encodeValues(W, M.Results);
  W.str(M.WrongReason);
  W.u8(M.TimedOut);
  W.u8(M.MemExceeded);
  W.u8(M.CacheHit);
  W.u64(M.SessionId);
  W.u8(M.DispatchHandled);
  W.u64(M.ResumeCycles);
  encodeStats(W, M.MachineStats);
  W.f64(M.CompileMillis);
  W.f64(M.RunMillis);
  W.str(M.ProfileJson);
}

bool cmm::svc::decodeResult(ByteReader &R, ResultMsg &M) {
  M.ReqId = R.u64();
  M.JobId = R.u64();
  M.Status = R.u8();
  M.CompileError = R.str();
  M.Results = decodeValues(R);
  M.WrongReason = R.str();
  M.TimedOut = R.u8() != 0;
  M.MemExceeded = R.u8() != 0;
  M.CacheHit = R.u8() != 0;
  M.SessionId = R.u64();
  M.DispatchHandled = R.u8() != 0;
  M.ResumeCycles = R.u64();
  M.MachineStats = decodeStats(R);
  M.CompileMillis = R.f64();
  M.RunMillis = R.f64();
  M.ProfileJson = R.str();
  return finish(R);
}

void cmm::svc::encodeCompiled(ByteWriter &W, const CompiledMsg &M) {
  W.u64(M.ReqId);
  W.str(M.Key);
  W.u8(M.Ok);
  W.str(M.Error);
  W.u8(M.CacheHit);
}

bool cmm::svc::decodeCompiled(ByteReader &R, CompiledMsg &M) {
  M.ReqId = R.u64();
  M.Key = R.str();
  M.Ok = R.u8() != 0;
  M.Error = R.str();
  M.CacheHit = R.u8() != 0;
  return finish(R);
}

void cmm::svc::encodeError(ByteWriter &W, const ErrorMsg &M) {
  W.u64(M.ReqId);
  W.u8(uint8_t(M.Code));
  W.str(M.Message);
}

bool cmm::svc::decodeError(ByteReader &R, ErrorMsg &M) {
  M.ReqId = R.u64();
  uint8_t C = R.u8();
  if (C < uint8_t(ErrCode::BadFrame) || C > uint8_t(ErrCode::SessionExpired)) {
    R.fail();
    return false;
  }
  M.Code = ErrCode(C);
  M.Message = R.str();
  return finish(R);
}
