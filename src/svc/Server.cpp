//===- svc/Server.cpp -----------------------------------------------------===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//

#include "svc/Server.h"

#include "engine/Session.h"

#include <algorithm>
#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace cmm;
using namespace cmm::svc;
using SteadyClock = std::chrono::steady_clock;

//===----------------------------------------------------------------------===//
// Socket plumbing
//===----------------------------------------------------------------------===//

namespace {

bool sendAll(int Fd, const uint8_t *P, size_t N) {
  while (N) {
    ssize_t W = ::send(Fd, P, N, MSG_NOSIGNAL);
    if (W < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    P += W;
    N -= size_t(W);
  }
  return true;
}

/// Reads exactly \p N bytes unless the peer closes first; returns bytes
/// read (short on EOF) or -1 on a hard error.
ssize_t recvFull(int Fd, uint8_t *P, size_t N) {
  size_t Got = 0;
  while (Got < N) {
    ssize_t R = ::recv(Fd, P + Got, N - Got, 0);
    if (R < 0) {
      if (errno == EINTR)
        continue;
      return -1;
    }
    if (R == 0)
      break;
    Got += size_t(R);
  }
  return ssize_t(Got);
}

uint64_t steadyMicros() {
  return uint64_t(std::chrono::duration_cast<std::chrono::microseconds>(
                      SteadyClock::now().time_since_epoch())
                      .count());
}

void fillResult(ResultMsg &Out, const engine::JobResult &R) {
  Out.JobId = R.Id;
  Out.Status = uint8_t(R.Status);
  Out.CompileError = R.CompileError;
  Out.Results = R.Results;
  Out.WrongReason = R.WrongReason;
  Out.TimedOut = R.TimedOut;
  Out.MemExceeded = R.MemExceeded;
  Out.CacheHit = R.CacheHit;
  Out.ResumeCycles = R.ResumeCycles;
  Out.MachineStats = R.MachineStats;
  Out.CompileMillis = R.CompileMillis;
  Out.RunMillis = R.RunMillis;
  Out.ProfileJson = R.ProfileJson;
}

} // namespace

//===----------------------------------------------------------------------===//
// Internal structs
//===----------------------------------------------------------------------===//

struct Server::Conn {
  int Fd = -1;
  uint64_t Id = 0;
  /// Serializes response frames (any pool task may answer on this
  /// connection).
  std::mutex WriteMu;
  /// A write failed; no further frames are attempted.
  std::atomic<bool> Dead{false};
  /// Reader thread exited; the fd is closed when the entry is reaped.
  std::atomic<bool> Finished{false};
};

struct Server::Tenant {
  std::atomic<int64_t> InFlight{0};
  std::atomic<int64_t> Sessions{0};
};

struct Server::SessionEntry {
  std::unique_ptr<engine::JobSession> S;
  std::string TenantName;
  std::shared_ptr<Tenant> Owner;
  /// One wire request drives a session at a time; acquired by admission,
  /// released when the segment's response is sent (or kept by close).
  std::atomic<bool> Busy{false};
  std::atomic<uint64_t> LastUsedMicros{0};
};

struct Server::SvcMetrics {
  Counter &Connections, &Requests, &Ping, &Compile, &Run, &Resume, &Stats,
      &Close, &Shutdown, &BadFrames, &Errors, &QuotaRejects, &SessionsOpened,
      &SessionsClosed, &SessionsExpired, &BytesIn, &BytesOut;
  Gauge &ConnectionsOpen, &SessionsOpen, &InFlight;
  Histogram &RequestMicros;
  explicit SvcMetrics(MetricsRegistry &R)
      : Connections(R.counter("svc.connections")),
        Requests(R.counter("svc.requests")),
        Ping(R.counter("svc.requests_ping")),
        Compile(R.counter("svc.requests_compile")),
        Run(R.counter("svc.requests_run")),
        Resume(R.counter("svc.requests_resume")),
        Stats(R.counter("svc.requests_stats")),
        Close(R.counter("svc.requests_close")),
        Shutdown(R.counter("svc.requests_shutdown")),
        BadFrames(R.counter("svc.bad_frames")),
        Errors(R.counter("svc.errors")),
        QuotaRejects(R.counter("svc.quota_rejects")),
        SessionsOpened(R.counter("svc.sessions")),
        SessionsClosed(R.counter("svc.sessions_closed")),
        SessionsExpired(R.counter("svc.sessions_expired")),
        BytesIn(R.counter("svc.bytes_in")),
        BytesOut(R.counter("svc.bytes_out")),
        ConnectionsOpen(R.gauge("svc.connections_open")),
        SessionsOpen(R.gauge("svc.sessions_open")),
        InFlight(R.gauge("svc.inflight")),
        RequestMicros(R.histogram("svc.request_micros")) {}
};

//===----------------------------------------------------------------------===//
// Construction / lifecycle
//===----------------------------------------------------------------------===//

Server::Server(ServerOptions O) : Opts(std::move(O)) {
  engine::EngineOptions EO;
  EO.Threads = Opts.Threads;
  EO.CacheCapacity = Opts.CacheCapacity;
  EO.CacheDir = Opts.CacheDir;
  EO.SnapshotTo = Opts.SnapshotTo;
  EO.SnapshotIntervalMillis = Opts.SnapshotIntervalMillis;
  Eng = std::make_unique<engine::Engine>(EO);
  SM = std::make_unique<SvcMetrics>(Eng->metrics());
}

Server::~Server() {
  if (Started)
    requestStop();
  join();
}

bool Server::start(std::string *Err) {
  auto fail = [&](std::string Msg) {
    if (Err)
      *Err = std::move(Msg);
    if (ListenFd >= 0) {
      ::close(ListenFd);
      ListenFd = -1;
    }
    return false;
  };
  if (Started)
    return fail("server already started");
  if (Opts.UseTcp == !Opts.UnixPath.empty())
    return fail("exactly one of UnixPath / UseTcp must be set");

  if (Opts.UseTcp) {
    ListenFd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (ListenFd < 0)
      return fail(std::string("socket: ") + std::strerror(errno));
    int One = 1;
    ::setsockopt(ListenFd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof One);
    sockaddr_in Addr{};
    Addr.sin_family = AF_INET;
    Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    Addr.sin_port = htons(Opts.TcpPort);
    if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof Addr) < 0)
      return fail(std::string("bind: ") + std::strerror(errno));
    socklen_t Len = sizeof Addr;
    if (::getsockname(ListenFd, reinterpret_cast<sockaddr *>(&Addr), &Len) < 0)
      return fail(std::string("getsockname: ") + std::strerror(errno));
    BoundPort = ntohs(Addr.sin_port);
  } else {
    sockaddr_un Addr{};
    if (Opts.UnixPath.size() >= sizeof Addr.sun_path)
      return fail("unix socket path too long: " + Opts.UnixPath);
    ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (ListenFd < 0)
      return fail(std::string("socket: ") + std::strerror(errno));
    ::unlink(Opts.UnixPath.c_str());
    Addr.sun_family = AF_UNIX;
    std::memcpy(Addr.sun_path, Opts.UnixPath.c_str(), Opts.UnixPath.size());
    if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof Addr) < 0)
      return fail(std::string("bind ") + Opts.UnixPath + ": " +
                  std::strerror(errno));
  }
  if (::listen(ListenFd, 128) < 0)
    return fail(std::string("listen: ") + std::strerror(errno));

  Started = true;
  Acceptor = std::thread([this] { acceptLoop(); });
  if (Opts.SessionTtlMillis > 0)
    Reaper = std::thread([this] { reaperLoop(); });
  return true;
}

void Server::requestStop() {
  std::lock_guard<std::mutex> L(StopMu);
  if (Closed.load())
    return;
  {
    // Raise Stopping under DrainMu so it cannot interleave with an
    // admission in beginRequest: every request is either counted into the
    // drain set before this point or refused ShuttingDown after it.
    std::lock_guard<std::mutex> D(DrainMu);
    Stopping.store(true);
  }
  waitDrained();
  stopSockets();
}

void Server::waitDrained() {
  std::unique_lock<std::mutex> L(DrainMu);
  DrainCv.wait(L, [&] { return InFlight.load() == 0; });
}

void Server::stopSockets() {
  Closed.store(true);
  if (ListenFd >= 0)
    ::shutdown(ListenFd, SHUT_RDWR);
  {
    std::lock_guard<std::mutex> L(ConnMu);
    for (auto &[C, T] : Conns)
      if (!C->Finished.load())
        ::shutdown(C->Fd, SHUT_RDWR);
  }
  {
    std::lock_guard<std::mutex> L(ReaperMu);
    ReaperCv.notify_all();
  }
}

void Server::join() {
  if (Acceptor.joinable())
    Acceptor.join();
  if (Reaper.joinable())
    Reaper.join();
  {
    std::lock_guard<std::mutex> L(ConnMu);
    for (auto &[C, T] : Conns) {
      if (T.joinable())
        T.join();
      ::close(C->Fd);
    }
    Conns.clear();
  }
  if (ListenFd >= 0) {
    ::close(ListenFd);
    ListenFd = -1;
  }
  if (!Opts.UseTcp && Started)
    ::unlink(Opts.UnixPath.c_str());
  // Drained sessions are abandoned: destroying the entries counts each
  // job's final outcome in the engine (Session.h's accounting contract).
  std::map<uint64_t, std::shared_ptr<SessionEntry>> Left;
  {
    std::lock_guard<std::mutex> L(SessMu);
    Left.swap(Sessions);
  }
  for (auto &[Id, E] : Left) {
    (void)Id;
    E->Owner->Sessions.fetch_sub(1);
    SM->SessionsOpen.sub(1);
    SM->SessionsClosed.add(1);
  }
}

int64_t Server::connectionsOpen() const {
  return int64_t(SM->ConnectionsOpen.value());
}

int64_t Server::sessionsOpen() const {
  std::lock_guard<std::mutex> L(SessMu);
  return int64_t(Sessions.size());
}

//===----------------------------------------------------------------------===//
// Accept / read loops
//===----------------------------------------------------------------------===//

void Server::acceptLoop() {
  for (;;) {
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0) {
      if (errno == EINTR)
        continue;
      break; // listen socket shut down
    }
    if (Closed.load()) {
      ::close(Fd);
      break;
    }
    if (Opts.UseTcp) {
      int One = 1;
      ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof One);
    }
    auto C = std::make_shared<Conn>();
    C->Fd = Fd;
    SM->Connections.add(1);
    SM->ConnectionsOpen.add(1);
    std::lock_guard<std::mutex> L(ConnMu);
    C->Id = NextConnId++;
    // Reap connections whose reader already exited so a long-lived server
    // doesn't accumulate dead threads.
    for (auto It = Conns.begin(); It != Conns.end();) {
      if (It->first->Finished.load()) {
        It->second.join();
        ::close(It->first->Fd);
        It = Conns.erase(It);
      } else {
        ++It;
      }
    }
    Conns.emplace_back(C, std::thread([this, C] { connLoop(C); }));
  }
}

void Server::connLoop(std::shared_ptr<Conn> C) {
  std::vector<uint8_t> Payload;
  for (;;) {
    uint8_t Header[FrameHeaderSize];
    ssize_t Got = recvFull(C->Fd, Header, FrameHeaderSize);
    if (Got <= 0)
      break; // clean close (or reset) at a frame boundary
    SM->BytesIn.add(uint64_t(Got));
    if (size_t(Got) < FrameHeaderSize) {
      SM->BadFrames.add(1);
      sendError(C, 0, ErrCode::BadFrame, "truncated frame header");
      break;
    }
    FrameHeader H;
    FrameError FE = decodeFrameHeader(Header, Opts.MaxFramePayload, H);
    if (FE != FrameError::None) {
      SM->BadFrames.add(1);
      switch (FE) {
      case FrameError::BadMagic:
        sendError(C, 0, ErrCode::BadFrame, "bad frame magic");
        break;
      case FrameError::BadVersion:
        sendError(C, 0, ErrCode::BadVersion, "unsupported protocol version");
        break;
      case FrameError::Oversized:
        sendError(C, 0, ErrCode::BadFrame, "oversized frame payload");
        break;
      default:
        sendError(C, 0, ErrCode::BadFrame, "unknown frame type");
        break;
      }
      break;
    }
    if (uint8_t(H.Type) >= uint8_t(MsgType::RespPong)) {
      SM->BadFrames.add(1);
      sendError(C, 0, ErrCode::BadRequest, "response frame sent to server");
      break;
    }
    Payload.assign(size_t(H.PayloadLen), 0); // bounded by MaxFramePayload
    if (H.PayloadLen) {
      Got = recvFull(C->Fd, Payload.data(), Payload.size());
      if (Got < 0 || size_t(Got) < Payload.size()) {
        // Truncated payload means the peer is gone mid-frame; count it but
        // there is nobody left to answer.
        SM->BadFrames.add(1);
        break;
      }
      SM->BytesIn.add(uint64_t(Got));
    }
    uint8_t Trailer[FrameTrailerSize];
    Got = recvFull(C->Fd, Trailer, FrameTrailerSize);
    if (Got < ssize_t(FrameTrailerSize)) {
      SM->BadFrames.add(1);
      break;
    }
    SM->BytesIn.add(uint64_t(Got));
    ByteReader TR(Trailer, FrameTrailerSize);
    if (!verifyFrameChecksum(Payload.data(), Payload.size(), TR.u64())) {
      SM->BadFrames.add(1);
      sendError(C, 0, ErrCode::BadFrame, "frame checksum mismatch");
      break;
    }
    if (!handleFrame(C, H.Type, Payload))
      break;
  }
  C->Dead.store(true);
  // Terminate the stream now so the peer sees EOF immediately; the fd
  // itself is closed only when the entry is reaped/joined (close here would
  // race fd reuse against stopSockets).
  ::shutdown(C->Fd, SHUT_RDWR);
  SM->ConnectionsOpen.sub(1);
  C->Finished.store(true);
}

//===----------------------------------------------------------------------===//
// Responses
//===----------------------------------------------------------------------===//

bool Server::sendFrame(const std::shared_ptr<Conn> &C, MsgType T,
                       const ByteWriter &Payload) {
  std::vector<uint8_t> Frame;
  Frame.reserve(FrameHeaderSize + Payload.size() + FrameTrailerSize);
  encodeFrame(T, Payload, Frame);
  std::lock_guard<std::mutex> L(C->WriteMu);
  if (C->Dead.load())
    return false;
  if (!sendAll(C->Fd, Frame.data(), Frame.size())) {
    C->Dead.store(true);
    return false;
  }
  SM->BytesOut.add(Frame.size());
  return true;
}

bool Server::sendError(const std::shared_ptr<Conn> &C, uint64_t ReqId,
                       ErrCode Code, std::string Message) {
  SM->Errors.add(1);
  ErrorMsg E;
  E.ReqId = ReqId;
  E.Code = Code;
  E.Message = std::move(Message);
  ByteWriter W;
  encodeError(W, E);
  return sendFrame(C, MsgType::RespError, W);
}

//===----------------------------------------------------------------------===//
// Admission
//===----------------------------------------------------------------------===//

std::shared_ptr<Server::Tenant> Server::tenant(const std::string &Name) {
  std::lock_guard<std::mutex> L(TenantMu);
  std::shared_ptr<Tenant> &T = Tenants[Name];
  if (!T)
    T = std::make_shared<Tenant>();
  return T;
}

ResumeBudget Server::clampBudget(uint64_t MaxSteps, double DeadlineMillis,
                                 uint64_t MaxMemoryBytes) const {
  const TenantQuota &Q = Opts.Quota;
  ResumeBudget B;
  bool NoFuel = MaxSteps == 0 || MaxSteps == ~uint64_t(0);
  B.MaxSteps = Q.MaxFuel == 0
                   ? (NoFuel ? ~uint64_t(0) : MaxSteps)
                   : (NoFuel ? Q.MaxFuel : std::min(MaxSteps, Q.MaxFuel));
  B.DeadlineMillis =
      Q.MaxDeadlineMillis <= 0
          ? (DeadlineMillis <= 0 ? 0 : DeadlineMillis)
          : (DeadlineMillis <= 0 ? Q.MaxDeadlineMillis
                                 : std::min(DeadlineMillis,
                                            Q.MaxDeadlineMillis));
  B.MaxMemoryBytes =
      Q.MaxMemoryBytes == 0
          ? MaxMemoryBytes
          : (MaxMemoryBytes == 0 ? Q.MaxMemoryBytes
                                 : std::min(MaxMemoryBytes,
                                            Q.MaxMemoryBytes));
  return B;
}

bool Server::beginRequest() {
  std::lock_guard<std::mutex> L(DrainMu);
  if (Stopping.load())
    return false;
  InFlight.fetch_add(1);
  SM->InFlight.add(1);
  return true;
}

void Server::endRequest(const std::shared_ptr<Tenant> &T,
                        SteadyClock::time_point T0) {
  if (T)
    T->InFlight.fetch_sub(1);
  SM->InFlight.sub(1);
  SM->RequestMicros.record(
      uint64_t(std::chrono::duration_cast<std::chrono::microseconds>(
                   SteadyClock::now() - T0)
                   .count()));
  std::lock_guard<std::mutex> L(DrainMu);
  if (InFlight.fetch_sub(1) == 1)
    DrainCv.notify_all();
}

//===----------------------------------------------------------------------===//
// Request dispatch
//===----------------------------------------------------------------------===//

bool Server::handleFrame(const std::shared_ptr<Conn> &C, MsgType T,
                         const std::vector<uint8_t> &Payload) {
  SM->Requests.add(1);
  ByteReader R(Payload.data(), Payload.size());
  switch (T) {
  case MsgType::ReqPing: {
    SM->Ping.add(1);
    uint64_t Id = R.u64();
    if (!R.ok() || R.remaining())
      return sendError(C, 0, ErrCode::BadFrame, "malformed ping"), false;
    ByteWriter W;
    W.u64(Id);
    sendFrame(C, MsgType::RespPong, W);
    return true;
  }
  case MsgType::ReqStats: {
    SM->Stats.add(1);
    uint64_t Id = R.u64();
    if (!R.ok() || R.remaining())
      return sendError(C, 0, ErrCode::BadFrame, "malformed stats request"),
             false;
    ByteWriter W;
    W.u64(Id);
    W.str(Eng->metricsJson());
    sendFrame(C, MsgType::RespStats, W);
    return true;
  }
  case MsgType::ReqCompile: {
    SM->Compile.add(1);
    CompileRequestMsg M;
    if (!decodeCompileRequest(R, M))
      return sendError(C, 0, ErrCode::BadFrame, "malformed compile request"),
             false;
    if (Stopping.load()) {
      sendError(C, M.ReqId, ErrCode::ShuttingDown, "server is draining");
      return true;
    }
    auto Ten = tenant(M.Tenant);
    if (!beginRequest()) {
      sendError(C, M.ReqId, ErrCode::ShuttingDown, "server is draining");
      return true;
    }
    Ten->InFlight.fetch_add(1);
    Eng->pool().submit([this, C, M = std::move(M), Ten]() mutable {
      handleCompile(C, std::move(M), Ten);
    });
    return true;
  }
  case MsgType::ReqRun: {
    SM->Run.add(1);
    RunRequestMsg M;
    if (!decodeRunRequest(R, M))
      return sendError(C, 0, ErrCode::BadFrame, "malformed run request"),
             false;
    if (M.Backend > uint8_t(engine::Backend::Threaded) ||
        M.Dispatcher > uint8_t(engine::DispatcherKind::Cut)) {
      sendError(C, M.ReqId, ErrCode::BadRequest,
                "unknown backend or dispatcher");
      return true;
    }
    if (Stopping.load()) {
      sendError(C, M.ReqId, ErrCode::ShuttingDown, "server is draining");
      return true;
    }
    auto Ten = tenant(M.Tenant);
    if (uint64_t(Ten->InFlight.load()) >= Opts.Quota.MaxInFlight) {
      SM->QuotaRejects.add(1);
      sendError(C, M.ReqId, ErrCode::QuotaExceeded,
                "tenant in-flight request quota exceeded");
      return true;
    }
    if (M.Park) {
      // Reserve the session slot at admission so parallel parks cannot
      // overshoot; released if the job never actually parks.
      if (uint64_t(Ten->Sessions.fetch_add(1)) >= Opts.Quota.MaxSessions) {
        Ten->Sessions.fetch_sub(1);
        SM->QuotaRejects.add(1);
        sendError(C, M.ReqId, ErrCode::QuotaExceeded,
                  "tenant session quota exceeded");
        return true;
      }
    }
    if (!beginRequest()) {
      if (M.Park)
        Ten->Sessions.fetch_sub(1);
      sendError(C, M.ReqId, ErrCode::ShuttingDown, "server is draining");
      return true;
    }
    Ten->InFlight.fetch_add(1);
    Eng->pool().submit([this, C, M = std::move(M), Ten]() mutable {
      handleRun(C, std::move(M), Ten);
    });
    return true;
  }
  case MsgType::ReqResume: {
    SM->Resume.add(1);
    ResumeRequestMsg M;
    if (!decodeResumeRequest(R, M))
      return sendError(C, 0, ErrCode::BadFrame, "malformed resume request"),
             false;
    if (Stopping.load()) {
      sendError(C, M.ReqId, ErrCode::ShuttingDown, "server is draining");
      return true;
    }
    std::shared_ptr<SessionEntry> E;
    {
      std::lock_guard<std::mutex> L(SessMu);
      auto It = Sessions.find(M.SessionId);
      if (It != Sessions.end() && It->second->TenantName == M.Tenant)
        E = It->second;
    }
    if (!E) {
      sendError(C, M.ReqId, ErrCode::NoSuchSession, "no such session");
      return true;
    }
    if (E->Busy.exchange(true)) {
      sendError(C, M.ReqId, ErrCode::SessionBusy,
                "session is already being driven");
      return true;
    }
    auto Ten = tenant(M.Tenant);
    if (uint64_t(Ten->InFlight.load()) >= Opts.Quota.MaxInFlight) {
      E->Busy.store(false);
      SM->QuotaRejects.add(1);
      sendError(C, M.ReqId, ErrCode::QuotaExceeded,
                "tenant in-flight request quota exceeded");
      return true;
    }
    if (!beginRequest()) {
      E->Busy.store(false);
      sendError(C, M.ReqId, ErrCode::ShuttingDown, "server is draining");
      return true;
    }
    Ten->InFlight.fetch_add(1);
    Eng->pool().submit([this, C, M = std::move(M), E, Ten]() mutable {
      handleResume(C, std::move(M), E, Ten);
    });
    return true;
  }
  case MsgType::ReqClose: {
    SM->Close.add(1);
    uint64_t Id = R.u64();
    std::string Tn = R.str();
    uint64_t Sid = R.u64();
    if (!R.ok() || R.remaining())
      return sendError(C, 0, ErrCode::BadFrame, "malformed close request"),
             false;
    std::shared_ptr<SessionEntry> E;
    {
      std::lock_guard<std::mutex> L(SessMu);
      auto It = Sessions.find(Sid);
      if (It != Sessions.end() && It->second->TenantName == Tn)
        E = It->second;
    }
    if (E) {
      if (E->Busy.exchange(true)) {
        sendError(C, Id, ErrCode::SessionBusy,
                  "session is already being driven");
        return true;
      }
      closeSession(Sid, E, SM->SessionsClosed);
    }
    ByteWriter W;
    W.u64(Id);
    W.u8(E ? 1 : 0);
    sendFrame(C, MsgType::RespClosed, W);
    return true;
  }
  case MsgType::ReqShutdown: {
    SM->Shutdown.add(1);
    uint64_t Id = R.u64();
    if (!R.ok() || R.remaining())
      return sendError(C, 0, ErrCode::BadFrame, "malformed shutdown request"),
             false;
    handleShutdown(C, Id);
    return false; // this connection is done either way
  }
  default:
    SM->BadFrames.add(1);
    sendError(C, 0, ErrCode::BadFrame, "unknown request type");
    return false;
  }
}

//===----------------------------------------------------------------------===//
// Request bodies (engine pool)
//===----------------------------------------------------------------------===//

void Server::handleCompile(std::shared_ptr<Conn> C, CompileRequestMsg M,
                           std::shared_ptr<Tenant> T) {
  auto T0 = SteadyClock::now();
  engine::CompileRequest Req;
  Req.Sources = std::move(M.Sources);
  Req.Optimize = M.Optimize;
  CompiledMsg Out;
  std::shared_ptr<const engine::ProgramArtifact> Art =
      Eng->compile(Req, &Out.CacheHit);
  Out.ReqId = M.ReqId;
  Out.Key = Art->key().str();
  Out.Ok = Art->ok();
  Out.Error = Art->error();
  ByteWriter W;
  encodeCompiled(W, Out);
  sendFrame(C, MsgType::RespCompiled, W);
  endRequest(T, T0);
}

void Server::handleRun(std::shared_ptr<Conn> C, RunRequestMsg M,
                       std::shared_ptr<Tenant> T) {
  auto T0 = SteadyClock::now();
  engine::Job J;
  J.Request.Sources = std::move(M.Sources);
  J.Request.Optimize = M.Optimize;
  J.B = engine::Backend(M.Backend);
  J.Entry = std::move(M.Entry);
  J.Args = std::move(M.Args);
  J.Dispatcher = engine::DispatcherKind(M.Dispatcher);
  ResumeBudget B =
      clampBudget(M.MaxSteps, M.DeadlineMillis, M.MaxMemoryBytes);
  J.MaxSteps = B.MaxSteps;
  J.DeadlineMillis = B.DeadlineMillis;
  J.MaxMemoryBytes = B.MaxMemoryBytes;
  J.CollectProfile = M.WantProfile && !M.Park;

  ResultMsg Out;
  Out.ReqId = M.ReqId;
  if (!M.Park) {
    engine::JobResult R = Eng->runJob(J);
    fillResult(Out, R);
  } else {
    engine::JobResult R;
    std::unique_ptr<engine::JobSession> S = Eng->startSession(J, R);
    fillResult(Out, R);
    if (S) {
      uint64_t Sid = S->id();
      auto E = std::make_shared<SessionEntry>();
      E->S = std::move(S);
      E->TenantName = M.Tenant;
      E->Owner = T;
      E->LastUsedMicros.store(steadyMicros());
      {
        std::lock_guard<std::mutex> L(SessMu);
        Sessions.emplace(Sid, E);
      }
      SM->SessionsOpened.add(1);
      SM->SessionsOpen.add(1);
      Out.SessionId = Sid;
    } else {
      T->Sessions.fetch_sub(1); // terminal first segment: release the slot
    }
  }
  ByteWriter W;
  encodeResult(W, Out);
  sendFrame(C, MsgType::RespResult, W);
  endRequest(T, T0);
}

void Server::handleResume(std::shared_ptr<Conn> C, ResumeRequestMsg M,
                          std::shared_ptr<SessionEntry> E,
                          std::shared_ptr<Tenant> T) {
  auto T0 = SteadyClock::now();
  ResumeBudget B =
      clampBudget(M.MaxSteps, M.DeadlineMillis, M.MaxMemoryBytes);
  engine::JobSession &S = *E->S;
  engine::JobResult R;
  ResultMsg Out;
  Out.ReqId = M.ReqId;
  switch (M.Op) {
  case ResumeOp::Return:
    R = S.resumeRaw(ResumeChoice::ret(M.Index), std::move(M.Params), B);
    break;
  case ResumeOp::Unwind:
    R = S.resumeRaw(ResumeChoice::unwind(M.Index), std::move(M.Params), B);
    break;
  case ResumeOp::Cut:
    R = S.resumeRaw(ResumeChoice::cut(M.ContValue), std::move(M.Params), B);
    break;
  case ResumeOp::UnwindTop:
    R = S.unwindTop(M.Index, B);
    break;
  case ResumeOp::Dispatch: {
    engine::DispatcherKind K =
        M.Dispatcher <= uint8_t(engine::DispatcherKind::Cut)
            ? engine::DispatcherKind(M.Dispatcher)
            : engine::DispatcherKind::None;
    R = S.dispatchOnce(K, B);
    Out.DispatchHandled = S.lastDispatchHandled();
    break;
  }
  case ResumeOp::Continue:
    R = S.continueRun(B);
    break;
  }
  fillResult(Out, R);
  if (S.done() || M.CloseAfter) {
    closeSession(M.SessionId, E, SM->SessionsClosed);
  } else {
    Out.SessionId = M.SessionId;
    E->LastUsedMicros.store(steadyMicros());
    E->Busy.store(false);
  }
  ByteWriter W;
  encodeResult(W, Out);
  sendFrame(C, MsgType::RespResult, W);
  endRequest(T, T0);
}

void Server::handleShutdown(const std::shared_ptr<Conn> &C, uint64_t ReqId) {
  std::lock_guard<std::mutex> L(StopMu);
  const bool Drain = !Closed.load();
  if (Drain) {
    {
      std::lock_guard<std::mutex> D(DrainMu);
      Stopping.store(true);
    }
    waitDrained();
    // Stopped before the reply goes out, so a client that has seen
    // RespShutdown (or any drained response) also sees stopped().
    Closed.store(true);
  }
  ByteWriter W;
  W.u64(ReqId);
  sendFrame(C, MsgType::RespShutdown, W);
  if (Drain)
    stopSockets();
}

//===----------------------------------------------------------------------===//
// Sessions
//===----------------------------------------------------------------------===//

void Server::closeSession(uint64_t Id, const std::shared_ptr<SessionEntry> &E,
                          Counter &Outcome) {
  // Idempotent: only the caller that actually removes the table entry
  // releases the tenant slot and counts the outcome, so a close racing a
  // drain (or any future second caller) cannot double-count.
  {
    std::lock_guard<std::mutex> L(SessMu);
    if (Sessions.erase(Id) == 0)
      return;
  }
  E->Owner->Sessions.fetch_sub(1);
  SM->SessionsOpen.sub(1);
  Outcome.add(1);
  // The JobSession itself dies with the last SessionEntry reference; its
  // destructor counts the engine-side outcome for abandoned jobs.
}

void Server::reaperLoop() {
  const uint64_t TtlMicros = uint64_t(Opts.SessionTtlMillis * 1000.0);
  const auto Interval = std::chrono::milliseconds(
      std::max<int64_t>(10, int64_t(Opts.SessionTtlMillis / 4)));
  for (;;) {
    {
      std::unique_lock<std::mutex> L(ReaperMu);
      ReaperCv.wait_for(L, Interval, [&] { return Closed.load(); });
    }
    // Stand down once the drain starts: parked sessions left at shutdown
    // are accounted as closed by join(), and expiring them concurrently
    // with teardown would race that sweep.
    if (Closed.load() || Stopping.load())
      return;
    uint64_t Now = steadyMicros();
    std::vector<std::pair<uint64_t, std::shared_ptr<SessionEntry>>> Victims;
    {
      std::lock_guard<std::mutex> L(SessMu);
      for (auto &[Id, E] : Sessions) {
        if (!sessionIdleExpired(Now, E->LastUsedMicros.load(), TtlMicros))
          continue;
        if (E->Busy.exchange(true)) // in use; it will refresh on release
          continue;
        // Re-check after claiming: a resume may have refreshed the
        // timestamp and released Busy between our read and the claim —
        // expiring it then would discard a session the tenant just used.
        if (!sessionIdleExpired(Now, E->LastUsedMicros.load(), TtlMicros)) {
          E->Busy.store(false);
          continue;
        }
        Victims.emplace_back(Id, E);
      }
    }
    for (auto &[Id, E] : Victims)
      closeSession(Id, E, SM->SessionsExpired);
  }
}
