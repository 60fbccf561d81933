//===- svc/Server.h - The cmmexd execution service --------------*- C++ -*-===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The long-lived execution service behind tools/cmmexd.cpp
/// (docs/SERVICE.md): a socket front end that multiplexes framed protocol
/// requests (svc/Protocol.h) onto one batch Engine.
///
/// Architecture: an acceptor thread hands each connection to a reader
/// thread that does nothing but decode frames; every decoded request is
/// executed on the engine's work-stealing pool, and its response is written
/// back under a per-connection write lock — so one connection can have any
/// number of requests in flight and responses return in completion order.
/// Concurrency is bounded by the pool, not the connection count.
///
/// Tenancy: every request names a tenant; the server clamps the request's
/// fuel / deadline / memory budgets to the tenant's quota and bounds both
/// its concurrently executing requests and its parked sessions. Quota
/// refusals are loud (RespError QuotaExceeded) and counted, never silent
/// degradation.
///
/// Sessions: a parked suspended job (engine/Session.h) owned by the server
/// on behalf of one tenant. Wire resumes are serialized per session (a
/// concurrent second resume is refused SessionBusy), idle sessions expire
/// after ServerOptions::SessionTtlMillis, and every session is accounted
/// for exactly once — resumed to completion, closed, expired, or drained
/// at shutdown.
///
/// Shutdown is graceful by default: admission closes (new work is refused
/// ShuttingDown), every in-flight request runs to completion and its
/// response is delivered, and only then do the sockets close.
///
/// Observability: the server wires svc.* metrics into the engine's own
/// MetricsRegistry, so one ReqStats snapshot carries the protocol layer,
/// the cache, the pool, and the job lifecycle in a single reconcilable
/// JSON object (docs/SERVICE.md lists the catalog and its invariants).
///
//===----------------------------------------------------------------------===//

#ifndef CMM_SVC_SERVER_H
#define CMM_SVC_SERVER_H

#include "engine/Engine.h"
#include "sem/Continuation.h"
#include "svc/Protocol.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace cmm::engine {
class JobSession;
}

namespace cmm::svc {

/// The reaper's expiry test: true when a session last used at
/// \p LastUsedMicros has been idle at least \p TtlMicros by the sweep's
/// clock \p NowMicros. The sweep samples its clock under the session-table
/// lock, but a resume stamps its session on release without that lock, so
/// a stamp can still be later than \p NowMicros; such a session has not
/// been idle at all.
inline bool sessionIdleExpired(uint64_t NowMicros, uint64_t LastUsedMicros,
                               uint64_t TtlMicros) {
  return LastUsedMicros <= NowMicros && NowMicros - LastUsedMicros >= TtlMicros;
}

/// Per-tenant resource bounds. The zero-value of a request budget field
/// means "the quota default"; a nonzero request value is clamped to the
/// quota maximum.
struct TenantQuota {
  uint64_t MaxFuel = 500'000'000;        ///< transitions per segment
  double MaxDeadlineMillis = 30'000;     ///< wall clock per segment
  uint64_t MaxMemoryBytes = 256u << 20;  ///< executor footprint
  uint32_t MaxInFlight = 1024;           ///< concurrent run/resume requests
  uint32_t MaxSessions = 4096;           ///< parked sessions
};

struct ServerOptions {
  /// Unix-domain socket path (preferred; hermetic). Exactly one of
  /// UnixPath / UseTcp must be set.
  std::string UnixPath;
  /// TCP on 127.0.0.1:TcpPort instead; port 0 binds an ephemeral port
  /// (read it back via Server::tcpPort()).
  bool UseTcp = false;
  uint16_t TcpPort = 0;

  /// Engine configuration (EngineOptions fields the service exposes).
  unsigned Threads = 0;
  size_t CacheCapacity = 1024;
  std::string CacheDir;
  std::ostream *SnapshotTo = nullptr;
  double SnapshotIntervalMillis = 1000;

  /// Default quota applied to every tenant.
  TenantQuota Quota;
  /// Idle parked sessions are discarded after this long; 0 disables.
  double SessionTtlMillis = 60'000;
  /// Frames with a larger length prefix are refused before any allocation.
  uint64_t MaxFramePayload = 16u << 20;
};

/// One running service instance. Thread-safe after start(); start/
/// requestStop/join are for the owning thread.
class Server {
public:
  explicit Server(ServerOptions O);
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds the socket and spawns the acceptor; false with \p Err on any
  /// setup failure. Call once.
  bool start(std::string *Err);

  /// Graceful stop: closes admission, drains in-flight requests, then
  /// closes every socket. Blocks until drained. Idempotent.
  void requestStop();

  /// Joins every service thread. Call after requestStop (or after a
  /// client-initiated ReqShutdown completed).
  void join();

  /// True between a successful start() and the end of a drain.
  bool accepting() const { return Started && !Stopping.load(); }
  /// True once the sockets are torn down (requestStop finished) or a
  /// client-initiated ReqShutdown drained the server (set before its reply
  /// is sent) — the daemon's main loop polls this to know when to exit.
  bool stopped() const { return Closed.load(); }

  /// The actually bound TCP port (ephemeral binds resolve here).
  uint16_t tcpPort() const { return BoundPort; }
  const std::string &unixPath() const { return Opts.UnixPath; }

  engine::Engine &engine() { return *Eng; }
  MetricsRegistry &metrics() { return Eng->metrics(); }
  /// The live stats snapshot ReqStats serves.
  std::string statsJson() const { return Eng->metricsJson(); }

  /// Test introspection.
  int64_t connectionsOpen() const;
  int64_t sessionsOpen() const;

private:
  struct Conn;
  struct SessionEntry;
  struct Tenant;
  struct SvcMetrics;

  void acceptLoop();
  void connLoop(std::shared_ptr<Conn> C);
  void reaperLoop();

  /// Decodes and executes one frame; false when the connection must close
  /// (protocol violation or shutdown).
  bool handleFrame(const std::shared_ptr<Conn> &C, MsgType T,
                   const std::vector<uint8_t> &Payload);
  // Request bodies, executed on the engine pool after admission. The
  // reader thread already charged the tenant (and, for resumes, acquired
  // the session's busy flag); these must release through endRequest /
  // closeSession on every path.
  void handleRun(std::shared_ptr<Conn> C, RunRequestMsg M,
                 std::shared_ptr<Tenant> T);
  void handleResume(std::shared_ptr<Conn> C, ResumeRequestMsg M,
                    std::shared_ptr<SessionEntry> E, std::shared_ptr<Tenant> T);
  void handleCompile(std::shared_ptr<Conn> C, CompileRequestMsg M,
                     std::shared_ptr<Tenant> T);
  void handleShutdown(const std::shared_ptr<Conn> &C, uint64_t ReqId);
  /// Counts a request into the drain set, or refuses (false) when the
  /// server is draining. The Stopping check happens under DrainMu — the
  /// same lock requestStop holds while raising Stopping — so a request
  /// admitted here is always visible to waitDrained. Checking Stopping
  /// anywhere else and calling this later reopens the shutdown race this
  /// closes: a frame could slip past the check, land on the pool after
  /// the drain completed, and touch freed server state.
  bool beginRequest();
  void endRequest(const std::shared_ptr<Tenant> &T,
                  std::chrono::steady_clock::time_point T0);

  bool sendFrame(const std::shared_ptr<Conn> &C, MsgType T,
                 const ByteWriter &Payload);
  bool sendError(const std::shared_ptr<Conn> &C, uint64_t ReqId, ErrCode Code,
                 std::string Message);

  std::shared_ptr<Tenant> tenant(const std::string &Name);
  ResumeBudget clampBudget(uint64_t MaxSteps, double DeadlineMillis,
                           uint64_t MaxMemoryBytes) const;

  /// Unparks session \p Id: erases the table entry, releases the tenant's
  /// session slot, and counts the removal into \p Outcome (closed or
  /// expired). The engine-side outcome is counted when the last reference
  /// to the JobSession drops.
  void closeSession(uint64_t Id, const std::shared_ptr<SessionEntry> &E,
                    Counter &Outcome);

  /// Drains in-flight requests: admission must already be closed.
  void waitDrained();
  void stopSockets();

  ServerOptions Opts;
  std::unique_ptr<engine::Engine> Eng;
  std::unique_ptr<SvcMetrics> SM;

  bool Started = false;
  std::atomic<bool> Stopping{false}; ///< admission closed
  std::atomic<bool> Closed{false};   ///< sockets torn down
  std::mutex StopMu;                 ///< serializes the stop sequence

  int ListenFd = -1;
  uint16_t BoundPort = 0;
  std::thread Acceptor;
  std::thread Reaper;
  std::mutex ReaperMu;
  std::condition_variable ReaperCv;

  std::mutex ConnMu;
  uint64_t NextConnId = 1;
  std::vector<std::pair<std::shared_ptr<Conn>, std::thread>> Conns;

  std::atomic<int64_t> InFlight{0};
  std::mutex DrainMu;
  std::condition_variable DrainCv;

  mutable std::mutex SessMu;
  std::map<uint64_t, std::shared_ptr<SessionEntry>> Sessions;
  /// Sessions the reaper discarded, so a late resume learns why its
  /// session is gone: id -> owner and idle age. A FIFO bounded by the
  /// parked-session quota (Quota.MaxSessions). Guarded by SessMu.
  struct Tombstone {
    std::string TenantName;
    uint64_t IdleMicros = 0;
  };
  std::map<uint64_t, Tombstone> Expired;
  std::deque<uint64_t> ExpiredOrder;

  std::mutex TenantMu;
  std::map<std::string, std::shared_ptr<Tenant>> Tenants;
};

} // namespace cmm::svc

#endif // CMM_SVC_SERVER_H
