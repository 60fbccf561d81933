//===- tests/TestUtil.h - Shared test helpers -------------------*- C++ -*-===//
//
// Part of cmmex (see DESIGN.md).
//
//===----------------------------------------------------------------------===//

#ifndef CMM_TESTS_TESTUTIL_H
#define CMM_TESTS_TESTUTIL_H

#include "ir/Translate.h"
#include "ir/Validate.h"
#include "sem/Machine.h"
#include "svc/Client.h"
#include "svc/Server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <optional>
#include <unistd.h>

namespace cmm::test {

/// Compiles \p Sources (plus the standard library); fails the test and
/// returns null on any diagnostic.
inline std::unique_ptr<IrProgram>
compile(const std::vector<std::string> &Sources, bool IncludeStdLib = true) {
  DiagnosticEngine Diags;
  std::unique_ptr<IrProgram> Prog =
      compileProgram(Sources, Diags, IncludeStdLib);
  if (!Prog || Diags.hasErrors()) {
    ADD_FAILURE() << "compilation failed:\n" << Diags.str();
    return nullptr;
  }
  DiagnosticEngine VDiags;
  if (!validateProgram(*Prog, VDiags)) {
    ADD_FAILURE() << "IR validation failed:\n" << VDiags.str();
    return nullptr;
  }
  return Prog;
}

/// Expects compilation of \p Source to fail and returns the diagnostics.
inline std::string compileError(const std::string &Source) {
  DiagnosticEngine Diags;
  std::unique_ptr<IrProgram> Prog = compileProgram({Source}, Diags);
  EXPECT_TRUE(Diags.hasErrors()) << "expected compilation to fail";
  return Diags.str();
}

/// Runs \p Proc to completion and returns the result values; fails the test
/// if the machine does not halt normally.
inline std::vector<Value> runToHalt(Executor &M, std::string_view Proc,
                                    std::vector<Value> Args = {},
                                    uint64_t MaxSteps = 10'000'000) {
  M.start(Proc, std::move(Args));
  MachineStatus St = M.run(MaxSteps);
  if (St != MachineStatus::Halted) {
    ADD_FAILURE() << "machine did not halt; status="
                  << static_cast<int>(St) << " reason=" << M.wrongReason();
    return {};
  }
  return M.argArea();
}

/// Shorthand for a bits32 value.
inline Value b32(uint64_t V) { return Value::bits(32, V); }

/// A scratch directory under the gtest temp root, recreated empty on
/// construction and removed on destruction (persistent-cache tests).
struct ScratchDir {
  std::filesystem::path Dir;
  explicit ScratchDir(const char *Tag) {
    Dir = std::filesystem::path(::testing::TempDir()) /
          (std::string("cmmex_") + Tag + "_" + std::to_string(::getpid()));
    std::error_code Ec;
    std::filesystem::remove_all(Dir, Ec);
    std::filesystem::create_directories(Dir, Ec);
  }
  ~ScratchDir() {
    std::error_code Ec;
    std::filesystem::remove_all(Dir, Ec);
  }
  std::string str() const { return Dir.string(); }
};

/// An in-process cmmexd (svc::Server) on an ephemeral endpoint, torn down
/// gracefully on destruction. Hermetic and parallel-safe: the Unix socket
/// path is derived from the pid plus a per-process sequence number, so any
/// number of harnesses may coexist across concurrently running test
/// binaries (`ctest -j`). Defaults to a Unix socket; pass O.UseTcp for the
/// TCP transport (port 0 binds ephemerally — read server().tcpPort()).
class ServiceHarness {
public:
  explicit ServiceHarness(svc::ServerOptions O = {}) {
    static std::atomic<unsigned> Seq{0};
    if (!O.UseTcp && O.UnixPath.empty())
      O.UnixPath = (std::filesystem::temp_directory_path() /
                    ("cmmexd_" + std::to_string(::getpid()) + "_" +
                     std::to_string(Seq.fetch_add(1)) + ".sock"))
                       .string();
    if (O.Threads == 0)
      O.Threads = 2; // deterministic footprint under parallel ctest
    Srv.emplace(std::move(O));
    std::string Err;
    Ok = Srv->start(&Err);
    EXPECT_TRUE(Ok) << "service harness failed to start: " << Err;
  }

  ~ServiceHarness() {
    Srv->requestStop(); // idempotent: no-op after a client ReqShutdown
    Srv->join();
  }

  bool ok() const { return Ok; }
  svc::Server &server() { return *Srv; }

  /// A fresh connection to the harness server.
  std::unique_ptr<svc::Client> client() {
    std::string Err;
    std::unique_ptr<svc::Client> C =
        Srv->unixPath().empty()
            ? svc::Client::connectTcp("127.0.0.1", Srv->tcpPort(), &Err)
            : svc::Client::connectUnix(Srv->unixPath(), &Err);
    EXPECT_TRUE(C) << "service harness connect failed: " << Err;
    return C;
  }

private:
  std::optional<svc::Server> Srv;
  bool Ok = false;
};

} // namespace cmm::test

#endif // CMM_TESTS_TESTUTIL_H
