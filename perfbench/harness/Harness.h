//===- perfbench/harness/Harness.h - Shared set-up and reporting ----------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload shares: the build of all seven apps in both storage
/// modes, one provisioning server per build served over loopback TCP by a
/// `ReactorServer`, the plain builds the outputs are checked against, the
/// client operations (cold start, warm start, fleet-style restore, app
/// suite), and the metric report.
///
/// Set-up ends with a warm-up that runs every client operation once, so
/// each workload's traced run reports every per-layer metric, and a broken
/// build fails before any timing starts.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_HARNESS_H
#define PERFBENCH_HARNESS_HARNESS_H

#include "harness/Trace.h"

#include "apps/App.h"
#include "elide/HostRuntime.h"
#include "elide/Pipeline.h"
#include "server/AuthServer.h"
#include "server/Reactor.h"
#include "server/Transport.h"
#include "sgx/Attestation.h"
#include "sgx/SgxDevice.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using namespace elide;

/// The app the fleet restores: the largest remote secret.
constexpr const char *FleetApp = "Shas";

/// Set-ups per run; `setup_s` is their median, so one set-up slowed by
/// the machine does not move it.
constexpr int SetUpRuns = 5;

/// Command-line options of one run.
struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string TraceOut; ///< Where the traced run writes its spans.
};

/// One app built in one storage mode, and the server that provisions it.
struct Target {
  const apps::AppSpec *App = nullptr;
  SecretStorage Mode = SecretStorage::Remote;
  BuildOptions Options;
  BuildArtifacts Artifacts;
  std::unique_ptr<AuthServer> Server;
  std::unique_ptr<ReactorServer> Reactor;

  std::string label() const;
};

/// A seeded ecall; a build must answer it exactly like the plain build.
struct Probe {
  std::string Ecall;
  Bytes Input;
  size_t OutCap = 0;
};

/// Result of one launch (load + restore) of a sanitized build.
struct Launch {
  std::unique_ptr<sgx::Enclave> E;
  double Ms = 0; ///< Load plus restore.
};

/// Everything a workload runs against.
class Harness {
public:
  /// Builds, starts and warms up. Each server has one worker thread.
  static Expected<std::unique_ptr<Harness>> setUp(uint64_t Seed, Tracer &T);
  ~Harness();

  Harness(const Harness &) = delete;
  Harness &operator=(const Harness &) = delete;

  std::vector<Target> &targets() { return Targets; }
  Target &target(const std::string &App, SecretStorage Mode);
  sgx::Enclave &plain(const std::string &App) { return *Plain.at(App); }
  sgx::QuotingEnclave &qe() { return *Qe; }

  /// Loads \p Tg's sanitized build and restores it with \p Host. Spans:
  /// "sgx.load" and \p RestoreSpan.
  Expected<Launch> launch(Target &Tg, ElideHost &Host,
                          const char *RestoreSpan);

  /// Loads \p Tg's sanitized build (span "sgx.load").
  Expected<std::unique_ptr<sgx::Enclave>> loadSanitized(Target &Tg);

  /// A fresh host for \p Tg (local mode gets the shipped data file).
  std::unique_ptr<ElideHost> newHost(Target &Tg, Transport *Link);

  /// Seeded probe ecall for \p App.
  Probe makeProbe(const apps::AppSpec &App, Drbg &Rng) const;
  /// True when \p E answers \p P exactly like the plain build.
  bool probeMatches(sgx::Enclave &E, const std::string &App, const Probe &P);

  /// Runs \p App's built-in suite on \p E; \p Instructions gets the count
  /// retired. Span "apps.suite" tagged with the app name.
  Error runSuite(const apps::AppSpec &App, sgx::Enclave &E,
                 uint64_t &Instructions);
  /// Instructions the plain build retires for one suite pass.
  uint64_t plainSuiteInstructions(const std::string &App) const {
    return PlainSuite.at(App);
  }

  /// A fresh restore id (spans of one restore share it).
  int64_t nextRestoreId();

  /// Total frames served and connections accepted over all servers.
  ReactorStats serverTotals() const;

private:
  /// A non-game app restored (remote mode) during the warm-up, for its
  /// suite rotation.
  struct Kernel {
    const apps::AppSpec *App = nullptr;
    std::unique_ptr<sgx::Enclave> E;
    std::unique_ptr<ElideHost> Host;
  };

  Harness(uint64_t Seed, Tracer &T);
  Error build();
  Error warmUp();

  uint64_t Seed;
  Tracer &T;
  std::unique_ptr<sgx::SgxDevice> Device;
  std::unique_ptr<sgx::AttestationAuthority> Authority;
  std::unique_ptr<sgx::QuotingEnclave> Qe;
  std::vector<Target> Targets;
  std::map<std::string, std::unique_ptr<sgx::Enclave>> Plain;
  std::vector<std::unique_ptr<ElideHost>> PlainHosts;
  std::map<std::string, uint64_t> PlainSuite;
  std::vector<Kernel> Kernels;
};

/// A client that restores the fleet app's remote secret with exactly the
/// frames the real restorer sends (HELLO, RECORD meta, RECORD data). Its
/// quote comes from a report the real sanitized enclave creates.
class FleetClient {
public:
  FleetClient(Harness &H, std::unique_ptr<sgx::Enclave> Enclave,
              uint64_t Seed);

  /// One restore over \p Link; true when the data equals the secret.
  /// Spans (into \p T, when not null): "fleet.restore" with children
  /// "client.x25519", "client.quote", "transport.round_trip" and
  /// "client.gcm_open".
  bool restore(Transport &Link, Tracer *T);

private:
  Harness &H;
  Target &Tg;
  std::unique_ptr<sgx::Enclave> Enclave;
  Drbg Rng;
};

//===----------------------------------------------------------------------===//
// Reporting
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// One run's outcome, printed as a table and a final JSON line.
struct RunResult {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> Metrics; ///< Reported in the JSON line.
  std::vector<Metric> Extra;   ///< Printed only.
  std::vector<std::string> Notes;

  void add(std::string Name, double Value, std::string Unit) {
    Metrics.push_back({std::move(Name), Value, std::move(Unit)});
  }
  void extra(std::string Name, double Value, std::string Unit) {
    Extra.push_back({std::move(Name), Value, std::move(Unit)});
  }
};

/// Nearest-rank quantile of \p Samples (0 for an empty set).
double quantile(std::vector<double> Samples, double Q);
double median(std::vector<double> Samples);

/// Peak resident set size of this process in MiB since `setUpRepeated`.
double peakRssMb();

/// Shared end-to-end report: timing of the workload's operation at p50 and
/// at \p TailQ, the auxiliary operation's median, throughput and set-up.
void reportEndToEnd(RunResult &R, const std::string &OpName,
                    const std::vector<double> &OpMs, double TailQ,
                    const std::string &AuxName,
                    const std::vector<double> &AuxMs, double OpsPerSec,
                    double SetupS);

/// Ends a traced run: joins each server span to its client round trip,
/// reports the per-layer metrics and the tracing overhead (traced minus
/// untraced median of the workload's operation), and writes the spans to
/// `Opts.TraceOut` as JSON lines. \p PrimaryRestore names the span whose
/// restores the per-restore counts are taken over.
Error reportTraced(RunResult &R, Tracer &T, const Harness &H,
                   const std::string &PrimaryRestore,
                   const std::vector<double> &TracedMs,
                   const std::vector<double> &UntracedMs,
                   const RunOptions &Opts);

/// Sets up `SetUpRuns` times and keeps the last harness; \p SetupS gets the
/// median set-up time. Then resets the process's peak RSS, so that
/// `peakRssMb` measures only what follows.
Expected<std::unique_ptr<Harness>>
setUpRepeated(uint64_t Seed, Tracer &T, double &SetupS);

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

Expected<RunResult> runColdStart(const RunOptions &Opts);
Expected<RunResult> runFleetRestore(const RunOptions &Opts);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HARNESS_H
