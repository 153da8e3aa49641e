//===- perfbench/harness/FleetRestore.cpp - The fleet_restore workload ----===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fleet restarting against one provisioning server: an open loop of
/// remote-mode restores of the fleet app at one fixed offered rate, evenly
/// spaced. Each request is timed from the moment it was due, so a stall
/// also charges every request queued behind it, and the generator reports
/// how late it ran. The seed drives the client's keys. Arrivals are not
/// Poisson: with seeded exponential gaps, the quartile spread of the p90
/// latency over ten seeds reached 0.38 of its median.
///
/// One client thread sends every request, one connection at a time, and
/// the server has one worker: with the reactor's own thread that is three
/// busy threads on the 4-core machine the settings were tuned on, which
/// leaves a core for everything else. There is no idle ballast and no
/// HELLO-BATCH: the client sends exactly the frames the restorer sends.
///
//===----------------------------------------------------------------------===//

#include "harness/Harness.h"

#include "support/Stats.h"

#include <thread>

using namespace perfbench;

namespace {

/// On a shared 4-core x86-64 VM, one client thread in a closed loop made
/// ~310 restores/s, and a restore sent on its own took ~4.8 ms (~200/s).
/// Settings with more load or more threads swung with the machine's slow
/// phases; see perfbench/README.md.
constexpr double OfferedPerSec = 80;
/// A restore later than this after its due time counts as a miss. About
/// four times the p90, so goodput (ops_per_s) stays pinned at the offered
/// rate and falls past its bound only when the server or client collapses.
constexpr double LatencyLimitMs = 20;
/// A 40 s run makes 3200 restores; p99 has enough beyond it but swings
/// with the machine's slow phases far more than p90 does.
constexpr double TailQ = 0.90;
/// A traced run alternates blocks of this many traced and untraced
/// arrivals; the difference of their medians is the tracing overhead.
constexpr size_t TraceBlock = 64;

using Clock = std::chrono::steady_clock;

struct Outcome {
  double DueMs = 0;   ///< From due time to completion.
  double SentMs = 0;  ///< From send time to completion.
  double LateMs = 0;  ///< How late the generator started it.
  bool Ok = false;
  bool Traced = false;
};

} // namespace

Expected<RunResult> perfbench::runFleetRestore(const RunOptions &Opts) {
  Tracer T;
  T.setEnabled(Opts.Trace);
  double SetupS = 0;
  ELIDE_TRY(std::unique_ptr<Harness> H,
            setUpRepeated(Opts.Seed, T, SetupS));
  Target &Tg = H->target(FleetApp, SecretStorage::Remote);
  ELIDE_TRY(std::unique_ptr<sgx::Enclave> E, H->loadSanitized(Tg));
  FleetClient Client(*H, std::move(E), Opts.Seed * 31 + 1);
  TcpClientTransport Tcp("127.0.0.1", Tg.Reactor->port());
  TracingTransport Traced(Tcp, T);
  ReactorStats Before = Tg.Reactor->stats();

  auto Ms = [](Clock::duration D) {
    return std::chrono::duration<double, std::milli>(D).count();
  };
  std::vector<Outcome> Outcomes;
  Clock::time_point Start = Clock::now();
  for (size_t K = 0; K * 1000 / OfferedPerSec < Opts.Seconds * 1000; ++K) {
    Clock::time_point DueAt =
        Start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(
                        static_cast<double>(K) * 1000 / OfferedPerSec));
    std::this_thread::sleep_until(DueAt);
    Outcome O;
    O.Traced = Opts.Trace && (K / TraceBlock) % 2 == 0;
    Clock::time_point Sent = Clock::now();
    O.Ok = O.Traced ? Client.restore(Traced, &T) : Client.restore(Tcp, nullptr);
    Clock::time_point Done = Clock::now();
    O.DueMs = Ms(Done - DueAt);
    O.SentMs = Ms(Done - Sent);
    O.LateMs = Ms(Sent - DueAt);
    Outcomes.push_back(O);
  }
  double Elapsed =
      std::chrono::duration<double>(Clock::now() - Start).count();
  ReactorStats After = Tg.Reactor->stats();

  RunResult R;
  std::vector<double> DueMs, SentMs, LateMs, TracedMs, UntracedMs;
  size_t Good = 0;
  for (const Outcome &O : Outcomes) {
    ++R.Attempted;
    LateMs.push_back(O.LateMs);
    if (!O.Ok) {
      ++R.Failed;
      continue;
    }
    DueMs.push_back(O.DueMs);
    SentMs.push_back(O.SentMs);
    (O.Traced ? TracedMs : UntracedMs).push_back(O.DueMs);
    Good += O.DueMs <= LatencyLimitMs;
  }
  if (R.Failed)
    R.Notes.push_back(std::to_string(R.Failed) + " fleet restores failed");

  R.extra("fleet.offered_per_s", OfferedPerSec, "1/s");
  R.extra("fleet.latency_limit_ms", LatencyLimitMs, "ms");
  R.extra("fleet.peak_connections",
          static_cast<double>(After.MaxConcurrentConnections), "count");
  R.extra("fleet.completed_per_s", static_cast<double>(DueMs.size()) / Elapsed,
          "1/s");
  R.extra("fleet.generator_late_p50_ms", median(LateMs), "ms");
  R.extra("fleet.generator_late_p99_ms", quantile(LateMs, 0.99), "ms");
  R.extra("fleet.generator_late_max_ms", quantile(LateMs, 1.0), "ms");
  R.extra("fleet_p99_ms", quantile(DueMs, 0.99), "ms");
  R.extra("fleet_goodput_per_s", static_cast<double>(Good) / Elapsed, "1/s");
  R.extra("fleet.frames_served",
          static_cast<double>(After.FramesServed - Before.FramesServed),
          "count");

  if (!Opts.Trace) {
    reportEndToEnd(R, "fleet", DueMs, TailQ, "fleet_sent", SentMs,
                   static_cast<double>(Good) / Elapsed, SetupS);
    return R;
  }
  if (Error E = reportTraced(R, T, *H, "fleet.restore", TracedMs,
                             UntracedMs, Opts))
    return E;
  return R;
}
