//===- perfbench/harness/ColdStart.cpp - The cold_start workload ----------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One client in a closed loop, paying what every deployment pays per
/// launch: load a fresh sanitized enclave, restore it with a fresh host
/// over loopback TCP (attestation, metadata and, in remote mode, the data
/// record), then relaunch it from that host's in-memory sealed blob. Both
/// launches are checked against the plain build. Iterations cycle through
/// all seven apps in both storage modes, each once per cycle, in an order
/// the seed shuffles; a run ends on a cycle boundary, so every run has the
/// same mix.
///
//===----------------------------------------------------------------------===//

#include "harness/Harness.h"

#include "support/Stats.h"

#include <cstdio>
#include <numeric>

using namespace perfbench;

namespace {

/// A 40 s run makes ~1800 cold starts. p98 would keep ~36 beyond it, but
/// its quartile spread over ten seeds was 0.28 of its median; p90 is
/// steadier on a shared machine.
constexpr double TailQ = 0.90;

} // namespace

Expected<RunResult> perfbench::runColdStart(const RunOptions &Opts) {
  Tracer T;
  T.setEnabled(Opts.Trace);
  double SetupS = 0;
  ELIDE_TRY(std::unique_ptr<Harness> H,
            setUpRepeated(Opts.Seed, T, SetupS));
  std::vector<Target> &Targets = H->targets();

  std::vector<std::unique_ptr<TcpClientTransport>> Tcp;
  std::vector<std::unique_ptr<TracingTransport>> Links;
  for (Target &Tg : Targets) {
    Tcp.push_back(
        std::make_unique<TcpClientTransport>("127.0.0.1", Tg.Reactor->port()));
    Links.push_back(std::make_unique<TracingTransport>(*Tcp.back(), T));
  }

  RunResult R;
  std::vector<double> ColdMs, WarmMs, TracedMs, UntracedMs;
  std::vector<size_t> Order(Targets.size());
  std::iota(Order.begin(), Order.end(), 0);
  Drbg Rng(Opts.Seed ^ 0xc01d5ULL);
  Timer Clock;
  for (size_t Cycle = 0; Clock.elapsedMs() < Opts.Seconds * 1000; ++Cycle) {
    for (size_t I = Order.size() - 1; I > 0; --I)
      std::swap(Order[I], Order[Rng.nextBelow(I + 1)]);
    // A traced run alternates traced and untraced cycles; the difference
    // of their medians is the tracing overhead.
    bool Traced = Opts.Trace && Cycle % 2 == 0;
    T.setEnabled(Traced);
    for (size_t Idx : Order) {
      Target &Tg = Targets[Idx];
      Probe P = H->makeProbe(*Tg.App, Rng);
      Transport *Link = Opts.Trace ? static_cast<Transport *>(Links[Idx].get())
                                   : Tcp[Idx].get();
      std::unique_ptr<ElideHost> Host = H->newHost(Tg, Link);
      R.Attempted += 2;
      Expected<Launch> Cold = H->launch(Tg, *Host, "elide.restore_cold");
      if (!Cold || !H->probeMatches(*Cold->E, Tg.App->Name, P)) {
        R.Failed += 2;
        R.Notes.push_back("cold start of " + Tg.label() + ": " +
                          (Cold ? "wrong output" : Cold.errorMessage()));
        continue;
      }
      Expected<Launch> Warm = H->launch(Tg, *Host, "elide.restore_warm");
      if (!Warm || !H->probeMatches(*Warm->E, Tg.App->Name, P)) {
        R.Failed += 1;
        R.Notes.push_back("warm start of " + Tg.label() + ": " +
                          (Warm ? "wrong output" : Warm.errorMessage()));
        continue;
      }
      ColdMs.push_back(Cold->Ms);
      WarmMs.push_back(Warm->Ms);
      (Traced ? TracedMs : UntracedMs).push_back(Cold->Ms);
    }
  }
  double Elapsed = Clock.elapsedMs() / 1000.0;

  if (!Opts.Trace) {
    reportEndToEnd(R, "cold_start", ColdMs, TailQ, "warm_start", WarmMs,
                   static_cast<double>(ColdMs.size() + WarmMs.size()) / Elapsed,
                   SetupS);
    return R;
  }
  if (Error E = reportTraced(R, T, *H, "elide.restore_cold", TracedMs,
                             UntracedMs, Opts))
    return E;
  return R;
}
