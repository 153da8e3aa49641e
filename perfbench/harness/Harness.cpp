//===- perfbench/harness/Harness.cpp - Shared set-up and reporting --------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "harness/Harness.h"

#include "sgx/EnclaveLoader.h"
#include "support/Stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <tuple>
#include <unordered_map>

using namespace perfbench;

namespace {

std::atomic<int64_t> NextRestoreId{0};

} // namespace

std::string Target::label() const {
  return App->Name + (Mode == SecretStorage::Remote ? "/remote" : "/local");
}

//===----------------------------------------------------------------------===//
// Set-up
//===----------------------------------------------------------------------===//

Harness::Harness(uint64_t Seed, Tracer &T)
    : Seed(Seed), T(T),
      Device(std::make_unique<sgx::SgxDevice>(Seed * 2 + 1)),
      Authority(std::make_unique<sgx::AttestationAuthority>(Seed * 2 + 2)),
      Qe(std::make_unique<sgx::QuotingEnclave>(*Device, *Authority)) {}

Harness::~Harness() {
  // Stop the servers before the enclaves and hosts they may still reach.
  for (Target &Tg : Targets)
    if (Tg.Reactor)
      Tg.Reactor->stop();
}

Expected<std::unique_ptr<Harness>> Harness::setUp(uint64_t Seed, Tracer &T) {
  std::unique_ptr<Harness> H(new Harness(Seed, T));
  if (Error E = H->build())
    return E;
  if (Error E = H->warmUp())
    return E;
  return H;
}

Error Harness::build() {
  Drbg Rng(Seed ^ 0x5e7a9ULL);
  Ed25519Seed VendorSeed{};
  Rng.fill(MutableBytesView(VendorSeed.data(), VendorSeed.size()));
  Ed25519KeyPair Vendor = ed25519KeyPairFromSeed(VendorSeed);

  Targets.reserve(apps::allApps().size() * 2);
  for (const apps::AppSpec &App : apps::allApps()) {
    for (SecretStorage Mode : {SecretStorage::Remote, SecretStorage::Local}) {
      Target Tg;
      Tg.App = &App;
      Tg.Mode = Mode;
      Tg.Options.Storage = Mode;
      Tg.Options.RngSeed = Rng.next64();
      {
        SpanScope S(&T, "pipeline.build", Tg.label());
        Expected<BuildArtifacts> A =
            buildProtectedEnclave(App.TrustedSources, Vendor, Tg.Options);
        if (!A)
          return makeError("build of " + Tg.label() +
                           " failed: " + A.errorMessage());
        Tg.Artifacts = A.takeValue();
      }
      {
        // The Table 2 column, timed on its own: sanitize the plain build
        // again with the build's whitelist.
        Drbg SanitizeRng(Tg.Options.RngSeed);
        SpanScope S(&T, "elide.sanitize", Tg.label());
        Expected<SanitizedEnclave> San =
            sanitizeEnclave(Tg.Artifacts.PlainElf, Tg.Artifacts.Keep, Mode,
                            SanitizeRng);
        if (!San)
          return makeError("sanitize of " + Tg.label() +
                           " failed: " + San.errorMessage());
      }

      AuthServerConfig Config;
      Config.AuthorityKey = Authority->publicKey();
      ServerProvisioning P = provisioningFor(Tg.Artifacts, Tg.Options);
      Config.ExpectedMrEnclave = P.SanitizedMrEnclave;
      Config.ExpectedMrSigner = P.MrSigner;
      Config.Meta = Tg.Artifacts.Meta;
      if (Mode == SecretStorage::Remote)
        Config.SecretData = Tg.Artifacts.SecretData;
      Config.RngSeed = Rng.next64();
      Tg.Server = std::make_unique<AuthServer>(std::move(Config));

      ReactorConfig RC;
      RC.WorkerThreads = 1;
      Expected<std::unique_ptr<ReactorServer>> Reactor =
          ReactorServer::start(tracedHandler(*Tg.Server, T), RC);
      if (!Reactor)
        return makeError("server for " + Tg.label() +
                         " did not start: " + Reactor.errorMessage());
      Tg.Reactor = Reactor.takeValue();
      Targets.push_back(std::move(Tg));
    }

    Target &Tg = Targets[Targets.size() - 2];
    Expected<std::unique_ptr<sgx::Enclave>> E =
        sgx::loadEnclave(*Device, Tg.Artifacts.PlainElf, Tg.Artifacts.PlainSig,
                         Tg.Options.Layout);
    if (!E)
      return makeError("plain " + App.Name + " did not load: " +
                       E.errorMessage());
    auto Host = std::make_unique<ElideHost>(nullptr, Qe.get());
    Host->attach(**E);
    Plain[App.Name] = E.takeValue();
    PlainHosts.push_back(std::move(Host));
    if (!App.IsGame) {
      uint64_t Count = 0;
      if (Error Err = runSuite(App, *Plain[App.Name], Count))
        return makeError("plain " + App.Name + " suite failed: " +
                         Err.message());
      PlainSuite[App.Name] = Count;
    }
  }
  return Error::success();
}

Error Harness::warmUp() {
  Drbg Rng(Seed ^ 0x3a3aULL);
  for (Target &Tg : Targets) {
    TcpClientTransport Tcp("127.0.0.1", Tg.Reactor->port());
    TracingTransport Link(Tcp, T);
    std::unique_ptr<ElideHost> Host = newHost(Tg, &Link);
    for (const char *Kind : {"elide.restore_cold", "elide.restore_warm"}) {
      Expected<Launch> L = launch(Tg, *Host, Kind);
      if (!L)
        return makeError("warm-up " + std::string(Kind) + " of " +
                         Tg.label() + ": " + L.errorMessage());
      Probe P = makeProbe(*Tg.App, Rng);
      if (!probeMatches(*L->E, Tg.App->Name, P))
        return makeError("warm-up: " + Tg.label() +
                         " answers differently from the plain build");
      if (!Tg.App->IsGame && Tg.Mode == SecretStorage::Remote &&
          std::strcmp(Kind, "elide.restore_cold") == 0)
        Kernels.push_back({Tg.App, std::move(L->E), nullptr});
    }
    // The restored enclave's ocalls still reach this host.
    if (!Kernels.empty() && Kernels.back().App == Tg.App &&
        !Kernels.back().Host)
      Kernels.back().Host = std::move(Host);
  }

  // One suite rotation over the restored builds.
  {
    SpanScope Rotation(&T, "apps.rotation");
    uint64_t Total = 0;
    for (Kernel &K : Kernels) {
      uint64_t Count = 0;
      if (Error E = runSuite(*K.App, *K.E, Count))
        return makeError("warm-up suite of " + K.App->Name + ": " +
                         E.message());
      if (Count != plainSuiteInstructions(K.App->Name))
        return makeError("warm-up: restored " + K.App->Name +
                         " retires a different instruction count");
      Total += Count;
    }
    if (Span *S = Rotation.span())
      S->Count = Total;
  }

  // One fleet-style restore.
  Target &Fleet = target(FleetApp, SecretStorage::Remote);
  Expected<std::unique_ptr<sgx::Enclave>> E = loadSanitized(Fleet);
  if (!E)
    return makeError("fleet enclave did not load: " + E.errorMessage());
  FleetClient Client(*this, E.takeValue(), Seed ^ 0xf1ee7ULL);
  TcpClientTransport Tcp("127.0.0.1", Fleet.Reactor->port());
  TracingTransport Link(Tcp, T);
  if (!Client.restore(Link, &T))
    return makeError("warm-up fleet restore failed");
  return Error::success();
}

Expected<std::unique_ptr<sgx::Enclave>> Harness::loadSanitized(Target &Tg) {
  SpanScope S(&T, "sgx.load", Tg.label());
  return sgx::loadEnclave(*Device, Tg.Artifacts.SanitizedElf,
                          Tg.Artifacts.SanitizedSig, Tg.Options.Layout);
}

Target &Harness::target(const std::string &App, SecretStorage Mode) {
  for (Target &Tg : Targets)
    if (Tg.App->Name == App && Tg.Mode == Mode)
      return Tg;
  std::fprintf(stderr, "perfbench: no target %s\n", App.c_str());
  std::abort();
}

std::unique_ptr<ElideHost> Harness::newHost(Target &Tg, Transport *Link) {
  auto Host = std::make_unique<ElideHost>(Link, Qe.get());
  if (Tg.Mode == SecretStorage::Local)
    Host->setSecretDataFile(Tg.Artifacts.SecretData);
  return Host;
}

int64_t Harness::nextRestoreId() { return NextRestoreId.fetch_add(1); }

Expected<Launch> Harness::launch(Target &Tg, ElideHost &Host,
                                 const char *RestoreSpan) {
  RestoreScope Scope(nextRestoreId());
  Launch L;
  Timer Clock;
  Expected<std::unique_ptr<sgx::Enclave>> E = loadSanitized(Tg);
  if (!E)
    return makeError("load failed: " + E.errorMessage());
  L.E = E.takeValue();
  Host.attach(*L.E);
  uint64_t Before = L.E->instructionsRetired();
  Expected<uint64_t> Status = static_cast<uint64_t>(0);
  {
    SpanScope S(&T, RestoreSpan, Tg.label());
    Status = Host.restore(*L.E);
    if (Span *Open = S.span())
      Open->Count = L.E->instructionsRetired() - Before;
  }
  L.Ms = Clock.elapsedMs();
  if (!Status)
    return makeError("restore failed: " + Status.errorMessage());
  if (*Status != 0)
    return makeError(std::string("restore returned ") +
                     restoreStatusName(*Status));
  return L;
}

Probe Harness::makeProbe(const apps::AppSpec &App, Drbg &Rng) const {
  Probe P;
  const std::string &N = App.Name;
  if (N == "AES" || N == "DES") {
    size_t Block = N == "AES" ? 16 : 8;
    size_t Blocks = 1 + Rng.nextBelow(4);
    P.Ecall = N == "AES" ? "aes_run" : "des_run";
    P.Input.push_back(static_cast<uint8_t>(Rng.nextBelow(2)));
    appendBytes(P.Input, Rng.bytes(Block));
    appendBytes(P.Input, Rng.bytes(Blocks * Block));
    P.OutCap = Blocks * Block;
  } else if (N == "Sha1") {
    P.Ecall = "sha1_run";
    P.Input = Rng.bytes(Rng.nextBelow(257));
    P.OutCap = 20;
  } else if (N == "Shas") {
    uint8_t Algo = static_cast<uint8_t>(Rng.nextBelow(2));
    P.Ecall = "shas_run";
    P.Input.push_back(Algo);
    appendBytes(P.Input, Rng.bytes(Rng.nextBelow(257)));
    P.OutCap = Algo ? 64 : 32;
  } else if (N == "2048" || N == "Biniax") {
    P.Ecall = N == "2048" ? "g2048_play" : "binx_play";
    appendLE64(P.Input, Rng.next64());
    appendLE64(P.Input, 20 + Rng.nextBelow(40));
    appendLE64(P.Input, Rng.nextBelow(17));
    P.OutCap = N == "2048" ? 40 : 24;
  } else {
    P.Ecall = "crk_check";
    P.Input = Rng.bytes(6 + Rng.nextBelow(7));
    P.OutCap = 0;
  }
  return P;
}

bool Harness::probeMatches(sgx::Enclave &E, const std::string &App,
                           const Probe &P) {
  Expected<sgx::EcallResult> Got = E.ecall(P.Ecall, P.Input, P.OutCap);
  Expected<sgx::EcallResult> Want =
      Plain.at(App)->ecall(P.Ecall, P.Input, P.OutCap);
  return Got && Want && Got->ok() && Want->ok() &&
         Got->status() == Want->status() && Got->Output == Want->Output;
}

Error Harness::runSuite(const apps::AppSpec &App, sgx::Enclave &E,
                        uint64_t &Instructions) {
  uint64_t Before = E.instructionsRetired();
  SpanScope S(&T, "apps.suite", App.Name);
  Error Result = App.RunWorkload(E);
  Instructions = E.instructionsRetired() - Before;
  if (Span *Open = S.span())
    Open->Count = Instructions;
  return Result;
}

ReactorStats Harness::serverTotals() const {
  ReactorStats Sum;
  for (const Target &Tg : Targets) {
    ReactorStats S = Tg.Reactor->stats();
    Sum.ConnectionsAccepted += S.ConnectionsAccepted;
    Sum.FramesServed += S.FramesServed;
  }
  return Sum;
}

Expected<std::unique_ptr<Harness>>
perfbench::setUpRepeated(uint64_t Seed, Tracer &T, double &SetupS) {
  std::vector<double> Seconds;
  std::unique_ptr<Harness> Last;
  for (int I = 0; I < SetUpRuns; ++I) {
    Last.reset();
    Timer Clock;
    Expected<std::unique_ptr<Harness>> H = Harness::setUp(Seed, T);
    if (!H)
      return H.takeError();
    Seconds.push_back(Clock.elapsedMs() / 1000.0);
    Last = H.takeValue();
  }
  SetupS = median(Seconds);
  // Writing "5" to clear_refs resets VmHWM to the current RSS (Linux 4.0
  // and later), so peak_rss_mb covers the workload, not the set-ups.
  std::ofstream ClearRefs("/proc/self/clear_refs");
  if (!(ClearRefs << "5" << std::flush))
    return makeError("cannot reset the peak RSS via /proc/self/clear_refs");
  return Last;
}

//===----------------------------------------------------------------------===//
// Fleet client
//===----------------------------------------------------------------------===//

FleetClient::FleetClient(Harness &H, std::unique_ptr<sgx::Enclave> Enclave,
                         uint64_t Seed)
    : H(H), Tg(H.target(FleetApp, SecretStorage::Remote)),
      Enclave(std::move(Enclave)), Rng(Seed) {}

bool FleetClient::restore(Transport &Link, Tracer *T) {
  RestoreScope Scope(H.nextRestoreId());
  SpanScope Top(T, "fleet.restore", Tg.label());

  X25519Key Priv{};
  Rng.fill(MutableBytesView(Priv.data(), Priv.size()));
  X25519Key Pub{};
  {
    SpanScope S(T, "client.x25519");
    Pub = x25519PublicKey(Priv);
  }

  Bytes Hello{FrameHello};
  {
    SpanScope S(T, "client.quote");
    sgx::ReportData Rd{};
    std::memcpy(Rd.data(), Pub.data(), Pub.size());
    sgx::Report R = Enclave->createReport(H.qe().targetInfo(), Rd);
    Expected<sgx::Quote> Q = H.qe().quoteReport(R);
    if (!Q)
      return false;
    appendBytes(Hello, Q->serialize());
  }
  Expected<Bytes> Ok = Link.roundTrip(Hello);
  if (!Ok || Ok->size() != HelloOkSize || (*Ok)[0] != FrameHello)
    return false;
  uint64_t Sid = readLE64(Ok->data() + 1);
  X25519Key ServerPub{};
  std::memcpy(ServerPub.data(), Ok->data() + 1 + SessionIdSize, 32);

  SessionKeys Keys;
  {
    SpanScope S(T, "client.x25519");
    Keys = deriveSessionKeys(x25519(Priv, ServerPub), Pub, ServerPub);
  }

  auto Fetch = [&](uint8_t Code) -> Expected<Bytes> {
    ELIDE_TRY(Bytes Frame,
              sealSessionRecord(Sid, Keys.ClientToServer, Bytes{Code}, Rng));
    ELIDE_TRY(Bytes Response, Link.roundTrip(Frame));
    SpanScope S(T, "client.gcm_open");
    return openRecord(Keys.ServerToClient, Response);
  };
  Expected<Bytes> MetaBytes = Fetch(RequestMeta);
  if (!MetaBytes)
    return false;
  Expected<SecretMeta> Meta = SecretMeta::deserialize(*MetaBytes);
  if (!Meta || Meta->DataLength != Tg.Artifacts.SecretData.size())
    return false;
  Expected<Bytes> Data = Fetch(RequestData);
  return Data && *Data == Tg.Artifacts.SecretData;
}

//===----------------------------------------------------------------------===//
// Reporting
//===----------------------------------------------------------------------===//

double perfbench::quantile(std::vector<double> Samples, double Q) {
  if (Samples.empty())
    return 0;
  std::sort(Samples.begin(), Samples.end());
  double Rank = std::ceil(Q * static_cast<double>(Samples.size()));
  size_t Idx = Rank < 1 ? 0 : static_cast<size_t>(Rank) - 1;
  return Samples[std::min(Idx, Samples.size() - 1)];
}

double perfbench::median(std::vector<double> Samples) {
  if (Samples.empty())
    return 0;
  std::sort(Samples.begin(), Samples.end());
  size_t N = Samples.size();
  return N % 2 ? Samples[N / 2] : (Samples[N / 2 - 1] + Samples[N / 2]) / 2;
}

double perfbench::peakRssMb() {
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::stod(Line.substr(6)) / 1024.0;
  return 0;
}

void perfbench::reportEndToEnd(RunResult &R, const std::string &OpName,
                               const std::vector<double> &OpMs, double TailQ,
                               const std::string &AuxName,
                               const std::vector<double> &AuxMs,
                               double OpsPerSec, double SetupS) {
  double P50 = median(OpMs), Tail = quantile(OpMs, TailQ);
  double Aux = median(AuxMs);
  R.add("setup_s", SetupS, "s");
  R.add("peak_rss_mb", peakRssMb(), "MB");
  R.add("p50_ms", P50, "ms");
  R.add("tail_ms", Tail, "ms");
  R.add("aux_p50_ms", Aux, "ms");
  R.add("ops_per_s", OpsPerSec, "1/s");

  char Pct[16];
  std::snprintf(Pct, sizeof(Pct), "p%g", TailQ * 100);
  R.extra(OpName + "_p50_ms", P50, "ms");
  R.extra(OpName + "_" + Pct + "_ms", Tail, "ms");
  R.extra(OpName + "_samples", static_cast<double>(OpMs.size()), "count");
  R.extra(OpName + "_samples_beyond_" + Pct,
          static_cast<double>(OpMs.size()) * (1 - TailQ), "count");
  R.extra(OpName + "_p25_ms", quantile(OpMs, 0.25), "ms");
  R.extra(AuxName + "_p50_ms", Aux, "ms");
  R.extra(AuxName + "_p25_ms", quantile(AuxMs, 0.25), "ms");
  R.extra(AuxName + "_samples", static_cast<double>(AuxMs.size()), "count");
  R.extra("failed_ratio",
          R.Attempted ? static_cast<double>(R.Failed) /
                            static_cast<double>(R.Attempted)
                      : 0,
          "ratio");
}

namespace {

/// Joins each server span to the client round trip of the same frame:
/// same session, same frame kind, same position in that session's frames
/// of that kind. Fills the server span's restore id and returns, per
/// joined pair, rtt - handle - queue.
std::vector<double> joinServerSpans(std::vector<Span> &Spans) {
  using Key = std::tuple<uint64_t, std::string, int>;
  std::map<Key, const Span *> Client;
  std::map<std::pair<uint64_t, std::string>, int> Ordinal;
  std::vector<size_t> Order(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I)
    Order[I] = I;
  std::sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
    return Spans[A].StartMs < Spans[B].StartMs;
  });
  for (size_t I : Order) {
    const Span &S = Spans[I];
    if (S.Name == "transport.round_trip" && S.Sid)
      Client[{S.Sid, S.Tag, Ordinal[{S.Sid, S.Tag}]++}] = &S;
  }
  Ordinal.clear();
  std::vector<double> Wire;
  for (size_t I : Order) {
    Span &S = Spans[I];
    if (S.Name != "server.handle" || !S.Sid)
      continue;
    auto It = Client.find({S.Sid, S.Tag, Ordinal[{S.Sid, S.Tag}]++});
    if (It == Client.end())
      continue;
    S.RestoreId = It->second->RestoreId;
    S.Parent = It->second->Id;
    Wire.push_back(It->second->durationMs() - S.durationMs() - S.QueueMs);
  }
  return Wire;
}

void reportPerLayer(RunResult &R, std::vector<Span> &Spans,
                    const std::string &PrimaryRestore,
                    const ReactorStats &Server, double TracedP50,
                    double UntracedP50) {
  std::vector<double> Wire = joinServerSpans(Spans);

  auto Durations = [&](const std::string &Name, const std::string &Tag) {
    std::vector<double> Out;
    for (const Span &S : Spans)
      if (S.Name == Name && (Tag.empty() || S.Tag == Tag))
        Out.push_back(S.durationMs());
    return Out;
  };
  auto MedianOf = [&](const std::string &Name, const std::string &Tag = "") {
    return median(Durations(Name, Tag));
  };

  // Per-restore sums of child spans, keyed by restore id.
  std::unordered_map<int64_t, double> QuoteMs, X25519Ms, OpenMs;
  std::unordered_map<int64_t, uint64_t> Frames, WireBytes;
  std::unordered_map<int64_t, double> RttUnderSpan;
  double Attempts = 0, RoundTrips = 0, Shed = 0, Handled = 0;
  std::vector<double> Queue;
  for (const Span &S : Spans) {
    if (S.Name == "transport.round_trip") {
      RttUnderSpan[S.Parent] += S.durationMs();
      ++Frames[S.RestoreId];
      WireBytes[S.RestoreId] += S.Bytes;
      Attempts += S.Attempts;
      ++RoundTrips;
    } else if (S.Name == "client.quote") {
      QuoteMs[S.RestoreId] += S.durationMs();
    } else if (S.Name == "client.x25519") {
      X25519Ms[S.RestoreId] += S.durationMs();
    } else if (S.Name == "client.gcm_open") {
      OpenMs[S.RestoreId] += S.durationMs();
    } else if (S.Name == "server.handle") {
      Queue.push_back(S.QueueMs);
      Shed += S.Shed;
      ++Handled;
    }
  }
  auto PerRestore = [](const std::unordered_map<int64_t, double> &M) {
    std::vector<double> Out;
    for (const auto &[Id, V] : M)
      Out.push_back(V);
    return median(Out);
  };

  std::vector<double> Self, Rtt;
  double ColdSum = 0, SelfSum = 0, RttSum = 0;
  uint64_t RestoreInstr = 0, ColdCount = 0;
  uint64_t PrimaryCount = 0, PrimaryFrames = 0, PrimaryBytes = 0;
  uint64_t RotationInstr = 0, Rotations = 0;
  double SuiteInstr = 0, SuiteMs = 0;
  for (const Span &S : Spans) {
    if (S.Name == "elide.restore_cold") {
      double Children = RttUnderSpan.count(S.Id) ? RttUnderSpan[S.Id] : 0;
      Self.push_back(S.durationMs() - Children);
      Rtt.push_back(Children);
      ColdSum += S.durationMs();
      SelfSum += S.durationMs() - Children;
      RttSum += Children;
      RestoreInstr += S.Count;
      ++ColdCount;
    }
    if (S.Name == PrimaryRestore) {
      ++PrimaryCount;
      PrimaryFrames += Frames.count(S.RestoreId) ? Frames[S.RestoreId] : 0;
      PrimaryBytes += WireBytes.count(S.RestoreId) ? WireBytes[S.RestoreId] : 0;
    }
    if (S.Name == "apps.rotation") {
      RotationInstr += S.Count;
      ++Rotations;
    }
    if (S.Name == "apps.suite") {
      SuiteInstr += static_cast<double>(S.Count);
      SuiteMs += S.durationMs();
    }
  }
  auto Ratio = [](double A, double B) { return B ? A / B : 0; };

  R.add("sgx.load_ms", MedianOf("sgx.load"), "ms");
  R.add("elide.restore_cold_ms", MedianOf("elide.restore_cold"), "ms");
  R.add("elide.restore_self_ms", median(Self), "ms");
  R.add("elide.restore_rtt_ms", median(Rtt), "ms");
  R.add("elide.restore_warm_ms", MedianOf("elide.restore_warm"), "ms");
  R.add("vm.restore_instructions",
        Ratio(static_cast<double>(RestoreInstr), double(ColdCount)), "count");
  R.add("server.rtt_ms.hello", MedianOf("transport.round_trip", "hello"), "ms");
  R.add("server.rtt_ms.record", MedianOf("transport.round_trip", "record"),
        "ms");
  R.add("server.handle_ms.hello", MedianOf("server.handle", "hello"), "ms");
  R.add("server.handle_ms.record", MedianOf("server.handle", "record"), "ms");
  R.add("server.queue_ms", median(Queue), "ms");
  R.add("server.wire_ms", median(Wire), "ms");
  R.add("server.connections_per_frame",
        Ratio(static_cast<double>(Server.ConnectionsAccepted),
              static_cast<double>(Server.FramesServed)),
        "ratio");
  R.add("server.attempts_per_frame", Ratio(Attempts, RoundTrips), "ratio");
  R.add("server.frames_per_restore",
        Ratio(static_cast<double>(PrimaryFrames),
              static_cast<double>(PrimaryCount)),
        "count");
  R.add("server.bytes_per_restore",
        Ratio(static_cast<double>(PrimaryBytes),
              static_cast<double>(PrimaryCount)),
        "bytes");
  R.add("server.shed_ratio", Ratio(Shed, Handled), "ratio");
  R.add("client.quote_ms", PerRestore(QuoteMs), "ms");
  R.add("client.x25519_ms", PerRestore(X25519Ms), "ms");
  R.add("client.gcm_open_ms", PerRestore(OpenMs), "ms");
  R.add("vm.kernel_instructions",
        Ratio(static_cast<double>(RotationInstr),
              static_cast<double>(Rotations)),
        "count");
  R.add("vm.kernel_mips", Ratio(SuiteInstr, SuiteMs) / 1000.0, "M/s");
  for (const apps::AppSpec &App : apps::allApps())
    if (!App.IsGame)
      R.add("apps." + App.Name + ".suite_ms", MedianOf("apps.suite", App.Name),
            "ms");
  R.add("pipeline.build_ms", MedianOf("pipeline.build"), "ms");
  R.add("elide.sanitize_ms", MedianOf("elide.sanitize"), "ms");
  R.add("trace.overhead_ms", TracedP50 - UntracedP50, "ms");

  R.extra("trace.overhead_pct",
          UntracedP50 ? 100.0 * (TracedP50 - UntracedP50) / UntracedP50 : 0,
          "%");
  R.extra("elide.restore_cold_mean_ms", Ratio(ColdSum, double(ColdCount)),
          "ms");
  R.extra("elide.restore_self_mean_ms", Ratio(SelfSum, double(ColdCount)),
          "ms");
  R.extra("elide.restore_rtt_mean_ms", Ratio(RttSum, double(ColdCount)), "ms");
  R.extra("elide.restore_accounted_pct",
          100.0 * Ratio(SelfSum + RttSum, ColdSum), "%");
  R.extra("trace.spans", static_cast<double>(Spans.size()), "count");
  R.extra("trace.restores", static_cast<double>(PrimaryCount), "count");
}

Error writeSpans(const std::string &Path, const std::vector<Span> &Spans) {
  std::ofstream Out(Path);
  if (!Out)
    return makeError("cannot write " + Path);
  char Buf[512];
  for (const Span &S : Spans) {
    std::snprintf(Buf, sizeof(Buf),
                  "{\"id\":%lld,\"parent\":%lld,\"restore\":%lld,"
                  "\"name\":\"%s\",\"tag\":\"%s\",\"start_ms\":%.6f,"
                  "\"end_ms\":%.6f,\"sid\":%llu,\"bytes\":%llu,"
                  "\"queue_ms\":%.6f,\"attempts\":%d,\"count\":%llu,"
                  "\"shed\":%s}\n",
                  static_cast<long long>(S.Id),
                  static_cast<long long>(S.Parent),
                  static_cast<long long>(S.RestoreId), S.Name.c_str(),
                  S.Tag.c_str(), S.StartMs, S.EndMs,
                  static_cast<unsigned long long>(S.Sid),
                  static_cast<unsigned long long>(S.Bytes), S.QueueMs,
                  S.Attempts, static_cast<unsigned long long>(S.Count),
                  S.Shed ? "true" : "false");
    Out << Buf;
  }
  Out.close();
  return Out ? Error::success() : makeError("short write to " + Path);
}

} // namespace

Error perfbench::reportTraced(RunResult &R, Tracer &T, const Harness &H,
                              const std::string &PrimaryRestore,
                              const std::vector<double> &TracedMs,
                              const std::vector<double> &UntracedMs,
                              const RunOptions &Opts) {
  T.setEnabled(false);
  std::vector<Span> Spans = T.take();
  reportPerLayer(R, Spans, PrimaryRestore, H.serverTotals(), median(TracedMs),
                 median(UntracedMs));
  return Opts.TraceOut.empty() ? Error::success()
                               : writeSpans(Opts.TraceOut, Spans);
}
