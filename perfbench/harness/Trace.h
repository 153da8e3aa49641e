//===- perfbench/harness/Trace.h - Spans recorded -------------------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's tracer. Spans are recorded by the benchmark around its
/// calls into each layer's public functions (the program itself carries no
/// tracing yet), kept in memory, and written out when the run ends. Each
/// span has a name, start and end, the span that caused it (the innermost
/// open span on the same thread), and the restore it belongs to. Server
/// spans run on reactor worker threads; they carry the session id instead
/// and are joined to their client restore afterwards.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_TRACE_H
#define PERFBENCH_HARNESS_TRACE_H

#include "server/Reactor.h"
#include "server/Transport.h"

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace elide {
class AuthServer;
}

namespace perfbench {

/// Milliseconds on the steady clock since the process started.
double nowMs();

/// Frame kinds the round-trip and handle spans are split by.
enum class FrameKind : uint8_t { Hello, Record, Other };
const char *frameKindName(FrameKind K);
FrameKind frameKindOf(elide::BytesView Frame);

struct Span {
  std::string Name;
  std::string Tag; ///< Frame kind, app name, ...
  double StartMs = 0;
  double EndMs = 0;
  int64_t Id = -1;
  int64_t Parent = -1;
  int64_t RestoreId = -1;
  uint64_t Sid = 0;       ///< Session id (round-trip and server spans).
  uint64_t Bytes = 0;     ///< Bytes sent plus received (round trips).
  double QueueMs = 0;     ///< Reactor queue delay (server spans).
  uint64_t Count = 0;     ///< Instructions retired (restore, suite spans).
  int Attempts = 0;       ///< Transport attempts (round trips).
  bool Shed = false;      ///< Server answered OVERLOADED.

  double durationMs() const { return EndMs - StartMs; }
};

/// Collects spans while enabled. Thread-safe; a disabled tracer costs one
/// relaxed atomic load per would-be span.
class Tracer {
public:
  bool enabled() const { return Enabled.load(std::memory_order_relaxed); }
  void setEnabled(bool On) { Enabled.store(On, std::memory_order_relaxed); }

  /// Appends a finished span (assigning an id if it has none).
  void add(Span S);
  /// Reserves an id for a span that is still open (children name it as
  /// their parent before it ends).
  int64_t reserveId() { return NextId.fetch_add(1); }

  std::vector<Span> take();

private:
  std::atomic<bool> Enabled{false};
  std::atomic<int64_t> NextId{0};
  std::mutex Mutex;
  std::vector<Span> Spans; ///< Guarded by Mutex.
};

/// Sets the restore id that spans opened on this thread belong to.
class RestoreScope {
public:
  explicit RestoreScope(int64_t RestoreId);
  ~RestoreScope();
  RestoreScope(const RestoreScope &) = delete;
  RestoreScope &operator=(const RestoreScope &) = delete;

private:
  int64_t Saved;
};

/// Times one call into a layer. Records nothing when the tracer is null
/// or was disabled when the scope opened.
class SpanScope {
public:
  SpanScope(Tracer *T, const char *Name, std::string Tag = std::string());
  ~SpanScope();
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

  /// The open span (to fill in fields before it closes), or null.
  Span *span() { return Live ? &S : nullptr; }

private:
  Tracer *T = nullptr;
  bool Live = false;
  Span S;
};

/// Transport decorator: one "transport.round_trip" span per frame, with the
/// frame kind, session id, wire bytes and the TCP client's attempt count.
class TracingTransport : public elide::Transport {
public:
  TracingTransport(elide::TcpClientTransport &Inner, Tracer &T)
      : Inner(Inner), T(T) {}
  elide::Expected<elide::Bytes> roundTrip(elide::BytesView Request) override;

private:
  elide::TcpClientTransport &Inner;
  Tracer &T;
};

/// The reactor's frame handler: runs `AuthServer::handle` and, while \p T
/// is enabled, records a "server.handle" span carrying the frame kind, the
/// session id and the reactor's queue delay.
elide::ContextFrameHandler tracedHandler(elide::AuthServer &Server, Tracer &T);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_TRACE_H
