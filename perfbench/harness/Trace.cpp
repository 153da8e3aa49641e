//===- perfbench/harness/Trace.cpp - Spans recorded -----------------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "harness/Trace.h"

#include "server/AuthServer.h"
#include "server/Protocol.h"

#include <chrono>

using namespace elide;
using namespace perfbench;

namespace {

const auto Epoch = std::chrono::steady_clock::now();

thread_local int64_t CurrentRestore = -1;
thread_local std::vector<int64_t> OpenSpans;

/// Session id a frame exchange belongs to: client records name it, and a
/// HELLO-OK answer announces it.
uint64_t sessionOf(BytesView Request, BytesView Response) {
  if (frameKindOf(Request) == FrameKind::Record) {
    Expected<uint64_t> Sid = peekSessionId(Request);
    return Sid ? *Sid : 0;
  }
  if (Response.size() == HelloOkSize && Response[0] == FrameHello)
    return readLE64(Response.data() + 1);
  return 0;
}

} // namespace

double perfbench::nowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - Epoch)
      .count();
}

const char *perfbench::frameKindName(FrameKind K) {
  switch (K) {
  case FrameKind::Hello:
    return "hello";
  case FrameKind::Record:
    return "record";
  case FrameKind::Other:
    break;
  }
  return "other";
}

FrameKind perfbench::frameKindOf(BytesView Frame) {
  if (Frame.empty())
    return FrameKind::Other;
  if (Frame[0] == FrameHello)
    return FrameKind::Hello;
  if (Frame[0] == FrameRecord)
    return FrameKind::Record;
  return FrameKind::Other;
}

void Tracer::add(Span S) {
  if (S.Id < 0)
    S.Id = reserveId();
  std::lock_guard<std::mutex> Lock(Mutex);
  Spans.push_back(std::move(S));
}

std::vector<Span> Tracer::take() {
  std::lock_guard<std::mutex> Lock(Mutex);
  return std::move(Spans);
}

RestoreScope::RestoreScope(int64_t RestoreId) : Saved(CurrentRestore) {
  CurrentRestore = RestoreId;
}

RestoreScope::~RestoreScope() { CurrentRestore = Saved; }

SpanScope::SpanScope(Tracer *T, const char *Name, std::string Tag) : T(T) {
  if (!T || !T->enabled())
    return;
  Live = true;
  S.Name = Name;
  S.Tag = std::move(Tag);
  S.Id = T->reserveId();
  S.Parent = OpenSpans.empty() ? -1 : OpenSpans.back();
  S.RestoreId = CurrentRestore;
  OpenSpans.push_back(S.Id);
  S.StartMs = nowMs();
}

SpanScope::~SpanScope() {
  if (!Live)
    return;
  S.EndMs = nowMs();
  OpenSpans.pop_back();
  T->add(std::move(S));
}

Expected<Bytes> TracingTransport::roundTrip(BytesView Request) {
  SpanScope Scope(&T, "transport.round_trip",
                  frameKindName(frameKindOf(Request)));
  Expected<Bytes> Response = Inner.roundTrip(Request);
  if (Span *S = Scope.span()) {
    S->Attempts = Inner.lastAttempts();
    S->Bytes = Request.size() + (Response ? Response->size() : 0);
    S->Sid = sessionOf(Request, Response ? BytesView(*Response) : BytesView());
  }
  return Response;
}

ContextFrameHandler perfbench::tracedHandler(AuthServer &Server, Tracer &T) {
  return [&Server, &T](BytesView Request, const FrameContext &Ctx) {
    if (!T.enabled())
      return Server.handle(Request, Ctx);
    Span S;
    S.Name = "server.handle";
    S.Tag = frameKindName(frameKindOf(Request));
    S.QueueMs = Ctx.QueueDelayMs;
    S.StartMs = nowMs();
    Bytes Response = Server.handle(Request, Ctx);
    S.EndMs = nowMs();
    S.Sid = sessionOf(Request, Response);
    S.Shed = !Response.empty() && Response[0] == FrameOverloaded;
    T.add(std::move(S));
    return Response;
  };
}
