#include "obs/span.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>

#include "obs/trace_context.h"
#include "util/atomic_file.h"
#include "util/json.h"

namespace netd::obs {

namespace {

// The ID derivation lives in obs/trace_context.{h,cc} so the wire layer
// shares it; span.cc is just a consumer.

struct SinkState {
  std::mutex mu;
  bool installed = false;
  std::vector<TraceEvent> events;
  std::chrono::steady_clock::time_point epoch;
};

SinkState& sink_state() {
  static SinkState* s = new SinkState();  // leaked: outlives everything
  return *s;
}

/// One relaxed load on every Span construction; flipped under the mutex.
std::atomic<bool>& sink_active_flag() {
  static std::atomic<bool> active{false};
  return active;
}

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - sink_state().epoch)
      .count();
}

thread_local std::vector<Span::Frame*> tls_stack;

std::string hex_id(std::uint64_t id) { return format_trace_id(id); }

}  // namespace

// ---------------------------------------------------------------------------
// TraceSink.

void TraceSink::install() {
  SinkState& s = sink_state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.events.clear();
  s.epoch = std::chrono::steady_clock::now();
  s.installed = true;
  sink_active_flag().store(true, std::memory_order_release);
}

bool TraceSink::active() {
  return sink_active_flag().load(std::memory_order_relaxed);
}

void TraceSink::uninstall() {
  SinkState& s = sink_state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.installed = false;
  s.events.clear();
  sink_active_flag().store(false, std::memory_order_release);
}

void TraceSink::emit(TraceEvent ev) {
  SinkState& s = sink_state();
  std::lock_guard<std::mutex> lock(s.mu);
  if (!s.installed) return;
  s.events.push_back(std::move(ev));
}

namespace {

/// Deterministic presentation order: IDs are seed-derived, so sorting by
/// them (not by wall-clock) makes the written file byte-identical across
/// runs except for the ts/dur values.
void sort_events(std::vector<TraceEvent>& evs) {
  std::sort(evs.begin(), evs.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.lane != b.lane) return a.lane < b.lane;
              if (a.trace_id != b.trace_id) return a.trace_id < b.trace_id;
              if (a.span_id != b.span_id) return a.span_id < b.span_id;
              return a.name < b.name;
            });
}

}  // namespace

std::vector<TraceEvent> TraceSink::snapshot() {
  SinkState& s = sink_state();
  std::vector<TraceEvent> out;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    out = s.events;
  }
  sort_events(out);
  return out;
}

bool TraceSink::write_chrome_trace(const std::string& path,
                                   std::string* error) {
  std::vector<TraceEvent> evs = snapshot();
  std::string out = "[\n";
  char buf[160];
  bool first = true;
  for (const TraceEvent& ev : evs) {
    if (!first) out += ",\n";
    first = false;
    out += "{\"ph\":\"X\",\"pid\":1,\"tid\":";
    util::append_json_uint(out, ev.lane);
    out += ",\"name\":";
    util::append_json_string(out, ev.name);
    std::snprintf(buf, sizeof(buf), ",\"ts\":%.3f,\"dur\":%.3f", ev.start_us,
                  ev.dur_us);
    out += buf;
    out += ",\"args\":{\"trace\":\"";
    out += hex_id(ev.trace_id);
    out += "\",\"id\":\"";
    out += hex_id(ev.span_id);
    out += "\",\"parent\":\"";
    out += hex_id(ev.parent_id);
    out += "\"}}";
  }
  out += "\n]\n";
  return util::atomic_write_file(path, out, error);
}

// ---------------------------------------------------------------------------
// Span.

SpanContext Span::root_context(std::uint64_t seed, std::uint64_t index,
                               std::uint32_t lane) {
  const TraceContext root = TraceContext::root(seed, index);
  SpanContext ctx;
  ctx.trace_id = root.trace_id;
  ctx.span_id = root.span_id;
  ctx.lane = lane;
  return ctx;
}

SpanContext Span::current() {
  if (tls_stack.empty()) return SpanContext{};
  return tls_stack.back()->ctx;
}

void Span::open(const char* name, const SpanContext& parent,
                std::uint64_t salt, int lane_override) {
#ifndef NETD_OBS_DISABLED
  if (!TraceSink::active() || !parent.valid()) return;
  name_ = name;
  parent_id_ = parent.span_id;
  frame_.ctx.trace_id = parent.trace_id;
  frame_.ctx.span_id = ids::derive_child(parent.span_id, name, salt);
  frame_.ctx.lane =
      lane_override >= 0 ? static_cast<std::uint32_t>(lane_override)
                         : parent.lane;
  start_us_ = now_us();
  recording_ = true;
  tls_stack.push_back(&frame_);
#else
  (void)name;
  (void)parent;
  (void)salt;
  (void)lane_override;
#endif
}

Span::Span(const char* name) {
#ifndef NETD_OBS_DISABLED
  if (!TraceSink::active() || tls_stack.empty()) return;
  Frame* parent = tls_stack.back();
  open(name, parent->ctx, parent->next_child++, -1);
#else
  (void)name;
#endif
}

Span::Span(const char* name, const SpanContext& parent, std::uint64_t salt,
           int lane_override) {
  open(name, parent, salt, lane_override);
}

Span::~Span() {
#ifndef NETD_OBS_DISABLED
  if (!recording_) return;
  // LIFO scope discipline makes this the top frame; tolerate (and repair)
  // a violation rather than corrupting the stack.
  if (!tls_stack.empty() && tls_stack.back() == &frame_) {
    tls_stack.pop_back();
  } else {
    auto it = std::find(tls_stack.rbegin(), tls_stack.rend(), &frame_);
    if (it != tls_stack.rend()) tls_stack.erase(std::next(it).base());
  }
  TraceEvent ev;
  ev.name = name_;
  ev.trace_id = frame_.ctx.trace_id;
  ev.span_id = frame_.ctx.span_id;
  ev.parent_id = parent_id_;
  ev.lane = frame_.ctx.lane;
  ev.start_us = start_us_;
  ev.dur_us = now_us() - start_us_;
  TraceSink::emit(std::move(ev));
#endif
}

// ---------------------------------------------------------------------------
// ScopedParent.

ScopedParent::ScopedParent(const SpanContext& ctx) {
#ifndef NETD_OBS_DISABLED
  if (!TraceSink::active() || !ctx.valid()) return;
  frame_.ctx = ctx;
  tls_stack.push_back(&frame_);
  pushed_ = true;
#else
  (void)ctx;
#endif
}

ScopedParent::~ScopedParent() {
#ifndef NETD_OBS_DISABLED
  if (!pushed_) return;
  if (!tls_stack.empty() && tls_stack.back() == &frame_) {
    tls_stack.pop_back();
  } else {
    auto it = std::find(tls_stack.rbegin(), tls_stack.rend(), &frame_);
    if (it != tls_stack.rend()) tls_stack.erase(std::next(it).base());
  }
#endif
}

}  // namespace netd::obs
