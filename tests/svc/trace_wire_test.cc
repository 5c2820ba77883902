// The distributed-tracing wire surface: the optional `trace` field on
// every request verb, the per-item trace roots in batches, the `events`
// verb, and — most load-bearing — the guarantee that frames WITHOUT a
// trace serialize byte-identically to the pre-tracing protocol.
#include <gtest/gtest.h>

#include <string>
#include <variant>
#include <vector>

#include "obs/events.h"
#include "obs/trace_context.h"
#include "svc/protocol.h"

namespace netd::svc {
namespace {

probe::Mesh tiny_mesh() {
  probe::Mesh mesh;
  probe::TracePath p;
  p.src = 0;
  p.dst = 1;
  p.ok = true;
  p.hops = {{"s0", graph::NodeKind::kSensor, 4, topo::RouterId{}},
            {"s1", graph::NodeKind::kSensor, 5, topo::RouterId{}}};
  mesh.paths = {std::move(p)};
  return mesh;
}

std::string reserialized(const Request& req) {
  const std::string frame = serialize(req);
  std::string error;
  const auto parsed = parse_request(frame, &error);
  EXPECT_TRUE(parsed.has_value()) << frame << ": " << error;
  return parsed ? serialize(*parsed) : "";
}

/// Pre-tracing golden pins: a client that stamps no trace must emit
/// exactly the frames previous releases emitted. These strings are the
/// compatibility surface — do not regenerate them from the code.
TEST(TraceWire, TracelessFramesAreBytePinned) {
  EXPECT_EQ(serialize(Request{QueryRequest{"s", std::nullopt}}),
            R"({"v":1,"op":"query","session":"s"})");
  SessionConfig cfg;
  EXPECT_EQ(serialize(Request{HelloRequest{"s", cfg, std::nullopt}}),
            R"({"v":1,"op":"hello","session":"s","config":{"threshold":1,)"
            R"("algo":"nd-bgpigp","granularity":"per-neighbor"}})");
  EXPECT_EQ(serialize(Request{ObserveBatchRequest{"s", "a", {}, std::nullopt}}),
            R"({"v":1,"op":"observe_batch","session":"s","src":"a",)"
            R"("items":[]})");
}

TEST(TraceWire, TracelessFramesContainNoTraceKey) {
  const std::vector<Request> requests = {
      HelloRequest{"s", SessionConfig{}, std::nullopt},
      SetBaselineRequest{"s", tiny_mesh(), std::nullopt},
      ObserveRequest{"s", tiny_mesh(), std::nullopt, 3},
      ObserveBatchRequest{
          "s",
          "a",
          {ObserveItem{1, tiny_mesh(), std::nullopt, std::nullopt}},
          std::nullopt},
      QueryRequest{"s", std::nullopt},
  };
  for (const Request& req : requests) {
    EXPECT_EQ(serialize(req).find("\"trace\""), std::string::npos)
        << serialize(req);
    EXPECT_EQ(reserialized(req), serialize(req));
  }
}

TEST(TraceWire, TracedRequestsRoundTripByteIdentical) {
  const obs::TraceContext tc = obs::TraceContext::root(11, 4);
  ObserveRequest observe{"s", tiny_mesh(), std::nullopt, 3};
  observe.trace = tc;
  ObserveBatchRequest batch{
      "s", "a",
      {ObserveItem{1, tiny_mesh(), std::nullopt, tc},
       ObserveItem{2, tiny_mesh(), std::nullopt, tc.child("x", 2)}},
      std::nullopt};
  batch.trace = tc;
  const std::vector<Request> requests = {
      HelloRequest{"s", SessionConfig{}, tc},
      SetBaselineRequest{"s", tiny_mesh(), tc},
      observe,
      batch,
      QueryRequest{"s", tc},
  };
  for (const Request& req : requests) {
    const std::string frame = serialize(req);
    EXPECT_NE(frame.find("\"trace\""), std::string::npos) << frame;
    EXPECT_EQ(reserialized(req), frame);
  }
}

TEST(TraceWire, ParsedTraceCarriesTheIds) {
  const obs::TraceContext tc = obs::TraceContext::root(5, 9);
  const std::string frame = serialize(Request{QueryRequest{"s", tc}});
  std::string error;
  const auto parsed = parse_request(frame, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  const auto& q = std::get<QueryRequest>(*parsed);
  ASSERT_TRUE(q.trace.has_value());
  EXPECT_EQ(*q.trace, tc);
}

TEST(TraceWire, MalformedTraceIsRejectedNotIgnored) {
  std::string error;
  EXPECT_FALSE(parse_request(
      R"({"v":1,"op":"query","session":"s","trace":{"tid":"xx","sid":"0x1"}})",
      &error).has_value());
  EXPECT_FALSE(parse_request(
      R"({"v":1,"op":"query","session":"s","trace":"0x1"})", &error)
          .has_value());
  EXPECT_FALSE(parse_request(
      R"({"v":1,"op":"query","session":"s","trace":{"tid":"0x1"}})", &error)
          .has_value());
}

TEST(TraceWire, EventsVerbRoundTripsByteIdentical) {
  const std::string req_frame =
      serialize(Request{EventsRequest{17, 256}});
  std::string error;
  const auto parsed = parse_request(req_frame, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  const auto& er = std::get<EventsRequest>(*parsed);
  EXPECT_EQ(er.cursor, 17u);
  EXPECT_EQ(er.cap, 256u);
  EXPECT_EQ(serialize(*parsed), req_frame);

  EventsResponse rsp;
  rsp.next_cursor = 9;
  obs::Event slow;
  slow.seq = 8;
  slow.t_ms = 123;
  slow.kind = obs::EventKind::kSlowRequest;
  slow.detail = "observe";
  slow.trace_id = 0xbeef;
  slow.dur_us = 250000;
  obs::Event shed;  // no trace, no duration: both keys omitted
  shed.seq = 9;
  shed.t_ms = 130;
  shed.kind = obs::EventKind::kShed;
  shed.detail = "accept";
  rsp.events = {slow, shed};
  const std::string rsp_frame = serialize(Response{rsp});
  EXPECT_NE(rsp_frame.find("\"kind\":\"slow_request\""), std::string::npos)
      << rsp_frame;
  const auto rparsed = parse_response(rsp_frame, &error);
  ASSERT_TRUE(rparsed.has_value()) << error;
  EXPECT_EQ(serialize(*rparsed), rsp_frame);
  const auto& back = std::get<EventsResponse>(*rparsed);
  ASSERT_EQ(back.events.size(), 2u);
  EXPECT_EQ(back.next_cursor, 9u);
  EXPECT_EQ(back.events[0].trace_id, 0xbeefu);
  EXPECT_EQ(back.events[0].dur_us, 250000u);
  EXPECT_EQ(back.events[1].kind, obs::EventKind::kShed);
  EXPECT_EQ(back.events[1].trace_id, 0u);
  EXPECT_EQ(back.events[1].dur_us, 0u);
}

/// Redelivery determinism: the property the whole design leans on — an
/// agent that crashes and re-derives its items' traces from (seed, name,
/// seq) stamps the same ids, so the redelivered frame joins the original
/// trace instead of forking a new one.
TEST(TraceWire, RederivedItemTraceIsIdentical) {
  const std::uint64_t seed =
      obs::ids::combine(7, obs::ids::fnv1a("agent-3"));
  const obs::TraceContext first = obs::TraceContext::root(seed, 12);
  const obs::TraceContext again = obs::TraceContext::root(seed, 12);
  EXPECT_EQ(first, again);
}

}  // namespace
}  // namespace netd::svc
