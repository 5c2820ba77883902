#include "svc/protocol.h"

#include <gtest/gtest.h>

#include <string>
#include <variant>
#include <vector>

namespace netd::svc {
namespace {

probe::Mesh sample_mesh() {
  probe::Mesh mesh;
  probe::TracePath p0;
  p0.src = 0;
  p0.dst = 1;
  p0.ok = true;
  p0.hops = {
      {"s0", graph::NodeKind::kSensor, 4, topo::RouterId{}},
      {"AS0:r1", graph::NodeKind::kRouter, 0, topo::RouterId{7}},
      {"*3", graph::NodeKind::kUnidentified, -1, topo::RouterId{}},
      {"AS5|AS6", graph::NodeKind::kLogical, -1, topo::RouterId{}},
      {"s1", graph::NodeKind::kSensor, 5, topo::RouterId{}},
  };
  p0.links = {topo::LinkId{3}, topo::LinkId{9}};
  probe::TracePath p1;
  p1.src = 1;
  p1.dst = 0;
  p1.ok = false;
  p1.hops = {{"s1", graph::NodeKind::kSensor, 5, topo::RouterId{}}};
  mesh.paths = {std::move(p0), std::move(p1)};
  return mesh;
}

core::ControlPlaneObs sample_cp() {
  core::ControlPlaneObs cp;
  cp.igp_down_keys = {"AS0:r1-AS0:r2"};
  cp.withdrawals.push_back({"AS3>AS4", 5});
  cp.withdrawals.push_back({"AS4>AS3", 4});
  return cp;
}

const char kDiagnosisDoc[] =
    R"({"links":[{"link":"a-b","score":1.5,"round":2,"logical":false}]})";

/// The tentpole wire property: serialize -> parse -> serialize must be
/// byte-identical. Checked below once per message type, both directions.
std::string reserialized(const Request& req) {
  const std::string frame = serialize(req);
  std::string error;
  const auto parsed = parse_request(frame, &error);
  EXPECT_TRUE(parsed.has_value()) << frame << ": " << error;
  EXPECT_EQ(parsed->index(), req.index());
  return parsed ? serialize(*parsed) : "";
}

std::string reserialized(const Response& rsp) {
  const std::string frame = serialize(rsp);
  std::string error;
  const auto parsed = parse_response(frame, &error);
  EXPECT_TRUE(parsed.has_value()) << frame << ": " << error;
  EXPECT_EQ(parsed->index(), rsp.index());
  return parsed ? serialize(*parsed) : "";
}

TEST(Protocol, EveryRequestTypeRoundTripsByteIdentical) {
  SessionConfig cfg;
  cfg.alarm_threshold = 3;
  cfg.algo = "nd-edge";
  cfg.granularity = "per-prefix";
  const std::vector<Request> requests = {
      HelloRequest{"noc-1", cfg, std::nullopt},
      SetBaselineRequest{"noc-1", sample_mesh(), std::nullopt},
      ObserveRequest{"noc-1", sample_mesh(), sample_cp()},
      ObserveRequest{"noc-1", sample_mesh(), std::nullopt},
      ObserveRequest{"noc-1", sample_mesh(), std::nullopt, 17},
      ObserveBatchRequest{"noc-1", "sensor-0", {}, std::nullopt},
      ObserveBatchRequest{
          "noc-1",
          "sensor-0",
          {ObserveItem{4, sample_mesh(), std::nullopt, std::nullopt},
           ObserveItem{5, sample_mesh(), sample_cp(), std::nullopt}},
          std::nullopt},
      QueryRequest{"noc-1", std::nullopt},
      StatsRequest{},
      MetricsRequest{},
      ShutdownRequest{},
  };
  for (const Request& req : requests) {
    EXPECT_EQ(reserialized(req), serialize(req));
  }
}

TEST(Protocol, EveryResponseTypeRoundTripsByteIdentical) {
  SessionConfig cfg;
  const std::vector<Response> responses = {
      ErrorResponse{"no such session 'x'"},
      ErrorResponse{"resend", kErrBadFrame},
      ErrorResponse{"busy", kErrOverloaded, 250},
      ErrorResponse{"hello first", kErrUnknownSession},
      ErrorResponse{"no baseline yet", kErrNoBaseline},
      HelloResponse{"noc-1", true, cfg},
      HelloResponse{"noc-1", false, cfg, 3},  // durable server's epoch
      SetBaselineResponse{90},
      ObserveResponse{4, true, std::string(kDiagnosisDoc)},
      ObserveResponse{2, false, std::nullopt},
      ObserveBatchResponse{9, 3, 2, 9, true, std::string(kDiagnosisDoc)},
      ObserveBatchResponse{0, 0, 0, 0, false, std::nullopt},
      QueryResponse{4, std::string(kDiagnosisDoc)},
      QueryResponse{0, std::nullopt},
      StatsResponse{R"({"connections":1,"ops":{}})"},
      MetricsResponse{"# TYPE a counter\na 1\n"},
      ShutdownResponse{},
  };
  for (const Response& rsp : responses) {
    EXPECT_EQ(reserialized(rsp), serialize(rsp));
  }
}

TEST(Protocol, EpochZeroIsOmittedFromHelloFrames) {
  // Ephemeral servers serialize exactly the pre-durability frame, so the
  // wire format of an undurable deployment is byte-for-byte unchanged.
  SessionConfig cfg;
  const std::string ephemeral = serialize(Response{HelloResponse{"s", true,
                                                                 cfg}});
  EXPECT_EQ(ephemeral.find("epoch"), std::string::npos) << ephemeral;
  const std::string durable =
      serialize(Response{HelloResponse{"s", true, cfg, 2}});
  EXPECT_NE(durable.find("\"epoch\":2"), std::string::npos) << durable;
  std::string error;
  const auto parsed = parse_response(durable, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(std::get<HelloResponse>(*parsed).epoch, 2u);
}

TEST(Protocol, RequestFramesCarryVersionAndOp) {
  const std::string frame = serialize(Request{QueryRequest{"s", std::nullopt}});
  const auto j = Json::parse(frame);
  ASSERT_TRUE(j.has_value());
  ASSERT_NE(j->find("v"), nullptr);
  EXPECT_EQ(j->find("v")->as_int(), kProtocolVersion);
  ASSERT_NE(j->find("op"), nullptr);
  EXPECT_EQ(j->find("op")->as_string(), "query");
}

TEST(Protocol, MeshCodecPreservesEveryField) {
  const probe::Mesh mesh = sample_mesh();
  std::string error;
  const auto back = mesh_from_json(mesh_to_json(mesh), &error);
  ASSERT_TRUE(back.has_value()) << error;
  ASSERT_EQ(back->paths.size(), mesh.paths.size());
  for (std::size_t i = 0; i < mesh.paths.size(); ++i) {
    const auto& a = mesh.paths[i];
    const auto& b = back->paths[i];
    EXPECT_EQ(a.src, b.src);
    EXPECT_EQ(a.dst, b.dst);
    EXPECT_EQ(a.ok, b.ok);
    ASSERT_EQ(a.hops.size(), b.hops.size());
    for (std::size_t k = 0; k < a.hops.size(); ++k) {
      EXPECT_EQ(a.hops[k].label, b.hops[k].label);
      EXPECT_EQ(a.hops[k].kind, b.hops[k].kind);
      EXPECT_EQ(a.hops[k].asn, b.hops[k].asn);
      EXPECT_EQ(a.hops[k].router, b.hops[k].router);
    }
    EXPECT_EQ(a.links, b.links);
  }
}

TEST(Protocol, ControlPlaneCodecRoundTrips) {
  const core::ControlPlaneObs cp = sample_cp();
  std::string error;
  const auto back = cp_from_json(cp_to_json(cp), &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(back->igp_down_keys, cp.igp_down_keys);
  ASSERT_EQ(back->withdrawals.size(), cp.withdrawals.size());
  for (std::size_t i = 0; i < cp.withdrawals.size(); ++i) {
    EXPECT_EQ(back->withdrawals[i].directed_key, cp.withdrawals[i].directed_key);
    EXPECT_EQ(back->withdrawals[i].dest_asn, cp.withdrawals[i].dest_asn);
  }
}

TEST(Protocol, SessionConfigValidatesOnParse) {
  SessionConfig cfg;
  std::string error;
  EXPECT_TRUE(session_config_from_json(session_config_to_json(cfg), &error)
                  .has_value());

  cfg.algo = "nd-lg";  // needs a Looking Glass; not exposed over the wire
  EXPECT_FALSE(session_config_from_json(session_config_to_json(cfg), &error)
                   .has_value());
  EXPECT_FALSE(error.empty());

  cfg = SessionConfig{};
  cfg.granularity = "sideways";
  EXPECT_FALSE(session_config_from_json(session_config_to_json(cfg), &error)
                   .has_value());
}

TEST(Protocol, ParseRequestRejectsHostileFrames) {
  for (const std::string& bad : std::vector<std::string>{
           std::string("not json at all"),
           std::string("{}"),                                // no version/op
           std::string(R"({"v":2,"op":"query","session":"s"})"),  // bad version
           std::string(R"({"v":1,"op":"frobnicate"})"),      // unknown op
           std::string(R"({"v":1,"op":"hello"})"),           // missing fields
           std::string(R"({"v":1,"op":"observe","session":"s"})"),  // no mesh
           // A path that worked but has no hops: nothing to diagnose on.
           std::string(R"({"v":1,"op":"set_baseline","session":"s","mesh":)"
                       R"({"paths":[{"src":0,"dst":1,"ok":true,"hops":[],)"
                       R"("links":[]}]}})"),
           std::string(R"([1,2,3])"),                        // not an object
       }) {
    std::string error;
    EXPECT_FALSE(parse_request(bad, &error).has_value()) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(Protocol, ParseBatchRejectsHostileFrames) {
  // A valid batch frame to mutate: serialize one, then break invariants.
  const std::string good = serialize(Request{ObserveBatchRequest{
      "noc-1",
      "sensor-0",
      {ObserveItem{3, sample_mesh(), std::nullopt, std::nullopt}},
      std::nullopt}});
  std::string error;
  ASSERT_TRUE(parse_request(good, &error).has_value()) << error;
  ASSERT_NE(good.find(R"("op":"observe_batch")"), std::string::npos)
      << "batched observe must travel under the observe_batch op: " << good;

  auto mutate = [&](const std::string& from, const std::string& to) {
    std::string frame = good;
    const auto at = frame.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    frame.replace(at, from.size(), to);
    return frame;
  };

  // seq 0 is reserved (watermarks start below every real record).
  EXPECT_FALSE(parse_request(mutate(R"("seq":3)", R"("seq":0)"), &error)
                   .has_value());
  EXPECT_FALSE(error.empty());
  // A batch without a source has no watermark to advance.
  EXPECT_FALSE(parse_request(mutate(R"("src":"sensor-0",)", ""), &error)
                   .has_value());

  // Non-strictly-increasing seqs are rejected whole — a shuffled or
  // duplicated batch must never half-apply.
  const Request twice = ObserveBatchRequest{
      "noc-1",
      "sensor-0",
      {ObserveItem{5, sample_mesh(), std::nullopt, std::nullopt},
       ObserveItem{5, sample_mesh(), std::nullopt, std::nullopt}},
      std::nullopt};
  EXPECT_FALSE(parse_request(serialize(twice), &error).has_value());
  EXPECT_NE(error.find("strictly increasing"), std::string::npos) << error;
  const Request backwards = ObserveBatchRequest{
      "noc-1",
      "sensor-0",
      {ObserveItem{5, sample_mesh(), std::nullopt, std::nullopt},
       ObserveItem{4, sample_mesh(), std::nullopt, std::nullopt}},
      std::nullopt};
  EXPECT_FALSE(parse_request(serialize(backwards), &error).has_value());
}

TEST(Protocol, UnsignedFieldsAreDigitsOnlyAndRangeChecked) {
  const std::string good =
      serialize(Request{ObserveRequest{"s", sample_mesh(), std::nullopt, 3}});
  auto with = [&](const std::string& from, const std::string& to) {
    std::string frame = good;
    const auto at = frame.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    frame.replace(at, from.size(), to);
    return frame;
  };
  std::string error;
  ASSERT_TRUE(parse_request(good, &error).has_value()) << error;
  // A seq of 0 sits at every watermark's floor and would always read as
  // applied, as batch items already reject. The others are not integers,
  // or not unsigned 64-bit ones.
  for (const std::string seq :
       {"0", "1.5", "1e3", "-0", "-1", "18446744073709551616"}) {
    error.clear();
    EXPECT_FALSE(
        parse_request(with(R"("seq":3)", R"("seq":)" + seq), &error)
            .has_value())
        << seq;
    EXPECT_FALSE(error.empty()) << seq;
  }
  // -0 is not zero even where zero is legal, as a path's src.
  EXPECT_FALSE(
      parse_request(with(R"("src":0)", R"("src":-0)"), &error).has_value());
  // Link and router ids are 32-bit, and all ones means "no id".
  for (const std::string links : {"[3,4294967296]", "[3,4294967295]"}) {
    EXPECT_FALSE(parse_request(with(R"("links":[3,9])", R"("links":)" + links),
                               &error)
                     .has_value())
        << links;
  }
  for (const std::string router : {"4294967296", "-2", "7.0"}) {
    EXPECT_FALSE(parse_request(with(R"("r",0,7])", R"("r",0,)" + router + "]"),
                               &error)
                     .has_value())
        << router;
  }
  // The whole unsigned 64-bit range round-trips.
  const Request max_seq =
      ObserveRequest{"s", sample_mesh(), std::nullopt, UINT64_MAX};
  EXPECT_EQ(reserialized(max_seq), serialize(max_seq));
  const auto parsed = parse_request(serialize(max_seq), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(std::get<ObserveRequest>(*parsed).seq, UINT64_MAX);
}

TEST(Protocol, AsNumbersAndTheVersionAreStrictIntegers) {
  const std::string good = serialize(
      Request{ObserveRequest{"s", sample_mesh(), sample_cp(), 3}});
  auto with = [&](const std::string& from, const std::string& to) {
    std::string frame = good;
    const auto at = frame.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    frame.replace(at, from.size(), to);
    return frame;
  };
  std::string error;
  ASSERT_TRUE(parse_request(good, &error).has_value()) << error;
  // A hop's AS: a cast would read 4294967300 as AS 4 and 4.7 as AS 4,
  // blaming another AS.
  for (const std::string asn : {"4294967300", "4.7", "2147483648",
                                "-2147483649", "1e0", "0.0"}) {
    error.clear();
    EXPECT_FALSE(
        parse_request(with(R"("r",0,7])", R"("r",)" + asn + ",7]"), &error)
            .has_value())
        << asn;
    EXPECT_NE(error.find("asn"), std::string::npos) << asn << ": " << error;
  }
  // A withdrawal's destination AS, likewise (4294967301 read as AS 5).
  for (const std::string asn : {"4294967301", "5.0", "-2147483649"}) {
    error.clear();
    EXPECT_FALSE(parse_request(with(R"("AS3>AS4",5])",
                                    R"("AS3>AS4",)" + asn + "]"),
                               &error)
                     .has_value())
        << asn;
    EXPECT_NE(error.find("dest_asn"), std::string::npos) << asn << ": "
                                                         << error;
  }
  // The int range's ends are AS numbers like any other.
  for (const std::string asn : {"2147483647", "-2147483648"}) {
    const auto parsed =
        parse_request(with(R"("r",0,7])", R"("r",)" + asn + ",7]"), &error);
    ASSERT_TRUE(parsed.has_value()) << asn << ": " << error;
    EXPECT_EQ(std::to_string(
                  std::get<ObserveRequest>(*parsed).mesh.paths[0].hops[1].asn),
              asn);
  }
  // The version is exactly 1, in requests and in responses.
  const std::string rsp = serialize(Response{QueryResponse{0, std::nullopt}});
  for (const std::string v : {"1.9", "1e0", "1.0", "-1", "\"1\""}) {
    error.clear();
    EXPECT_FALSE(parse_request(with(R"("v":1)", R"("v":)" + v), &error)
                     .has_value())
        << v;
    EXPECT_NE(error.find("'v'"), std::string::npos) << v << ": " << error;
    std::string frame = rsp;
    frame.replace(frame.find(R"("v":1)"), 5, R"("v":)" + v);
    error.clear();
    EXPECT_FALSE(parse_response(frame, &error).has_value()) << v;
    EXPECT_FALSE(error.empty()) << v;
  }
}

TEST(Protocol, ParseResponseRejectsHostileFrames) {
  for (const std::string& bad : std::vector<std::string>{
           std::string(""),
           std::string(R"({"v":1})"),            // no ok
           std::string(R"({"v":1,"ok":true})"),  // no op
           std::string(R"({"v":1,"ok":false})"), // error without message
       }) {
    std::string error;
    EXPECT_FALSE(parse_response(bad, &error).has_value()) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(Protocol, EmbeddedDiagnosisSurvivesVerbatim) {
  const Response rsp = ObserveResponse{1, true, std::string(kDiagnosisDoc)};
  const std::string frame = serialize(rsp);
  std::string error;
  const auto parsed = parse_response(frame, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  const auto* obs = std::get_if<ObserveResponse>(&*parsed);
  ASSERT_NE(obs, nullptr);
  ASSERT_TRUE(obs->diagnosis.has_value());
  EXPECT_EQ(*obs->diagnosis, kDiagnosisDoc);
}

}  // namespace
}  // namespace netd::svc
