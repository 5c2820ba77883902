#include "core/json_export.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <string>

#include "core/algorithms.h"
#include "mesh_builder.h"
#include "util/json.h"

namespace netd::core {
namespace {

using core::testing::MeshBuilder;

AlgorithmOutput simple_case() {
  const auto before = MeshBuilder()
                          .ok(0, 1, {"s0@1!s", "a@1", "b@1", "s1@1!s"})
                          .ok(0, 2, {"s0@1!s", "a@1", "c@1", "s2@1!s"})
                          .build();
  const auto after = MeshBuilder()
                         .fail(0, 1, {"s0@1!s"})
                         .ok(0, 2, {"s0@1!s", "a@1", "c@1", "s2@1!s"})
                         .build();
  return run_tomo(before, after);
}

TEST(JsonExport, SummaryFields) {
  const auto out = simple_case();
  const auto json = to_json(out.graph, out.result);
  EXPECT_NE(json.find("\"pairs\":2"), std::string::npos);
  EXPECT_NE(json.find("\"failed\":1"), std::string::npos);
  EXPECT_NE(json.find("\"rerouted\":0"), std::string::npos);
  EXPECT_NE(json.find("\"unexplained_failure_sets\":0"), std::string::npos);
}

TEST(JsonExport, HypothesisEntries) {
  const auto out = simple_case();
  const auto json = to_json(out.graph, out.result);
  EXPECT_NE(json.find("\"link\":\"a|b\""), std::string::npos);
  EXPECT_NE(json.find("\"score\":1"), std::string::npos);
  EXPECT_NE(json.find("\"ases\":[1]"), std::string::npos);
  EXPECT_NE(json.find("\"implicated_ases\":[1]"), std::string::npos);
}

TEST(JsonExport, BalancedBracesAndQuotes) {
  const auto out = simple_case();
  const auto json = to_json(out.graph, out.result);
  int depth = 0;
  std::size_t quotes = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '"' && (i == 0 || json[i - 1] != '\\')) {
      in_string = !in_string;
      ++quotes;
    }
    if (in_string) continue;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_EQ(quotes % 2, 0u);
  EXPECT_FALSE(in_string);
}

TEST(JsonExport, LogicalFlagSurfaces) {
  const auto before =
      MeshBuilder()
          .ok(0, 1, {"s0@1!s", "a@1", "b@2", "c@3", "s1@3!s"})
          .ok(0, 2, {"s0@1!s", "a@1", "b@2", "d@4", "s2@4!s"})
          .build();
  const auto after =
      MeshBuilder()
          .fail(0, 1, {"s0@1!s", "a@1"})
          .ok(0, 2, {"s0@1!s", "a@1", "b@2", "d@4", "s2@4!s"})
          .build();
  const auto out = run_nd_edge(before, after);
  const auto json = to_json(out.graph, out.result);
  EXPECT_NE(json.find("\"logical\":true"), std::string::npos);
}

TEST(JsonExport, GoldenBytes) {
  // The whole document, byte for byte: fractional, integral and
  // IGP-confirmed (infinite) scores, round -1, logical and unidentified
  // links, AS lists, and a router label that needs escaping.
  const std::string odd = "q\"\\\x01";
  const auto before =
      MeshBuilder()
          .ok(0, 1, {"s0@1!s", "a@1", odd + "@2", "c@3", "s1@3!s"})
          .ok(0, 2, {"s0@1!s", "a@1", odd + "@2", "d@4", "s2@4!s"})
          .ok(0, 3, {"s0@1!s", "a@1", "u", "e@5", "s3@5!s"})
          .build();
  const auto after =
      MeshBuilder()
          .fail(0, 1, {"s0@1!s", "a@1"})
          .ok(0, 2, {"s0@1!s", "a@1", odd + "@2", "d@4", "s2@4!s"})
          .fail(0, 3, {"s0@1!s", "a@1"})
          .build();
  auto out = run_nd_edge(before, after);
  // Blame every edge, and rank four links by hand: one per branch of the
  // score writer.
  Result& r = out.result;
  r.hypothesis_edges.clear();
  std::set<std::string> keys;
  for (std::uint32_t e = 0; e < out.graph.g.num_edges(); ++e) {
    r.hypothesis_edges.push_back(graph::EdgeId{e});
    keys.insert(out.graph.info(graph::EdgeId{e}).phys_key);
  }
  auto key = keys.begin();
  r.ranked = {{*key++, std::numeric_limits<double>::infinity(), -1},
              {*key++, 2.5, 0},
              {*key++, 1.0 / 3.0, 1},
              {*key++, 4.0, 2}};
  r.unexplained_failure_sets = 1;
  r.unknown_as_links = 2;

  const std::string doc = to_json(out.graph, r);
  EXPECT_EQ(doc,
            R"({"pairs":3,"failed":2,"rerouted":0,"probed_links":9,)"
            R"("unexplained_failure_sets":1,"unknown_as_links":2,)"
            R"("hypothesis":[)"
            R"({"link":"a|q\"\\\u0001","score":"igp-confirmed","round":-1,)"
            R"("logical":true,"unidentified":false,"ases":[1,2]},)"
            R"({"link":"a|s0","score":2.5,"round":0,)"
            R"("logical":false,"unidentified":false,"ases":[1]},)"
            R"({"link":"a|u","score":0.333333,"round":1,)"
            R"("logical":false,"unidentified":true,"ases":[1]},)"
            R"({"link":"c|q\"\\\u0001","score":4,"round":2,)"
            R"("logical":true,"unidentified":false,"ases":[2,3]}],)"
            R"("implicated_ases":[1,2,3,5]})");
  // parse_response splices the document into frames and relies on this.
  const auto parsed = util::Json::parse(doc);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->dump(), doc);
}

}  // namespace
}  // namespace netd::core
