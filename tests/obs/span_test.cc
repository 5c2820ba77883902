// The tracing contract: span IDs derive only from (seed, position in the
// call tree), so the same workload traced twice — or with a different
// --threads setting — yields the same span tree; only timestamps differ.
#include "obs/span.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "exp/runner.h"
#include "util/atomic_file.h"
#include "util/json.h"

namespace netd::obs {
namespace {

TEST(SpanIds, RootContextIsPureFunctionOfSeedAndIndex) {
  const SpanContext a = Span::root_context(42, 3, 4);
  const SpanContext b = Span::root_context(42, 3, 4);
  EXPECT_EQ(a.trace_id, b.trace_id);
  EXPECT_EQ(a.span_id, b.span_id);
  EXPECT_EQ(a.lane, b.lane);
  EXPECT_TRUE(a.valid());
  // Different placement => different trace.
  const SpanContext c = Span::root_context(42, 4, 5);
  EXPECT_NE(a.trace_id, c.trace_id);
  // Different seed => different trace.
  const SpanContext d = Span::root_context(43, 3, 4);
  EXPECT_NE(a.trace_id, d.trace_id);
}

TEST(Span, NoSinkRecordsNothing) {
  {
    Span outer("outer");
    Span inner("inner");
  }
  EXPECT_TRUE(TraceSink::snapshot().empty());
  EXPECT_FALSE(TraceSink::active());
}

// Everything below records spans, which NETD_OBS=OFF compiles out.
#ifndef NETD_OBS_DISABLED

/// Everything about a span except its timing: the identity a
/// deterministic trace must reproduce exactly.
using Shape = std::tuple<std::string, std::uint64_t, std::uint64_t,
                         std::uint64_t, std::uint32_t>;

std::set<Shape> shape_of(const std::vector<TraceEvent>& events) {
  std::set<Shape> out;
  for (const auto& e : events) {
    out.insert({e.name, e.trace_id, e.span_id, e.parent_id, e.lane});
  }
  return out;
}

/// Installs the sink for one test body; uninstalls on scope exit so
/// tests cannot leak an active sink into each other.
class SinkScope {
 public:
  SinkScope() { TraceSink::install(); }
  ~SinkScope() { TraceSink::uninstall(); }
};

TEST(Span, AmbientNestingParentsChildren) {
  SinkScope sink;
  const SpanContext root = Span::root_context(7, 0, 1);
  {
    Span top("top", root, /*salt=*/0);
    Span mid("mid");
    Span leaf("leaf");
    EXPECT_EQ(Span::current().span_id, leaf.context().span_id);
  }
  const auto events = TraceSink::snapshot();
  ASSERT_EQ(events.size(), 3u);
  // Deterministic order is (lane, trace, span id); recover by name.
  const auto find = [&](const std::string& name) {
    const auto it = std::find_if(events.begin(), events.end(),
                                 [&](const TraceEvent& e) {
                                   return e.name == name;
                                 });
    EXPECT_NE(it, events.end()) << name;
    return *it;
  };
  const TraceEvent top = find("top");
  const TraceEvent mid = find("mid");
  const TraceEvent leaf = find("leaf");
  EXPECT_EQ(top.parent_id, root.span_id);
  EXPECT_EQ(mid.parent_id, top.span_id);
  EXPECT_EQ(leaf.parent_id, mid.span_id);
  EXPECT_EQ(top.trace_id, root.trace_id);
  EXPECT_EQ(mid.trace_id, root.trace_id);
  EXPECT_EQ(leaf.trace_id, root.trace_id);
  EXPECT_EQ(leaf.lane, root.lane);
}

TEST(Span, SiblingsWithSameNameGetDistinctIds) {
  SinkScope sink;
  {
    Span top("top", Span::root_context(7, 0, 1), 0);
    { Span a("child"); }
    { Span b("child"); }
  }
  const auto events = TraceSink::snapshot();
  ASSERT_EQ(events.size(), 3u);
  std::set<std::uint64_t> ids;
  for (const auto& e : events) ids.insert(e.span_id);
  EXPECT_EQ(ids.size(), 3u);
}

TEST(Span, CrossThreadExplicitParentIsThreadIndependent) {
  const auto run_on_worker = [](std::uint64_t salt) {
    std::set<Shape> shape;
    TraceSink::install();
    const SpanContext root = Span::root_context(9, 2, 3);
    std::thread worker([&] {
      Span s("work", root, salt);
      Span nested("step");  // nests ambiently under the explicit span
    });
    worker.join();
    shape = shape_of(TraceSink::snapshot());
    TraceSink::uninstall();
    return shape;
  };
  // Same salt, different thread each call: identical shapes.
  const auto a = run_on_worker(5);
  const auto b = run_on_worker(5);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 2u);
  // A different salt relocates the subtree.
  EXPECT_NE(a, run_on_worker(6));
}

exp::ScenarioConfig small_campaign(std::size_t threads) {
  exp::ScenarioConfig cfg;
  cfg.num_placements = 3;
  cfg.trials_per_placement = 2;
  cfg.seed = 2026;
  cfg.num_threads = threads;
  return cfg;
}

/// Span tree of the small campaign, scored by run() or, with `record`,
/// recorded by record_trace() into a string stream.
std::set<Shape> trace_campaign(std::size_t threads, bool record = false) {
  TraceSink::install();
  exp::Runner runner(small_campaign(threads));
  if (record) {
    std::ostringstream os;
    std::string error;
    const auto episodes = runner.record_trace(os, svc::SessionConfig{}, &error);
    EXPECT_TRUE(episodes.has_value() && *episodes > 0) << error;
  } else {
    const auto results =
        runner.run({exp::Algo::kTomo, exp::Algo::kNdEdge});
    EXPECT_FALSE(results.empty());
  }
  const auto shape = shape_of(TraceSink::snapshot());
  TraceSink::uninstall();
  return shape;
}

TEST(SpanDeterminism, SameSeedSameSpanTree) {
  const auto first = trace_campaign(1);
  const auto second = trace_campaign(1);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(SpanDeterminism, ThreadCountDoesNotChangeSpanTree) {
  const auto serial = trace_campaign(1);
  const auto parallel = trace_campaign(3);
  EXPECT_EQ(serial, parallel);
  // A recording replays each placement's episodes at its commit on the
  // calling thread, so the observe and solve spans of the replay nest
  // under the placement's commit span at every thread count.
  const auto serial_record = trace_campaign(1, /*record=*/true);
  EXPECT_EQ(serial_record, trace_campaign(3, /*record=*/true));
  const auto count = [&](const std::string& name) {
    return std::count_if(
        serial_record.begin(), serial_record.end(),
        [&](const Shape& s) { return std::get<0>(s) == name; });
  };
  EXPECT_EQ(count("checkpoint_commit"), 3);
  EXPECT_GT(count("observe"), 0);
}

TEST(SpanDeterminism, EveryPlacementHasARootedTrialSpan) {
  TraceSink::install();
  const auto cfg = small_campaign(1);
  exp::Runner runner(cfg);
  (void)runner.run({exp::Algo::kTomo});
  const auto events = TraceSink::snapshot();
  TraceSink::uninstall();
  for (std::size_t pl = 0; pl < cfg.num_placements; ++pl) {
    const SpanContext root = Span::root_context(
        cfg.seed, pl, static_cast<std::uint32_t>(pl + 1));
    bool placement_span = false;
    bool solve_span = false;
    for (const auto& e : events) {
      if (e.trace_id != root.trace_id) continue;
      placement_span |= e.name == "placement";
      solve_span |= e.name == "solve";
    }
    EXPECT_TRUE(placement_span) << "placement " << pl;
    EXPECT_TRUE(solve_span) << "placement " << pl;
  }
}

TEST(ChromeTrace, FileIsAValidEventArray) {
  const std::string path = ::testing::TempDir() + "/netd_obs_trace.json";
  TraceSink::install();
  {
    Span top("top", Span::root_context(1, 0, 1), 0);
    Span inner("inner");
  }
  std::string error;
  ASSERT_TRUE(TraceSink::write_chrome_trace(path, &error)) << error;
  TraceSink::uninstall();

  const auto text = util::read_file(path, &error);
  ASSERT_TRUE(text.has_value()) << error;
  const auto doc = util::Json::parse(*text, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  ASSERT_TRUE(doc->is_array());
  ASSERT_EQ(doc->size(), 2u);
  for (std::size_t i = 0; i < doc->size(); ++i) {
    const util::Json& ev = (*doc)[i];
    ASSERT_TRUE(ev.is_object());
    const util::Json* ph = ev.find("ph");
    ASSERT_NE(ph, nullptr);
    EXPECT_EQ(ph->as_string(), "X");  // complete events
    for (const char* key : {"pid", "tid", "ts", "dur"}) {
      const util::Json* v = ev.find(key);
      ASSERT_NE(v, nullptr) << key;
      EXPECT_TRUE(v->is_number()) << key;
    }
    ASSERT_NE(ev.find("name"), nullptr);
    const util::Json* args = ev.find("args");
    ASSERT_NE(args, nullptr);
    ASSERT_NE(args->find("id"), nullptr);
    ASSERT_NE(args->find("trace"), nullptr);
  }
}

TEST(ScopedParentAdoption, ParentsAmbientSpans) {
  SinkScope sink;
  const SpanContext root = Span::root_context(11, 0, 2);
  {
    ScopedParent adopt(root);
    Span child("adopted");
  }
  const auto events = TraceSink::snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].parent_id, root.span_id);
  EXPECT_EQ(events[0].trace_id, root.trace_id);
  EXPECT_EQ(events[0].lane, root.lane);
}

#endif  // NETD_OBS_DISABLED

}  // namespace
}  // namespace netd::obs
