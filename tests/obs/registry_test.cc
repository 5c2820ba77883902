#include "obs/registry.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace netd::obs {
namespace {

// ---------------------------------------------------------------------------
// Minimal Prometheus text-format parser, used to prove the renderer's
// output is machine-readable: every non-comment line must be
// `name{labels} value`, every family must be preceded by a # TYPE line,
// and histogram bucket series must be cumulative.

struct ParsedLine {
  std::string name;    ///< metric name, labels stripped
  std::string labels;  ///< raw {...} text ("" when absent)
  double value = 0.0;
};

struct ParsedExposition {
  std::vector<ParsedLine> lines;
  std::vector<std::string> typed_families;  ///< names with a # TYPE line
};

/// Strict-enough parse; returns false (with `error`) on the first
/// malformed line.
bool parse_exposition(const std::string& text, ParsedExposition* out,
                      std::string* error) {
  std::istringstream is(text);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty()) {
      *error = "blank line " + std::to_string(lineno);
      return false;
    }
    if (line[0] == '#') {
      std::istringstream ls(line);
      std::string hash, kind, family;
      ls >> hash >> kind >> family;
      if (kind != "HELP" && kind != "TYPE") {
        *error = "bad comment on line " + std::to_string(lineno);
        return false;
      }
      if (kind == "TYPE") {
        // Real Prometheus parsers reject a second TYPE line for the same
        // family; enforce the same here so interleaved families fail.
        for (const auto& f : out->typed_families) {
          if (f == family) {
            *error = "duplicate TYPE for " + family + " on line " +
                     std::to_string(lineno);
            return false;
          }
        }
        out->typed_families.push_back(family);
      }
      continue;
    }
    const auto sp = line.rfind(' ');
    if (sp == std::string::npos || sp == 0 || sp + 1 >= line.size()) {
      *error = "no value on line " + std::to_string(lineno);
      return false;
    }
    ParsedLine p;
    std::string series = line.substr(0, sp);
    const auto brace = series.find('{');
    if (brace != std::string::npos) {
      if (series.back() != '}') {
        *error = "unterminated labels on line " + std::to_string(lineno);
        return false;
      }
      p.labels = series.substr(brace);
      series.resize(brace);
    }
    p.name = std::move(series);
    const std::string vtext = line.substr(sp + 1);
    if (vtext == "+Inf") {
      p.value = std::numeric_limits<double>::infinity();
    } else {
      char* end = nullptr;
      p.value = std::strtod(vtext.c_str(), &end);
      if (end == nullptr || *end != '\0') {
        *error = "bad value '" + vtext + "' on line " + std::to_string(lineno);
        return false;
      }
    }
    out->lines.push_back(std::move(p));
  }
  return true;
}

TEST(Counter, IncrementsAndReads) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, LastWriteWins) {
  Gauge g;
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  g.set(3.5);
  g.set(-1.25);
  EXPECT_DOUBLE_EQ(g.value(), -1.25);
}

TEST(ShardedHistogram, SnapshotMergesAllShards) {
  Histogram h(1.0, 2.0, 16);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < 100; ++i) h.observe(static_cast<double>(t + 1));
    });
  }
  for (auto& t : threads) t.join();
  const util::Histogram merged = h.snapshot();
  EXPECT_EQ(merged.count(), 800u);
  EXPECT_DOUBLE_EQ(merged.min(), 1.0);
  EXPECT_DOUBLE_EQ(merged.max(), 8.0);
}

TEST(Registry, SameNameAndLabelsReturnsSameInstrument) {
  Registry r;
  Counter& a = r.counter("reqs_total", "requests");
  Counter& b = r.counter("reqs_total", "requests");
  EXPECT_EQ(&a, &b);
  a.inc();
  EXPECT_EQ(b.value(), 1u);
}

TEST(Registry, DifferentLabelsAreDistinctSeries) {
  Registry r;
  Counter& a = r.counter("reqs_total", "requests", {{"op", "query"}});
  Counter& b = r.counter("reqs_total", "requests", {{"op", "observe"}});
  EXPECT_NE(&a, &b);
  a.inc(3);
  EXPECT_EQ(b.value(), 0u);
}

TEST(Registry, CollectIsSortedByNameThenLabels) {
  Registry r;
  r.counter("z_total", "").inc();
  r.counter("a_total", "", {{"op", "b"}}).inc();
  r.counter("a_total", "", {{"op", "a"}}).inc();
  const auto samples = r.collect();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].name, "a_total");
  EXPECT_EQ(samples[0].labels[0].second, "a");
  EXPECT_EQ(samples[1].name, "a_total");
  EXPECT_EQ(samples[1].labels[0].second, "b");
  EXPECT_EQ(samples[2].name, "z_total");
}

TEST(Render, CounterAndGaugeExactText) {
  Registry r;
  r.counter("netd_x_total", "Things counted").inc(7);
  r.gauge("netd_margin_ms", "Margin", {{"kind", "soft"}}).set(2.5);
  const std::string text = render_prometheus(r.collect());
  EXPECT_EQ(text,
            "# HELP netd_margin_ms Margin\n"
            "# TYPE netd_margin_ms gauge\n"
            "netd_margin_ms{kind=\"soft\"} 2.5\n"
            "# HELP netd_x_total Things counted\n"
            "# TYPE netd_x_total counter\n"
            "netd_x_total 7\n");
}

TEST(Render, HistogramBucketsAreCumulative) {
  Registry r;
  Histogram& h = r.histogram("lat_us", "Latency", {}, 1.0, 2.0, 8);
  h.observe(1.0);
  h.observe(3.0);   // bucket edge 4
  h.observe(3.5);   // bucket edge 4
  h.observe(1e6);   // overflow (largest edge is 128)
  const std::string text = render_prometheus(r.collect());
  EXPECT_EQ(text,
            "# HELP lat_us Latency\n"
            "# TYPE lat_us histogram\n"
            "lat_us_bucket{le=\"1\"} 1\n"
            "lat_us_bucket{le=\"4\"} 3\n"
            "lat_us_bucket{le=\"+Inf\"} 4\n"
            "lat_us_sum 1000007.5\n"
            "lat_us_count 4\n");
}

TEST(Render, LabelValuesAreEscaped) {
  Registry r;
  r.counter("esc_total", "", {{"path", "a\\b\"c\nd"}}).inc();
  const std::string text = render_prometheus(r.collect());
  EXPECT_NE(text.find("esc_total{path=\"a\\\\b\\\"c\\nd\"} 1\n"),
            std::string::npos);
}

TEST(Render, OutputParsesWithMinimalParser) {
  Registry r;
  r.counter("p_reqs_total", "Requests", {{"op", "query"}}).inc(3);
  r.counter("p_reqs_total", "Requests", {{"op", "observe"}}).inc(5);
  r.gauge("p_margin", "Watchdog margin").set(-12.5);
  Histogram& h = r.histogram("p_lat_us", "Latency", {{"op", "query"}});
  for (double x : {1.0, 10.0, 100.0, 1e9}) h.observe(x);
  const std::string text = render_prometheus(r.collect());

  ParsedExposition exp;
  std::string error;
  ASSERT_TRUE(parse_exposition(text, &exp, &error)) << error;
  // Every family carries a # TYPE line.
  EXPECT_EQ(exp.typed_families,
            (std::vector<std::string>{"p_lat_us", "p_margin", "p_reqs_total"}));
  // Histogram bucket series are cumulative and consistent with _count.
  double last_bucket = 0.0;
  double inf_bucket = -1.0;
  double count = -1.0;
  for (const auto& l : exp.lines) {
    if (l.name == "p_lat_us_bucket") {
      EXPECT_GE(l.value, last_bucket);
      last_bucket = l.value;
      if (l.labels.find("+Inf") != std::string::npos) inf_bucket = l.value;
    } else if (l.name == "p_lat_us_count") {
      count = l.value;
    }
  }
  EXPECT_DOUBLE_EQ(inf_bucket, 4.0);
  EXPECT_DOUBLE_EQ(count, 4.0);
}

TEST(Registry, TypeConflictFailsLoudly) {
  EXPECT_DEATH(
      {
        Registry r;
        (void)r.counter("conflict_total", "first as counter");
        (void)r.histogram("conflict_total", "now as histogram");
      },
      "registered as histogram but previously as counter");
}

TEST(Render, GlobalIncludesRegisteredInstrumentsAndExtras) {
  // The process-global registry is shared with instrumented library code,
  // so only assert on series this test owns.
  Registry::global().counter("obs_test_global_total", "Test counter").inc(9);
  Sample extra;
  extra.name = "obs_test_extra";
  extra.help = "Externally produced";
  extra.type = SampleType::kGauge;
  extra.value = 1.5;
  const std::string text = render_global_prometheus({extra});
  EXPECT_NE(text.find("obs_test_global_total 9\n"), std::string::npos);
  EXPECT_NE(text.find("obs_test_extra 1.5\n"), std::string::npos);
  ParsedExposition exp;
  std::string error;
  ASSERT_TRUE(parse_exposition(text, &exp, &error)) << error;
}

}  // namespace
}  // namespace netd::obs
