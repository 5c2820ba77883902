// The observability surface of the service: the Prometheus `metrics`
// verb, the byte-pinned stats document, the per-request refresh of
// campaign-mirrored counters, and the appended uptime fields.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "svc/client.h"
#include "svc/json.h"
#include "svc/metrics.h"
#include "svc/protocol.h"
#include "svc/server.h"

namespace netd::svc {
namespace {

/// The stats verb's document is a compatibility surface: downstream
/// dashboards parse it. This pins ServiceMetrics::to_json byte-for-byte;
/// a failure here means a wire-visible format change.
TEST(ServiceMetricsGolden, ToJsonIsBytePinned) {
  ServiceMetrics m;
  m.connections = 3;
  m.sessions_created = 1;
  m.malformed_frames = 2;
  m.oversized_frames = 0;
  m.disconnects_mid_request = 1;
  m.idle_timeouts = 0;
  m.shed_requests = 4;
  m.dedup_hits = 5;
  m.quarantined_trials = 6;
  m.faults.delays = 1;
  m.faults.drops = 2;
  m.faults.resets = 3;
  m.record("observe", true, 10.0);
  m.record("observe", false, 100.0);
  EXPECT_EQ(
      m.to_json().dump(),
      R"({"connections":3,"sessions_created":1,"malformed_frames":2,)"
      R"("oversized_frames":0,"disconnects_mid_request":1,"idle_timeouts":0,)"
      R"("shed_requests":4,"dedup_hits":5,"quarantined_trials":6,)"
      R"("faults":{"delays":1,"drops":2,"truncations":0,"corruptions":0,)"
      R"("resets":3,"total":6},"ops":{"observe":{"count":2,"errors":1,)"
      R"("lat_us":{"p50":16,"p90":100,"p99":100,"max":100}}}})");
}

TEST(ServiceMetricsSamples, MirrorsTheJsonNumbers) {
  ServiceMetrics m;
  m.connections = 7;
  m.quarantined_trials = 2;
  m.record("query", true, 5.0);
  bool saw_connections = false, saw_quarantined = false, saw_latency = false;
  for (const auto& s : m.to_samples()) {
    if (s.name == "netd_svc_connections_total") {
      saw_connections = true;
      EXPECT_DOUBLE_EQ(s.value, 7.0);
    } else if (s.name == "netd_svc_quarantined_trials_total") {
      saw_quarantined = true;
      EXPECT_DOUBLE_EQ(s.value, 2.0);
    } else if (s.name == "netd_svc_request_latency_us") {
      saw_latency = true;
      ASSERT_EQ(s.labels.size(), 1u);
      EXPECT_EQ(s.labels[0].first, "op");
      EXPECT_EQ(s.labels[0].second, "query");
      EXPECT_EQ(s.hist.count(), 1u);
    }
  }
  EXPECT_TRUE(saw_connections);
  EXPECT_TRUE(saw_quarantined);
  EXPECT_TRUE(saw_latency);
}

/// Regression: with several ops recorded, the per-op families must come
/// out grouped — a family must never reappear after another family has
/// started, or the rendered exposition repeats TYPE lines and real
/// Prometheus parsers reject the scrape.
TEST(ServiceMetricsSamples, FamiliesAreContiguousAcrossOps) {
  ServiceMetrics m;
  m.record("hello", true, 1.0);
  m.record("observe", true, 10.0);
  m.record("stats", false, 5.0);
  std::vector<std::string> family_order;
  for (const auto& s : m.to_samples()) {
    if (family_order.empty() || family_order.back() != s.name) {
      EXPECT_EQ(std::count(family_order.begin(), family_order.end(), s.name),
                0)
          << "family " << s.name << " reappears after another family";
      family_order.push_back(s.name);
    }
  }
}

class MetricsVerbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Server::Options opts;
    opts.endpoint.port = 0;
    // One worker more than ScrapesStayWellFormedUnderConcurrentSessions'
    // looping sessions: a connection holds its worker for its lifetime,
    // so with only 8 the scraper could wait forever.
    opts.num_threads = 9;
    opts.campaign_stats = [this] {
      Json j = Json::object();
      j.set("completed", Json::uinteger(1));
      j.set("quarantined",
            Json::uinteger(quarantined_.load(std::memory_order_relaxed)));
      return j;
    };
    server_.emplace(std::move(opts));
    std::string error;
    ASSERT_TRUE(server_->start(&error)) << error;
  }

  void TearDown() override { server_->stop(); }

  Client connect() {
    std::string error;
    auto c = Client::connect(server_->endpoint(), &error);
    EXPECT_TRUE(c.has_value()) << error;
    return std::move(*c);
  }

  Json stats_doc(Client& c) {
    std::string error;
    StatsResponse stats;
    EXPECT_TRUE(expect_response(c.call(Request{StatsRequest{}}, &error),
                                &stats, &error))
        << error;
    auto j = Json::parse(stats.stats, &error);
    EXPECT_TRUE(j.has_value()) << error;
    return j.value_or(Json::object());
  }

  std::string metrics_text(Client& c) {
    std::string error;
    const auto rsp = c.call(Request{MetricsRequest{}}, &error);
    EXPECT_TRUE(rsp.has_value()) << error;
    const auto* m = rsp ? std::get_if<MetricsResponse>(&*rsp) : nullptr;
    EXPECT_NE(m, nullptr);
    return m != nullptr ? m->text : "";
  }

  std::atomic<std::uint64_t> quarantined_{0};
  std::optional<Server> server_;
};

/// Regression: quarantined_trials must be re-read from the campaign
/// provider on every stats/metrics request, never cached from the value
/// at attach time.
TEST_F(MetricsVerbTest, QuarantinedTrialsTrackTheLiveCampaign) {
  Client c = connect();
  Json j = stats_doc(c);
  ASSERT_NE(j.find("quarantined_trials"), nullptr);
  EXPECT_EQ(j.find("quarantined_trials")->as_int(), 0);

  quarantined_.store(3, std::memory_order_relaxed);
  j = stats_doc(c);
  EXPECT_EQ(j.find("quarantined_trials")->as_int(), 3);
  ASSERT_NE(j.find("campaign"), nullptr);
  EXPECT_EQ(j.find("campaign")->find("quarantined")->as_int(), 3);

  // The Prometheus surface reads through the same snapshot path.
  const std::string text = metrics_text(c);
  EXPECT_NE(text.find("netd_svc_quarantined_trials_total 3\n"),
            std::string::npos)
      << text;
}

TEST_F(MetricsVerbTest, StatsAppendsUptimeAfterThePinnedKeys) {
  Client c = connect();
  const Json first = stats_doc(c);
  const Json* up = first.find("uptime_seconds");
  ASSERT_NE(up, nullptr);
  EXPECT_GE(up->as_double(), 0.0);
  const Json* start = first.find("start_monotonic_ms");
  ASSERT_NE(start, nullptr);
  EXPECT_GT(start->as_int(), 0);

  // Appended last, so the historical document is an unchanged prefix.
  const auto& members = first.members();
  ASSERT_GE(members.size(), 2u);
  EXPECT_EQ(members[members.size() - 2].first, "uptime_seconds");
  EXPECT_EQ(members[members.size() - 1].first, "start_monotonic_ms");
  EXPECT_EQ(members[0].first, "connections");

  // Monotonic: uptime never goes backwards, the start stamp never moves.
  const Json second = stats_doc(c);
  EXPECT_GE(second.find("uptime_seconds")->as_double(), up->as_double());
  EXPECT_EQ(second.find("start_monotonic_ms")->as_int(), start->as_int());
}

TEST_F(MetricsVerbTest, MetricsVerbRendersParseablePrometheusText) {
  Client c = connect();
  // Populate several distinct ops so the per-op families
  // (requests/errors/latency) each carry more than one series — the case
  // that used to interleave families and repeat TYPE lines.
  (void)stats_doc(c);
  (void)stats_doc(c);
  (void)metrics_text(c);
  const std::string text = metrics_text(c);
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');

  // Every non-comment line must be `series value` with a numeric value,
  // and each family must announce its TYPE exactly once (real Prometheus
  // parsers reject a second TYPE line for the same name).
  std::istringstream is(text);
  std::string line;
  std::size_t samples = 0;
  bool saw_uptime = false, saw_stats_op = false;
  std::set<std::string> typed_families;
  while (std::getline(is, line)) {
    ASSERT_FALSE(line.empty());
    if (line[0] == '#') {
      EXPECT_TRUE(line.rfind("# HELP ", 0) == 0 ||
                  line.rfind("# TYPE ", 0) == 0)
          << line;
      if (line.rfind("# TYPE ", 0) == 0) {
        std::istringstream ls(line);
        std::string hash, kind, family;
        ls >> hash >> kind >> family;
        EXPECT_TRUE(typed_families.insert(family).second)
            << "duplicate TYPE line for " << family;
      }
      continue;
    }
    const auto sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    const std::string value = line.substr(sp + 1);
    char* end = nullptr;
    (void)std::strtod(value.c_str(), &end);
    EXPECT_TRUE(end != nullptr && *end == '\0') << line;
    ++samples;
    saw_uptime |= line.rfind("netd_svc_uptime_seconds ", 0) == 0;
    saw_stats_op |=
        line.rfind("netd_svc_requests_total{op=\"stats\"}", 0) == 0;
  }
  EXPECT_GT(samples, 0u);
  EXPECT_TRUE(saw_uptime);
  EXPECT_TRUE(saw_stats_op);
}

/// Scrape stability under load: 8 sessions hammer the server with
/// counter-mutating verbs while the main thread scrapes. Every scrape
/// must stay parseable — one TYPE line per family, and the relative
/// order of families must never change between scrapes (dashboards diff
/// consecutive scrapes and a reordering family reads as a new series).
TEST_F(MetricsVerbTest, ScrapesStayWellFormedUnderConcurrentSessions) {
  constexpr int kSessions = 8;
  std::atomic<bool> stop{false};
  std::vector<std::thread> fleet;
  fleet.reserve(kSessions);
  for (int i = 0; i < kSessions; ++i) {
    fleet.emplace_back([this, i, &stop] {
      Client c = connect();
      std::string error;
      HelloRequest hello{"scrape-" + std::to_string(i), SessionConfig{},
                         std::nullopt};
      (void)c.call(Request{hello}, &error);
      while (!stop.load(std::memory_order_relaxed)) {
        // Query before a baseline exists: an error response, which still
        // bumps the per-op error counters — exactly the mutation we want
        // racing the scrape.
        (void)c.call(
            Request{QueryRequest{"scrape-" + std::to_string(i), std::nullopt}},
            &error);
        (void)c.call(Request{StatsRequest{}}, &error);
      }
    });
  }

  Client scraper = connect();
  std::vector<std::string> last_families;
  for (int round = 0; round < 20; ++round) {
    const std::string text = metrics_text(scraper);
    std::vector<std::string> families;
    std::set<std::string> seen;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) {
      if (line.rfind("# TYPE ", 0) != 0) continue;
      std::istringstream ls(line);
      std::string hash, kind, family;
      ls >> hash >> kind >> family;
      EXPECT_TRUE(seen.insert(family).second)
          << "duplicate TYPE line for " << family << " in round " << round;
      families.push_back(family);
    }
    // Families may appear as new ops land, but those already present
    // must keep their relative order scrape over scrape.
    std::vector<std::string> projected;
    for (const auto& f : families) {
      if (std::count(last_families.begin(), last_families.end(), f) != 0) {
        projected.push_back(f);
      }
    }
    EXPECT_EQ(projected, last_families) << "family order shifted";
    last_families = std::move(families);
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : fleet) t.join();
}

}  // namespace
}  // namespace netd::svc
