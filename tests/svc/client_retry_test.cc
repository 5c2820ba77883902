#include "svc/client.h"

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "svc/json.h"
#include "svc/server.h"
#include "svc/socket.h"

namespace netd::svc {
namespace {

using Clock = std::chrono::steady_clock;

int elapsed_ms(Clock::time_point since) {
  return static_cast<int>(std::chrono::duration_cast<std::chrono::milliseconds>(
                              Clock::now() - since)
                              .count());
}

/// A raw loopback listener the tests control by hand (never accepts, or
/// is scripted by a thread).
struct RawListener {
  Fd fd;
  int port = 0;

  static RawListener open(int backlog) {
    RawListener rl;
    rl.fd = Fd(::socket(AF_INET, SOCK_STREAM, 0));
    EXPECT_TRUE(rl.fd.valid());
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(rl.fd.get(), reinterpret_cast<sockaddr*>(&addr),
                     sizeof addr),
              0);
    EXPECT_EQ(::listen(rl.fd.get(), backlog), 0);
    socklen_t len = sizeof addr;
    EXPECT_EQ(::getsockname(rl.fd.get(), reinterpret_cast<sockaddr*>(&addr),
                            &len),
              0);
    rl.port = ntohs(addr.sin_port);
    return rl;
  }

  [[nodiscard]] Endpoint endpoint() const {
    Endpoint ep;
    ep.port = port;
    return ep;
  }
};

TEST(ClientDeadlineTest, ConnectTimesOutAgainstFullBacklog) {
  // listen(fd, 0) plus a few parked connects saturates the accept queue;
  // further SYNs are dropped, so an undeadlined connect would hang for
  // the kernel's SYN-retry schedule (minutes). The client's poll-based
  // deadline must fire instead.
  RawListener rl = RawListener::open(0);
  std::vector<Fd> parked;
  std::string error;
  for (int i = 0; i < 4; ++i) {
    Fd fd = connect_to(rl.endpoint(), &error, 200);
    if (!fd.valid()) break;  // queue is full from here on
    parked.push_back(std::move(fd));
  }

  Client::Options opts;
  opts.connect_timeout_ms = 300;
  const auto start = Clock::now();
  error.clear();
  auto client = Client::connect(rl.endpoint(), opts, &error);
  EXPECT_FALSE(client.has_value());
  EXPECT_NE(error.find("timed out"), std::string::npos) << error;
  EXPECT_LT(elapsed_ms(start), 3000);
}

TEST(ClientDeadlineTest, ServerClosingMidResponseIsACleanError) {
  RawListener rl = RawListener::open(4);
  std::thread fake([&] {
    Fd conn(::accept(rl.fd.get(), nullptr, nullptr));
    ASSERT_TRUE(conn.valid());
    LineReader reader(conn.get(), kMaxFrameBytes);
    std::string line;
    ASSERT_EQ(reader.read_line(&line), LineReader::Status::kLine);
    // Half a response, no newline, then vanish.
    ASSERT_TRUE(write_all(conn.get(), R"({"v":1,"ok":{"session)"));
  });

  Client::Options opts;
  opts.request_timeout_ms = 2000;
  std::string error;
  auto client = Client::connect(rl.endpoint(), opts, &error);
  ASSERT_TRUE(client.has_value()) << error;
  const auto rsp = client->call(Request{StatsRequest{}}, &error);
  EXPECT_FALSE(rsp.has_value());
  EXPECT_FALSE(error.empty());
  // The server took the request and vanished mid-exchange: the request
  // may have been applied, so the caller must redeliver idempotently.
  EXPECT_EQ(client->last_error_kind(), Client::ErrorKind::kClosedMidFrame);
  fake.join();
}

TEST(ClientDeadlineTest, ErrorKindsDistinguishRefusalFromMidFrameClose) {
  // A healthy exchange, then the server disappears entirely. The retry
  // loop's last failure is the reconnect refusal — the "spool and wait"
  // signal, as opposed to the "redeliver idempotently" mid-frame close.
  Server::Options sopts;
  sopts.endpoint.port = 0;
  Server server(std::move(sopts));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  const Endpoint ep = server.endpoint();

  Client::Options opts;
  opts.max_retries = 1;
  opts.backoff_base_ms = 1;
  opts.backoff_max_ms = 5;
  opts.connect_timeout_ms = 500;
  opts.request_timeout_ms = 2000;
  auto client = Client::connect(ep, opts, &error);
  ASSERT_TRUE(client.has_value()) << error;
  StatsResponse stats;
  ASSERT_TRUE(expect_response(client->call(Request{StatsRequest{}}, &error),
                              &stats, &error))
      << error;
  EXPECT_EQ(client->last_error_kind(), Client::ErrorKind::kNone);

  server.stop();
  error.clear();
  EXPECT_FALSE(client->call(Request{StatsRequest{}}, &error).has_value());
  EXPECT_EQ(client->last_error_kind(), Client::ErrorKind::kConnectRefused);
}

TEST(ClientRetryTest, ReconnectsAndSucceedsAgainstFlakyServer) {
  RawListener rl = RawListener::open(4);
  std::thread fake([&] {
    // Connection 1: die before answering.
    {
      Fd conn(::accept(rl.fd.get(), nullptr, nullptr));
      ASSERT_TRUE(conn.valid());
      LineReader reader(conn.get(), kMaxFrameBytes);
      std::string line;
      ASSERT_EQ(reader.read_line(&line), LineReader::Status::kLine);
    }
    // Connection 2: answer properly.
    Fd conn(::accept(rl.fd.get(), nullptr, nullptr));
    ASSERT_TRUE(conn.valid());
    LineReader reader(conn.get(), kMaxFrameBytes);
    std::string line;
    ASSERT_EQ(reader.read_line(&line), LineReader::Status::kLine);
    const std::string rsp =
        serialize(Response{StatsResponse{"{\"ok\":true}"}}) + "\n";
    ASSERT_TRUE(write_all(conn.get(), rsp));
  });

  Client::Options opts;
  opts.max_retries = 3;
  opts.backoff_base_ms = 1;
  opts.backoff_max_ms = 10;
  opts.request_timeout_ms = 2000;
  std::string error;
  auto client = Client::connect(rl.endpoint(), opts, &error);
  ASSERT_TRUE(client.has_value()) << error;
  const auto rsp = client->call(Request{StatsRequest{}}, &error);
  ASSERT_TRUE(rsp.has_value()) << error;
  const auto* stats = std::get_if<StatsResponse>(&*rsp);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->stats, "{\"ok\":true}");
  EXPECT_EQ(client->last_error_kind(), Client::ErrorKind::kNone);
  fake.join();
}

/// One healthy single-pair mesh (enough to feed observation rounds).
probe::Mesh tiny_mesh() {
  probe::Mesh mesh;
  probe::TracePath path;
  path.src = 0;
  path.dst = 1;
  path.ok = true;
  path.hops = {{"s0", graph::NodeKind::kSensor, 4, topo::RouterId{}},
               {"s1", graph::NodeKind::kSensor, 5, topo::RouterId{}}};
  mesh.paths.push_back(std::move(path));
  return mesh;
}

TEST(ClientRetryTest, DuplicateObserveSeqIsDedupedServerSide) {
  Server::Options sopts;
  sopts.endpoint.port = 0;
  Server server(std::move(sopts));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  auto client = Client::connect(server.endpoint(), &error);
  ASSERT_TRUE(client.has_value()) << error;

  const probe::Mesh mesh = tiny_mesh();
  HelloResponse hello;
  SetBaselineResponse base;
  ASSERT_TRUE(expect_response(
      client->call(
          Request{HelloRequest{"dedup", SessionConfig{}, std::nullopt}},
          &error),
      &hello, &error))
      << error;
  ASSERT_TRUE(expect_response(
      client->call(Request{SetBaselineRequest{"dedup", mesh, std::nullopt}},
                   &error),
      &base, &error))
      << error;

  // The same observe frame sent twice — what a retry after a lost
  // response looks like — must feed the round ONCE and answer twice,
  // byte-identically.
  const std::string frame = serialize(
      Request{ObserveRequest{"dedup", mesh, std::nullopt, 1}});
  const auto first = client->call_raw(frame, &error);
  ASSERT_TRUE(first.has_value()) << error;
  const auto second = client->call_raw(frame, &error);
  ASSERT_TRUE(second.has_value()) << error;
  EXPECT_EQ(*first, *second);

  ObserveResponse obs1;
  ASSERT_TRUE(expect_response(parse_response(*first, &error), &obs1, &error))
      << error;
  EXPECT_EQ(obs1.round, 1u);

  // A new sequence number advances the round again.
  const auto third = client->call_raw(
      serialize(Request{ObserveRequest{"dedup", mesh, std::nullopt, 2}}),
      &error);
  ASSERT_TRUE(third.has_value()) << error;
  ObserveResponse obs3;
  ASSERT_TRUE(expect_response(parse_response(*third, &error), &obs3, &error))
      << error;
  EXPECT_EQ(obs3.round, 2u);

  const auto stats = Json::parse(server.stats_json());
  ASSERT_TRUE(stats.has_value());
  ASSERT_NE(stats->find("dedup_hits"), nullptr);
  EXPECT_GE(stats->find("dedup_hits")->as_int(), 1);
  server.stop();
}

TEST(ClientRetryTest, NewClientAfterSetBaselineHasEveryRoundApplied) {
  // Each retrying client numbers its observes from 1. A new client that
  // starts a new epoch with set_baseline must not have its first rounds
  // taken for retries of the previous client's.
  Server::Options sopts;
  sopts.endpoint.port = 0;
  Server server(std::move(sopts));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  Client::Options copts;
  copts.max_retries = 2;  // retrying clients stamp every observe with a seq
  const probe::Mesh mesh = tiny_mesh();

  auto first = Client::connect(server.endpoint(), copts, &error);
  ASSERT_TRUE(first.has_value()) << error;
  HelloResponse hello;
  SetBaselineResponse base;
  ObserveResponse obs;
  ASSERT_TRUE(expect_response(
      first->call(
          Request{HelloRequest{"epochs", SessionConfig{}, std::nullopt}},
          &error),
      &hello, &error))
      << error;
  ASSERT_TRUE(expect_response(
      first->call(Request{SetBaselineRequest{"epochs", mesh, std::nullopt}},
                  &error),
      &base, &error))
      << error;
  ASSERT_TRUE(expect_response(
      first->call(Request{ObserveRequest{"epochs", mesh, std::nullopt}},
                  &error),
      &obs, &error))
      << error;
  ASSERT_EQ(obs.round, 1u);

  auto second = Client::connect(server.endpoint(), copts, &error);
  ASSERT_TRUE(second.has_value()) << error;
  ASSERT_TRUE(expect_response(
      second->call(Request{SetBaselineRequest{"epochs", mesh, std::nullopt}},
                   &error),
      &base, &error))
      << error;
  for (std::size_t round = 1; round <= 2; ++round) {
    ASSERT_TRUE(expect_response(
        second->call(Request{ObserveRequest{"epochs", mesh, std::nullopt}},
                     &error),
        &obs, &error))
        << error;
    EXPECT_EQ(obs.round, round);
  }
  const auto stats = Json::parse(server.stats_json());
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->find("dedup_hits")->as_int(), 0);
  server.stop();
}

TEST(OverloadTest, PendingQueueBeyondCapIsShedWithRetryAfter) {
  Server::Options sopts;
  sopts.endpoint.port = 0;
  sopts.num_threads = 1;
  sopts.max_pending = 1;
  sopts.retry_after_ms = 250;
  Server server(std::move(sopts));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  // Pin the single worker with a connection mid-session.
  auto pinned = Client::connect(server.endpoint(), &error);
  ASSERT_TRUE(pinned.has_value()) << error;
  StatsResponse stats;
  ASSERT_TRUE(expect_response(pinned->call(Request{StatsRequest{}}, &error),
                              &stats, &error))
      << error;

  // This one parks in the pending queue (no worker free).
  auto queued = Client::connect(server.endpoint(), &error);
  ASSERT_TRUE(queued.has_value()) << error;
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // The queue is at max_pending: the next connection is shed by the
  // acceptor, which pushes a structured overloaded error unprompted and
  // closes. Read-only here — writing a request could race the close into
  // an RST that discards the buffered response.
  Fd shed = connect_to(server.endpoint(), &error);
  ASSERT_TRUE(shed.valid()) << error;
  LineReader reader(shed.get(), kMaxFrameBytes);
  reader.set_timeout_ms(2000);
  std::string line;
  ASSERT_EQ(reader.read_line(&line), LineReader::Status::kLine);
  const auto rsp = parse_response(line, &error);
  ASSERT_TRUE(rsp.has_value()) << line;
  const auto* err = std::get_if<ErrorResponse>(&*rsp);
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->code, kErrOverloaded);
  ASSERT_TRUE(err->retry_after_ms.has_value());
  EXPECT_EQ(*err->retry_after_ms, 250u);

  const auto j = Json::parse(server.stats_json());
  ASSERT_TRUE(j.has_value());
  EXPECT_GE(j->find("shed_requests")->as_int(), 1);
  server.stop();
}

TEST(OverloadTest, MaxSessionsCapShedsNewSessionsNotAttaches) {
  Server::Options sopts;
  sopts.endpoint.port = 0;
  sopts.max_sessions = 1;
  Server server(std::move(sopts));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  auto client = Client::connect(server.endpoint(), &error);
  ASSERT_TRUE(client.has_value()) << error;

  HelloResponse hello;
  ASSERT_TRUE(expect_response(
      client->call(Request{HelloRequest{"only", SessionConfig{}, std::nullopt}},
                   &error),
      &hello, &error))
      << error;
  EXPECT_TRUE(hello.created);

  // A second session would exceed the cap.
  const auto rsp =
      client->call(
          Request{HelloRequest{"another", SessionConfig{}, std::nullopt}},
          &error);
  ASSERT_TRUE(rsp.has_value()) << error;
  const auto* err = std::get_if<ErrorResponse>(&*rsp);
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->code, kErrOverloaded);

  // Re-attaching to the existing session is not a new session.
  HelloResponse again;
  error.clear();
  ASSERT_TRUE(expect_response(
      client->call(Request{HelloRequest{"only", SessionConfig{}, std::nullopt}},
                   &error),
      &again, &error))
      << error;
  EXPECT_FALSE(again.created);
  server.stop();
}

}  // namespace
}  // namespace netd::svc
