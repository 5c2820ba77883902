// Service-layer benchmark: how much the wire costs.
//
// Records one exp::Runner trace, then times four stages of the service
// stack on the identical input:
//   svc_record_trace       runner episodes -> JSONL (codec write path)
//   svc_codec_reparse      decode + re-encode every trace line with the
//                          typed codec; the DOM oracle (Json::parse plus
//                          the DOM decoders and encoders) runs on the same
//                          lines, must give the same bytes, and the row's
//                          `speedup` is its time over the typed codec's
//   svc_replay_in_process  trace -> fresh Troubleshooter, no socket
//   svc_replay_socket      the same replay through a live unix-socket
//                          server via svc::Client
//   log_tail_read          util::SegmentLog::for_each(last_seq() - 1), the
//                          agent's read of its newest spooled round, over
//                          24 KB records with 1 and with 160 records in the
//                          segment; `fill_ratio` is t160 / t1, and a read
//                          that costs what it delivers keeps it near 1
// The in-process/socket pair bounds the protocol + dispatch overhead per
// observation round. Emits the usual ND_PERF_JSON records.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>
#include <sys/stat.h>
#include <unistd.h>

#include "common.h"
#include "obs/events.h"
#include "obs/span.h"
#include "svc/client.h"
#include "svc/journal.h"
#include "svc/json.h"
#include "svc/protocol.h"
#include "svc/server.h"
#include "svc/socket.h"
#include "svc/trace.h"
#include "util/segment_log.h"

using namespace netd;

namespace {

class Timer {
 public:
  Timer() : t0_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point t0_;
};

/// Same record shape as bench::timed_run so BENCH_svc.json rows align
/// with the figure benchmarks'. `extra` holds more ",key":value fields.
void perf(const std::string& bench, double wall_ms, std::size_t threads,
          const exp::ScenarioConfig& cfg, const std::string& extra = "") {
  std::cout << "[perf] " << bench << ": " << wall_ms
            << " ms  (threads=" << threads << ")\n";
  if (const char* path = std::getenv("ND_PERF_JSON");
      path != nullptr && *path != '\0') {
    std::ofstream os(path, std::ios::app);
    if (os) {
      os << "{\"bench\":\"" << bench << "\",\"wall_ms\":" << wall_ms
         << ",\"threads\":" << threads
         << ",\"placements\":" << cfg.num_placements
         << ",\"trials\":" << cfg.trials_per_placement << extra << "}\n";
    }
  }
}

/// The DOM oracle's round trip of one trace line: Json::parse, the DOM
/// decoders, then the DOM encoders. Empty on a line it cannot decode.
std::string dom_reencode(const std::string& line) {
  const auto j = svc::Json::parse(line);
  const svc::Json* type = j ? j->find("type") : nullptr;
  if (type == nullptr) return "";
  svc::Json out = svc::Json::object();
  out.set("v", *j->find("v"));
  out.set("type", *type);
  std::string error;
  if (type->as_string() == "config") {
    const auto cfg = svc::session_config_from_json(*j->find("config"), &error);
    if (!cfg) return "";
    out.set("config", svc::session_config_to_json(*cfg));
  } else if (type->as_string() == "diagnosis") {
    const auto round = j->find("round")->as_uint();
    out.set("round", svc::Json::uinteger(round.value_or(0)));
    out.set("diagnosis", svc::Json::raw(j->find("diagnosis")->dump()));
  } else {
    const auto mesh = svc::mesh_from_json(*j->find("mesh"), &error);
    if (!mesh) return "";
    out.set("mesh", svc::mesh_to_json(*mesh));
    if (const svc::Json* cp = j->find("cp"); cp != nullptr) {
      const auto obs = svc::cp_from_json(*cp, &error);
      if (!obs) return "";
      out.set("cp", svc::cp_to_json(*obs));
    }
  }
  return out.dump();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// The log_tail_read row: the median read of the newest 24 KB record out
/// of one segment holding 1 record and out of one holding 160 (3.75 MiB,
/// below the 4 MiB rotation), the two reads taking turns.
bool log_tail_read(const exp::ScenarioConfig& cfg) {
  constexpr std::size_t kPayloadBytes = 24 << 10;
  constexpr std::uint64_t kFills[] = {1, 160};
  constexpr int kReads = 101;
  const std::string payload(kPayloadBytes, 'r');
  const std::string base = "/tmp/bench_svc_log." + std::to_string(::getpid());
  std::string error;
  std::vector<std::unique_ptr<util::SegmentLog>> logs;
  for (const std::uint64_t fill : kFills) {
    const std::string dir = base + "." + std::to_string(fill);
    ::mkdir(dir.c_str(), 0755);
    auto log = util::SegmentLog::open({dir, "seg-", ".log"}, {}, 0, nullptr,
                                      &error);
    for (std::uint64_t i = 0; log != nullptr && i < fill; ++i) {
      if (log->append(payload, &error) == 0) log.reset();
    }
    if (log == nullptr || log->segments().size() != 1) {
      std::cerr << "log_tail_read setup failed: " << error << "\n";
      return false;
    }
    logs.push_back(std::move(log));
  }
  std::vector<double> us[2];
  for (int i = 0; i < kReads; ++i) {
    for (std::size_t k = 0; k < logs.size(); ++k) {
      std::size_t got = 0;
      Timer t;
      const bool ok = logs[k]->for_each(
          logs[k]->last_seq() - 1,
          [&](std::uint64_t, std::string_view p) {
            got += p.size();
            return true;
          },
          &error);
      us[k].push_back(t.ms() * 1000.0);
      if (!ok || got != kPayloadBytes) {
        std::cerr << "log_tail_read failed: " << error << "\n";
        return false;
      }
    }
  }
  logs.clear();
  const std::string cleanup = "rm -rf '" + base + "'.*";
  if (std::system(cleanup.c_str()) != 0) std::cerr << "log cleanup failed\n";
  const double t1 = median(us[0]);
  const double t160 = median(us[1]);
  std::ostringstream extra;
  extra << ",\"t1_us\":" << t1 << ",\"t160_us\":" << t160
        << ",\"fill_ratio\":" << t160 / t1;
  perf("log_tail_read", t160 / 1000.0, 1, cfg, extra.str());
  std::cout << "  newest-record read: " << t1 << " us with 1 record, " << t160
            << " us with 160 (" << t160 / t1 << "x)\n";
  return true;
}

}  // namespace

int main() {
  bench::banner("Service layer: trace codec and replay, in-process vs socket");

  // ND_BENCH_TRACE=1 arms the full observability path: the span sink
  // records every server-side span and --slow-request-ms 1 pushes nearly
  // every request into the event ring. The obs overhead gate runs the
  // bench this way on the NETD_OBS=ON tree so the ON-vs-OFF comparison
  // prices the instrumented hot path, not just dormant counters.
  const char* trace_env = std::getenv("ND_BENCH_TRACE");
  const bool trace_on = trace_env != nullptr && *trace_env == '1';
  if (trace_on) {
    obs::TraceSink::install();
    std::cout << "  tracing: span sink + event ring armed"
                 " (ND_BENCH_TRACE=1)\n";
  }

  auto cfg = bench::scaled_config(9100);
  cfg.num_link_failures = 1;
  exp::Runner runner(cfg);

  svc::SessionConfig scfg;
  scfg.alarm_threshold = 2;

  // Record (timed): the write path of the codec plus the live diagnoses.
  std::ostringstream trace_os;
  std::string error;
  Timer t_record;
  const auto episodes = runner.record_trace(trace_os, scfg, &error);
  const double record_ms = t_record.ms();
  if (!episodes.has_value()) {
    std::cerr << "record_trace failed: " << error << "\n";
    return 1;
  }
  const std::string jsonl = trace_os.str();
  perf("svc_record_trace", record_ms, 1, cfg);

  // Codec: decode + re-encode every line, typed and through the DOM
  // oracle, the two taking turns line by line so a slow spell of the host
  // lands on both; each side's time is its median pass.
  std::vector<std::string> lines;
  {
    std::istringstream is(jsonl);
    for (std::string line; std::getline(is, line);) lines.push_back(line);
  }
  {
    constexpr int kPasses = 7;
    std::vector<double> typed_ms, dom_ms;
    for (int pass = 0; pass < kPasses; ++pass) {
      std::string typed, dom;
      double typed_pass = 0.0, dom_pass = 0.0;
      for (const std::string& line : lines) {
        Timer t;
        const auto rec = svc::parse_trace_line(line, &error);
        if (!rec.has_value()) {
          std::cerr << "trace line failed to decode: " << error << "\n";
          return 1;
        }
        typed += svc::trace_line(*rec);
        typed_pass += t.ms();
        Timer d;
        dom += dom_reencode(line);
        dom_pass += d.ms();
        typed += '\n';
        dom += '\n';
      }
      typed_ms.push_back(typed_pass);
      dom_ms.push_back(dom_pass);
      if (typed != jsonl || dom != jsonl) {
        std::cerr << "codec round trip is not byte-identical ("
                  << (typed != jsonl ? "typed" : "DOM oracle") << ")\n";
        return 1;
      }
    }
    const double typed = median(typed_ms);
    const double dom = median(dom_ms);
    std::ostringstream extra;
    extra << ",\"dom_ms\":" << dom << ",\"speedup\":" << dom / typed;
    perf("svc_codec_reparse", typed, 1, cfg, extra.str());
    std::cout << "  trace: " << *episodes << " episodes, " << lines.size()
              << " lines, " << jsonl.size() << " bytes; DOM oracle " << dom
              << " ms, typed codec " << typed << " ms (" << dom / typed
              << "x)\n";
  }

  // Replay without a socket: pure Troubleshooter re-execution.
  std::istringstream is(jsonl);
  const auto records = svc::read_trace(is, &error);
  if (!records.has_value()) {
    std::cerr << "read_trace failed: " << error << "\n";
    return 1;
  }
  {
    Timer t;
    const auto result = svc::replay_in_process(*records);
    const double ms = t.ms();
    if (!result.ok()) {
      std::cerr << "in-process replay diverged: " << result.mismatches[0]
                << "\n";
      return 1;
    }
    perf("svc_replay_in_process", ms, 1, cfg);
  }

  // Replay across a real unix socket: protocol + dispatch overhead on top.
  const std::string sock_path =
      "/tmp/bench_svc." + std::to_string(::getpid()) + ".sock";
  svc::Server::Options opts;
  opts.endpoint.kind = svc::Endpoint::Kind::kUnix;
  opts.endpoint.path = sock_path;
  opts.num_threads = 2;
  if (trace_on) opts.slow_request_ms = 1;
  svc::Server server(opts);
  if (!server.start(&error)) {
    std::cerr << "server start failed: " << error << "\n";
    return 1;
  }
  {
    auto client = svc::Client::connect(server.endpoint(), &error);
    if (!client.has_value()) {
      std::cerr << "connect failed: " << error << "\n";
      return 1;
    }
    Timer t;
    const auto result = svc::replay_through(*client, "bench", *records);
    const double ms = t.ms();
    if (!result.ok()) {
      std::cerr << "socket replay diverged: " << result.mismatches[0] << "\n";
      return 1;
    }
    perf("svc_replay_socket", ms, opts.num_threads, cfg);
    std::cout << "  replayed " << result.rounds << " rounds, "
              << result.diagnoses << " diagnoses\n";
  }
  server.stop();
  std::remove(sock_path.c_str());

  // The same replay with the full resilience stack armed (deadlines,
  // retries, seq stamping) but no faults: what the robustness layer costs
  // on a healthy wire.
  svc::Server::Options ropts;
  ropts.endpoint.kind = svc::Endpoint::Kind::kUnix;
  ropts.endpoint.path = sock_path;
  ropts.num_threads = 2;
  ropts.idle_timeout_ms = 30000;
  ropts.max_pending = 64;
  if (trace_on) ropts.slow_request_ms = 1;
  svc::Server resilient(ropts);
  if (!resilient.start(&error)) {
    std::cerr << "server start failed: " << error << "\n";
    return 1;
  }
  {
    svc::Client::Options copts;
    copts.connect_timeout_ms = 5000;
    copts.request_timeout_ms = 30000;
    copts.max_retries = 3;
    auto client = svc::Client::connect(resilient.endpoint(), copts, &error);
    if (!client.has_value()) {
      std::cerr << "connect failed: " << error << "\n";
      return 1;
    }
    Timer t;
    const auto result = svc::replay_through(*client, "bench-resilient",
                                            *records);
    const double ms = t.ms();
    if (!result.ok()) {
      std::cerr << "resilient replay diverged: " << result.mismatches[0]
                << "\n";
      return 1;
    }
    perf("svc_replay_socket_resilient", ms, ropts.num_threads, cfg);
  }
  resilient.stop();
  std::remove(sock_path.c_str());

  // The durability tax: the same replay with a per-session write-ahead
  // journal armed, once per fsync policy. kBatch pays serialization +
  // write(2) per observation; kAlways adds an fsync(2) per record and is
  // the worst case.
  for (const svc::FsyncPolicy policy :
       {svc::FsyncPolicy::kBatch, svc::FsyncPolicy::kAlways}) {
    const std::string state_dir =
        "/tmp/bench_svc_state." + std::to_string(::getpid()) + "." +
        svc::to_string(policy);
    svc::Server::Options dopts;
    dopts.endpoint.kind = svc::Endpoint::Kind::kUnix;
    dopts.endpoint.path = sock_path;
    dopts.num_threads = 2;
    dopts.state_dir = state_dir;
    dopts.fsync = policy;
    if (trace_on) dopts.slow_request_ms = 1;
    svc::Server durable(dopts);
    if (!durable.start(&error)) {
      std::cerr << "durable server start failed: " << error << "\n";
      return 1;
    }
    {
      auto client = svc::Client::connect(durable.endpoint(), &error);
      if (!client.has_value()) {
        std::cerr << "connect failed: " << error << "\n";
        return 1;
      }
      Timer t;
      const auto result = svc::replay_through(*client, "bench-durable",
                                              *records);
      const double ms = t.ms();
      if (!result.ok()) {
        std::cerr << "durable replay diverged: " << result.mismatches[0]
                  << "\n";
        return 1;
      }
      perf(std::string("svc_replay_socket_durable_") + svc::to_string(policy),
           ms, dopts.num_threads, cfg);
    }
    durable.stop();
    std::remove(sock_path.c_str());
    const std::string cleanup = "rm -rf '" + state_dir + "'";
    if (std::system(cleanup.c_str()) != 0) {
      std::cerr << "state-dir cleanup failed\n";
    }
  }

  if (!log_tail_read(cfg)) return 1;

  if (trace_on) {
    std::cout << "  tracing: " << obs::TraceSink::snapshot().size()
              << " spans recorded, "
              << obs::EventRing::total_recorded() << " ring events\n";
    obs::TraceSink::uninstall();
  }

  std::cout << "\nExpected: socket replay tracks in-process replay within a"
               " small constant factor; the gap is the wire + dispatch cost"
               " per round. The resilient variant (deadlines + retry"
               " stamping, no faults) should sit on top of svc_replay_socket"
               " within noise. Durable replay adds the journal write per"
               " round (kBatch) or a full fsync per round (kAlways). Reading"
               " the newest spooled record costs the same at any segment"
               " fill (fill_ratio near 1).\n";
  return 0;
}
