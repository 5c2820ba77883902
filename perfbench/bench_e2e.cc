// End-to-end benchmark of the diagnosis pipeline: three seeded, closed-loop
// workloads, each timed for a fixed window and checked for correct output.
//
//   replay_wire   Four exp::Runner recordings (165-AS BGP simulations, 1
//                 placement x 3 trials each, one link failure, ND-bgpigp,
//                 alarm threshold 2) replayed in passes through one
//                 unix-socket svc::Client against an in-process ephemeral
//                 svc::Server with 1 worker, client and server sharing one
//                 core. Every pass says hello to the same session and
//                 each episode's set_baseline resets it. op = one observe
//                 round trip. Codec and socket dominate.
//   fleet_ingest  The netdiag-agent world (165 ASes, 10 random-stub
//                 sensors) with a healthy mesh H and a mesh F that loses a
//                 single-homed sensor's uplink. Three shipper threads follow
//                 the agent's healthy path through public calls — append 8
//                 rounds (6 x H, 2 x F) to a spool, read them back and
//                 decode, ship one observe_batch, mark_shipped — into one
//                 shared session of a durable server (fsync=batch, 4
//                 workers). op = one observation, from its spool append to
//                 the ack that covers it. The only workload with disk writes
//                 and contention on one session lock.
//   diagnose_1k   Eight 1000-AS random Internets, each with 44 sensors and
//                 its 128 busiest links failed, diagnosed in turn in
//                 process: set_baseline (untimed), then
//                 Troubleshooter::observe + core::to_json. op = one
//                 diagnosis. All core: no wire, no disk.
//
// The two single-threaded workloads, replay_wire and diagnose_1k, keep the
// process on one core at a time. They move it to the next core before
// every set-up, and between ops (replay_wire: between passes) once it has
// had a quarter second, so a run samples every core of a shared host
// (CoreRotation).
//
// Usage:
//   bench_e2e --workload NAME [--seed N] [--seconds S] [--trace-out FILE]
//             [--workdir DIR]
//
// Set-up runs at least three times, more (up to 200) while the total stays
// under two seconds, and the median is reported as setup_s. replay_wire's
// recording is made once, before its set-ups, and is not part of them; each
// set-up parses the recorded trace files. Runtime files (sockets, spools,
// journals) live in a temporary directory under --workdir that is removed
// on exit. The last line of stdout is one JSON object
// {"correct","attempted","failed","metrics"}: the end-to-end metrics, or,
// with --trace-out, the per-layer ones.
//
// The traced run installs obs::TraceSink and, on half of its passes, calls
// each layer's public functions inside bench-side spans; the other half run
// plain for comparison. Tracing a pass also makes the server's own
// rx_* / journal_append / observe / build_graph / build_demands / solve spans
// record (the bench stamps its span on every frame it sends). The codec
// work a Client::call does out of sight is mirrored beside the call in
// spans of its own, so call time splits into codec layers plus an
// unattributed remainder (socket, dispatch). Layers a workload's op does
// not cross are timed by off-path probes on the op's own inputs. The spans
// are folded by name into a ledger (FILE.ledger.json) and the Chrome trace
// is written to FILE. BENCHMARK.md defines every metric.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <variant>
#include <vector>

#include "agent/spool.h"
#include "core/json_export.h"
#include "core/solver.h"
#include "core/troubleshooter.h"
#include "exp/runner.h"
#include "obs/span.h"
#include "obs/trace_context.h"
#include "probe/sensors.h"
#include "probe/synthetic.h"
#include "svc/client.h"
#include "svc/journal.h"
#include "svc/json.h"
#include "svc/protocol.h"
#include "svc/server.h"
#include "svc/trace.h"
#include "topo/generator.h"
#include "topo/random_internet.h"
#include "util/rng.h"

namespace fs = std::filesystem;
using namespace netd;

namespace {

using Clock = std::chrono::steady_clock;

/// The timed window, when --seconds does not say.
constexpr double kDefaultSeconds = 30.0;
constexpr std::size_t kMinSetupReps = 3;
constexpr std::size_t kMaxSetupReps = 200;
constexpr double kSetupBudgetS = 2.0;
/// Off-path probes may take at most this share of a traced run's elapsed
/// time; the rest goes to ops.
constexpr double kProbeShare = 0.2;
/// The traced run mirrors the codec work of one op-path round trip in this
/// many.
constexpr std::size_t kMirrorEvery = 8;
/// ops_per_s is a median over this many blocks of a run's ops.
constexpr std::size_t kBlocks = 40;
/// op_p99_ms is a median over this many blocks of a run's ops.
constexpr std::size_t kTailBlocks = 10;
/// A single-threaded workload moves to the next core after this long.
constexpr auto kCoreSlice = std::chrono::milliseconds(250);

double secs(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
double msecs(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}
double usecs(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

/// The traced run traces half of its passes and runs the rest plain, so
/// one run times the op path with and without tracing and the machine's
/// drift cancels from the comparison. The pick is a hash of the pass
/// index, not its parity, which would alias with the two rounds of a
/// replay_wire episode.
bool traced_pass(std::uint64_t index) {
  return (obs::ids::mix64(index) & 1) == 0;
}

/// Linear interpolation between closest ranks of sorted `v`.
double quantile(const std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return quantile(v, 0.5);
}

/// Throughput as the median, over kBlocks consecutive blocks of equally
/// many ops, of a block's ops over the time it took. A burst of outside
/// interference moves a few blocks, where it would move a whole-window
/// mean.
double block_throughput(std::vector<Clock::time_point> done,
                        Clock::time_point start) {
  std::sort(done.begin(), done.end());
  const std::size_t n = std::max<std::size_t>(1, done.size() / kBlocks);
  std::vector<double> rates;
  Clock::time_point prev = start;
  for (std::size_t i = n; i <= done.size(); i += n) {
    const double s = secs(done[i - 1] - prev);
    if (s > 0.0) rates.push_back(static_cast<double>(n) / s);
    prev = done[i - 1];
  }
  return median(rates);
}

/// The 99th percentile as the median, over kTailBlocks consecutive blocks
/// of equally many ops in completion order, of a block's 99th percentile.
/// The host's stalls last from a fraction of a second to seconds; one that
/// fills a block moves one value of ten, where it would move the p99 of
/// the whole window.
double block_p99(const std::vector<double>& ms,
                 const std::vector<Clock::time_point>& done) {
  std::vector<std::size_t> order(ms.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&done](std::size_t a, std::size_t b) {
                     return done[a] < done[b];
                   });
  const std::size_t n = ms.size();
  const std::size_t k = std::clamp<std::size_t>(n, 1, kTailBlocks);
  std::vector<double> p99s;
  for (std::size_t b = 0; b < k; ++b) {
    std::vector<double> block;
    for (std::size_t i = b * n / k; i < (b + 1) * n / k; ++i) {
      block.push_back(ms[order[i]]);
    }
    std::sort(block.begin(), block.end());
    p99s.push_back(quantile(block, 0.99));
  }
  return median(p99s);
}

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
std::uint64_t fnv1a(std::uint64_t h, std::string_view s) {
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::string num(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

/// A directory that is removed, with everything in it, when this goes.
class ScratchDir {
 public:
  explicit ScratchDir(std::string path) : path_(std::move(path)) {
    fs::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  [[nodiscard]] std::string at(const std::string& name) const {
    return path_ + "/" + name;
  }

 private:
  std::string path_;
};

/// Keeps the whole process, every thread of it, on one core at a time and
/// takes the allowed cores in turn. On a shared host each virtual core
/// slows and recovers on its own, with the load on the physical core under
/// it, for seconds to minutes. A single-threaded workload left on one core
/// measures that core's spells: its runs swung by up to a third, while
/// fleet_ingest, whose threads spread over the cores, stayed within 5%.
/// Turning over the cores averages the spells the same way.
class CoreRotation {
 public:
  CoreRotation() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) cpus_.push_back(c);
      }
    }
  }

  /// Moves to the next core now.
  void next() {
    moved_ = Clock::now();
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[turn_++ % cpus_.size()], &one);
    (void)::sched_setaffinity(0, sizeof(one), &one);
    std::error_code ec;
    for (const auto& task : fs::directory_iterator("/proc/self/task", ec)) {
      const auto tid = static_cast<pid_t>(
          std::strtol(task.path().filename().c_str(), nullptr, 10));
      if (tid > 0) (void)::sched_setaffinity(tid, sizeof(one), &one);
    }
  }

  /// Moves to the next core once this one has had kCoreSlice.
  void tick() {
    if (Clock::now() - moved_ >= kCoreSlice) next();
  }

 private:
  std::vector<int> cpus_;
  std::size_t turn_ = 0;
  Clock::time_point moved_ = Clock::now();
};

svc::Endpoint unix_endpoint(const std::string& path) {
  svc::Endpoint ep;
  ep.kind = svc::Endpoint::Kind::kUnix;
  ep.path = path;
  return ep;
}

// ---------------------------------------------------------------------------
// What one load thread measured. Threads keep their own and are summed at
// the end, so the hot loop takes no lock.

struct Tally {
  std::vector<double> op_ms;  ///< latency of each timed op that succeeded
  std::vector<Clock::time_point> done;  ///< when each of those completed
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> problems;  ///< first few correctness failures
  std::uint64_t sent = 0;     ///< fleet_ingest: batch items shipped
  std::uint64_t applied = 0;  ///< fleet_ingest: items the server applied

  // Traced run only.
  std::vector<double> plain_pass_us;  ///< untraced passes of a traced run
  std::size_t round_trips = 0;
  std::size_t calls = 0;  ///< mirrored round trips
  std::uint64_t frame_bytes = 0;
  std::size_t journal_passes = 0;
  std::uint64_t journal_bytes = 0;
  std::size_t rounds = 0;
  std::size_t diagnoses = 0;
  double graph_edges = 0.0;
  double failure_sets = 0.0;

  /// Op-path round trips mirror their codec work one time in
  /// kMirrorEvery, which keeps the mirrors' CPU from crowding the server.
  bool sample_mirror() { return round_trips++ % kMirrorEvery == 0; }

  void timed_op(double ms, Clock::time_point at) {
    op_ms.push_back(ms);
    done.push_back(at);
  }

  void fail(std::size_t ops, std::string what) {
    failed += ops;
    if (problems.size() < 5) problems.push_back(std::move(what));
  }
  void merge(const Tally& o) {
    op_ms.insert(op_ms.end(), o.op_ms.begin(), o.op_ms.end());
    done.insert(done.end(), o.done.begin(), o.done.end());
    attempted += o.attempted;
    failed += o.failed;
    for (const auto& p : o.problems) {
      if (problems.size() < 5) problems.push_back(p);
    }
    plain_pass_us.insert(plain_pass_us.end(), o.plain_pass_us.begin(),
                         o.plain_pass_us.end());
    calls += o.calls;
    frame_bytes += o.frame_bytes;
    journal_passes += o.journal_passes;
    journal_bytes += o.journal_bytes;
    rounds += o.rounds;
    diagnoses += o.diagnoses;
    graph_edges += o.graph_edges;
    failure_sets += o.failure_sets;
  }
};

// ---------------------------------------------------------------------------
// The layers' public calls, shared by the op paths and the probes. Spans
// cost one branch when no sink is installed.

/// The agent's spool record for one round (agent.cc's round_payload).
std::string round_payload(std::uint64_t round, const std::string& mesh_text) {
  return "{\"round\":" + std::to_string(round) + ",\"mesh\":" + mesh_text +
         "}";
}

/// The agent's decode of one spool record: Json::parse, then the mesh.
std::optional<probe::Mesh> decode_payload(std::string_view payload,
                                          std::string* error) {
  std::optional<svc::Json> doc;
  {
    obs::Span s("json_parse");
    doc = svc::Json::parse(payload, error);
  }
  if (!doc.has_value()) return std::nullopt;
  const svc::Json* mesh = doc->find("mesh");
  if (mesh == nullptr) {
    *error = "spool payload has no mesh";
    return std::nullopt;
  }
  obs::Span s("mesh_decode");
  return svc::mesh_from_json(*mesh, error);
}

/// Decodes every mesh (and control-plane block) of a parsed request frame,
/// as parse_request does after Json::parse.
void decode_frame_payload(const svc::Json& frame) {
  std::string error;
  auto one = [&error](const svc::Json& holder) {
    if (const svc::Json* m = holder.find("mesh"); m != nullptr) {
      (void)svc::mesh_from_json(*m, &error);
    }
    if (const svc::Json* cp = holder.find("cp"); cp != nullptr) {
      (void)svc::cp_from_json(*cp, &error);
    }
  };
  one(frame);
  if (const svc::Json* items = frame.find("items"); items != nullptr) {
    for (std::size_t i = 0; i < items->size(); ++i) one((*items)[i]);
  }
}

/// One request/response exchange. Inside a traced pass the call sits in a
/// "call" span whose context rides the frame's trace field, so the
/// server's spans nest under it. With `mirror` the codec work the call
/// does inside the client and the server is then re-run beside it:
/// request_encode, server_decode (frame_parse + frame_decode) and
/// response_codec.
std::optional<svc::Response> round_trip(svc::Client& client,
                                        svc::Request request, bool mirror,
                                        Tally& tally, std::string* error) {
  if (!obs::Span::current().valid()) return client.call(request, error);
  std::optional<svc::Response> rsp;
  {
    obs::Span call("call");
    const obs::TraceContext tc{call.context().trace_id,
                               call.context().span_id};
    if (auto* r = std::get_if<svc::ObserveRequest>(&request)) r->trace = tc;
    if (auto* r = std::get_if<svc::ObserveBatchRequest>(&request)) {
      r->trace = tc;
    }
    rsp = client.call(request, error);
  }
  if (!mirror) return rsp;
  std::string frame;
  {
    obs::Span s("request_encode");
    frame = svc::serialize(request);
  }
  ++tally.calls;
  tally.frame_bytes += frame.size() + 1;
  {
    obs::Span s("server_decode");
    std::optional<svc::Json> doc;
    {
      obs::Span p("frame_parse");
      doc = svc::Json::parse(frame);
    }
    if (doc.has_value()) {
      obs::Span d("frame_decode");
      decode_frame_payload(*doc);
    }
  }
  if (rsp.has_value()) {
    obs::Span s("response_codec");
    (void)svc::parse_response(svc::serialize(*rsp), nullptr);
  }
  return rsp;
}

svc::Json bobs_record(std::uint64_t seq, const probe::Mesh& mesh,
                      const core::ControlPlaneObs* cp) {
  // The record shape the durable server journals per applied batch item.
  svc::Json j = svc::Json::object();
  j.set("t", svc::Json::string("bobs"));
  j.set("src", svc::Json::string("shipper"));
  j.set("seq", svc::Json::uinteger(seq));
  j.set("mesh", svc::mesh_to_json(mesh));
  if (cp != nullptr) j.set("cp", svc::cp_to_json(*cp));
  return j;
}

// ---------------------------------------------------------------------------
// Off-path probes (traced run only): the layers an op does not cross,
// timed on the op's own inputs under root spans of their own.

/// Budget gate: probes run while they have used at most kProbeShare of the
/// time since the traced loop started.
class ProbeBudget {
 public:
  explicit ProbeBudget(Clock::time_point start) : start_(start) {}
  [[nodiscard]] bool allow() const {
    return probe_s_ <= kProbeShare * secs(Clock::now() - start_);
  }
  void spent(Clock::time_point since) {
    probe_s_ += secs(Clock::now() - since);
  }

 private:
  Clock::time_point start_;
  double probe_s_ = 0.0;
};

/// SessionJournal::append of the bobs record a durable server would write
/// for the op's observation, under the server's default fsync policy and
/// snapshot cadence.
class JournalProbe {
 public:
  [[nodiscard]] bool open(const std::string& dir, std::string* error) {
    svc::SessionJournal::Options o;
    o.dir = dir;
    o.fsync = svc::FsyncPolicy::kBatch;
    journal_ = svc::SessionJournal::open(std::move(o), error);
    return journal_ != nullptr;
  }

  void append(const probe::Mesh& mesh, const core::ControlPlaneObs* cp,
              const obs::SpanContext& root, Tally& tally) {
    const svc::Json rec = bobs_record(++seq_, mesh, cp);
    obs::Span r("probe_journal", root, 0);
    obs::Span s("journal_append");
    const std::string payload = rec.dump();
    std::string error;
    if (journal_->append(payload, &error) == 0) {
      tally.fail(0, "journal probe: " + error);
      return;
    }
    ++tally.journal_passes;
    tally.journal_bytes += payload.size();
    if (journal_->snapshot_due()) {
      svc::Json doc = svc::Json::object();
      doc.set("wal", svc::Json::uinteger(journal_->last_lsn()));
      doc.set("baseline", svc::mesh_to_json(mesh));
      (void)journal_->commit_snapshot(doc.dump() + "\n", &error);
    }
  }

 private:
  std::unique_ptr<svc::SessionJournal> journal_;
  std::uint64_t seq_ = 0;
};

/// The agent's ship path for one round: append, read back and decode,
/// mark shipped. Shipped segments are deleted, as with retain_acked=false.
class SpoolProbe {
 public:
  [[nodiscard]] bool open(const std::string& dir, std::string* error) {
    agent::Spool::Options o;
    o.dir = dir;
    o.retain_acked = false;
    spool_ = agent::Spool::open(std::move(o), error);
    return spool_ != nullptr;
  }

  void ship(const probe::Mesh& mesh, const obs::SpanContext& root,
            Tally& tally) {
    const std::string payload = round_payload(
        spool_->last_seq() + 1, svc::mesh_to_json(mesh).dump());
    obs::Span r("probe_spool", root, 0);
    std::string error;
    std::uint64_t seq = 0;
    {
      obs::Span s("spool_append");
      seq = spool_->append(payload, &error);
    }
    bool ok = seq != 0;
    if (ok) {
      obs::Span s("spool_read");
      ok = spool_->for_each(
          seq - 1,
          [&](std::uint64_t, std::string_view p) {
            return decode_payload(p, &error).has_value();
          },
          &error);
    }
    if (ok) {
      obs::Span s("mark_shipped");
      ok = spool_->mark_shipped(seq, &error);
    }
    if (!ok) tally.fail(0, "spool probe: " + error);
  }

 private:
  std::unique_ptr<agent::Spool> spool_;
};

/// An in-process Troubleshooter fed the op's rounds, for the diagnosis
/// encode (done inside the server, out of sight) and the work counts.
class CoreProbe {
 public:
  explicit CoreProbe(const core::Troubleshooter::Config& cfg)
      : cfg_(cfg), ts_(cfg) {}

  void baseline(const probe::Mesh& mesh) { ts_.set_baseline(mesh); }

  void round(const probe::Mesh& mesh, const core::ControlPlaneObs* cp,
             Tally& tally) {
    ++tally.rounds;
    const auto out = ts_.observe(mesh, cp);
    if (!out.has_value()) return;
    {
      obs::Span s("diag_encode");
      (void)core::to_json(out->graph, out->result);
    }
    ++tally.diagnoses;
    tally.graph_edges += static_cast<double>(out->graph.edges.size());
    tally.failure_sets += static_cast<double>(
        core::build_demands(out->graph, cfg_.solver,
                            cfg_.solver.use_control_plane ? cp : nullptr)
            .failure_sets.size());
  }

 private:
  core::Troubleshooter::Config cfg_;
  core::Troubleshooter ts_;
};

// ---------------------------------------------------------------------------
// Ledger: spans folded by name within each root tree kind.

struct Row {
  std::size_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;
  std::vector<double> dur_us;
};

struct Group {
  std::size_t roots = 0;  ///< passes: one root span each
  std::map<std::string, Row> rows;
};

using Ledger = std::map<std::string, Group>;  // keyed by root span name

Ledger fold(const std::vector<obs::TraceEvent>& evs) {
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::unordered_map<std::uint64_t, std::size_t> by_id;
  by_id.reserve(evs.size());
  for (std::size_t i = 0; i < evs.size(); ++i) by_id.emplace(evs[i].span_id, i);
  std::vector<std::size_t> parent(evs.size(), kNone);
  std::vector<double> child_us(evs.size(), 0.0);
  for (std::size_t i = 0; i < evs.size(); ++i) {
    const auto it = by_id.find(evs[i].parent_id);
    if (it == by_id.end() || it->second == i) continue;
    parent[i] = it->second;
    child_us[it->second] += evs[i].dur_us;
  }
  std::vector<std::size_t> root(evs.size(), kNone);
  std::vector<std::size_t> path;
  for (std::size_t i = 0; i < evs.size(); ++i) {
    std::size_t r = i;
    path.clear();
    while (root[r] == kNone && parent[r] != kNone) {
      path.push_back(r);
      r = parent[r];
    }
    const std::size_t top = root[r] != kNone ? root[r] : r;
    root[r] = top;
    for (const std::size_t p : path) root[p] = top;
  }
  Ledger out;
  for (std::size_t i = 0; i < evs.size(); ++i) {
    Group& g = out[evs[root[i]].name];
    if (root[i] == i) ++g.roots;
    Row& row = g.rows[evs[i].name];
    ++row.count;
    row.total_us += evs[i].dur_us;
    row.self_us += evs[i].dur_us - child_us[i];
    row.dur_us.push_back(evs[i].dur_us);
  }
  return out;
}

/// Spans that re-run, beside a sampled call, codec work the call does
/// inside. Each occurs once per mirrored call.
bool is_mirror(const std::string& name) {
  return name == "request_encode" || name == "server_decode" ||
         name == "frame_parse" || name == "frame_decode" ||
         name == "response_codec";
}

/// A row's time per pass. Mirror rows average over the calls they
/// mirrored (one call per pass); every other row over the tree's passes.
double per_pass(const Group& g, const std::string& name, bool self) {
  const auto it = g.rows.find(name);
  if (it == g.rows.end() || g.roots == 0) return 0.0;
  const Row& r = it->second;
  const double n = static_cast<double>(is_mirror(name) ? r.count : g.roots);
  return (self ? r.self_us : r.total_us) / n;
}

/// Call time the mirrored codec layers and the server's spans leave
/// unexplained: socket IO, dispatch, queueing, client bookkeeping.
double unattributed(const Group& g) {
  return per_pass(g, "call", true) - per_pass(g, "request_encode", false) -
         per_pass(g, "server_decode", false) -
         per_pass(g, "response_codec", false);
}

/// The tree that measures span `name`: the op path when the op crosses
/// that layer, otherwise the probe that stands in for it.
const Group* source(const Ledger& ledger, const std::string& name) {
  if (const auto it = ledger.find("op");
      it != ledger.end() && it->second.rows.count(name) != 0) {
    return &it->second;
  }
  for (const auto& [root, g] : ledger) {
    if (root != "op" && g.rows.count(name) != 0) return &g;
  }
  return nullptr;
}

/// A tree's rows: each span's self time per pass, with the call span's
/// replaced by the unattributed remainder. On the op path they add up to
/// the traced pass time less the mirrors' own cost.
std::vector<std::pair<std::string, double>> ledger_rows(const Group& g) {
  std::vector<std::pair<std::string, double>> rows;
  for (const auto& [name, row] : g.rows) {
    rows.push_back(
        {name, name == "call" ? unattributed(g) : per_pass(g, name, true)});
  }
  return rows;
}

double rows_sum(const Group& g) {
  double sum = 0.0;
  for (const auto& [name, v] : ledger_rows(g)) sum += v;
  return sum;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// Per-layer metrics (µs per pass, where a pass is one op — one shipped
/// batch on fleet_ingest), the work counts, and the traced and plain pass
/// times of the same run.
Metrics layer_metrics(const Ledger& ledger, const Tally& t) {
  auto layer = [&ledger](const char* span, bool self = false) {
    const Group* g = source(ledger, span);
    return g != nullptr ? per_pass(*g, span, self) : 0.0;
  };
  // The agent's own spool decode, counted only where it is on the op path.
  auto on_path = [&ledger](const char* span) {
    const auto it = ledger.find("op");
    return it != ledger.end() ? per_pass(it->second, span, false) : 0.0;
  };
  auto ratio = [](auto a, auto b) {
    return b > 0 ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
  };
  const Group* call = source(ledger, "call");
  const char* rx = source(ledger, "rx_observe_batch") != nullptr
                       ? "rx_observe_batch"
                       : "rx_observe";
  return {
      {"svc.request_encode_us", layer("request_encode"), "us"},
      {"svc.json_parse_us", layer("frame_parse") + on_path("json_parse"),
       "us"},
      {"svc.mesh_decode_us", layer("frame_decode") + on_path("mesh_decode"),
       "us"},
      {"svc.response_codec_us", layer("response_codec"), "us"},
      {"svc.frame_bytes", ratio(t.frame_bytes, t.calls), "bytes"},
      {"svc.call_us", layer("call"), "us"},
      {"svc.unattributed_us", call != nullptr ? unattributed(*call) : 0.0,
       "us"},
      {"svc.lock_wait_us", layer(rx, true), "us"},
      {"svc.journal_append_us", layer("journal_append"), "us"},
      {"svc.journal_bytes", ratio(t.journal_bytes, t.journal_passes),
       "bytes"},
      {"agent.spool_append_us", layer("spool_append"), "us"},
      {"agent.spool_read_us", layer("spool_read", true), "us"},
      {"agent.mark_shipped_us", layer("mark_shipped"), "us"},
      {"probe.detector_us", layer("observe", true), "us"},
      {"core.observe_us", layer("observe"), "us"},
      {"core.build_graph_us", layer("build_graph"), "us"},
      {"core.build_demands_us", layer("build_demands"), "us"},
      {"core.solve_us", layer("solve") - layer("build_demands"), "us"},
      {"core.diag_encode_us", layer("diag_encode"), "us"},
      {"core.diagnoses_per_round", ratio(t.diagnoses, t.rounds), "count"},
      {"core.graph_edges", ratio(t.graph_edges, t.diagnoses), "count"},
      {"core.failure_sets", ratio(t.failure_sets, t.diagnoses), "count"},
      {"trace.pass_us",
       ledger.count("op") != 0 ? rows_sum(ledger.at("op")) : 0.0, "us"},
      {"trace.plain_pass_us",
       ratio(std::accumulate(t.plain_pass_us.begin(), t.plain_pass_us.end(),
                             0.0),
             t.plain_pass_us.size()),
       "us"},
  };
}

/// Prints the ledger and writes it as JSON.
bool write_ledger(const Ledger& ledger, const std::string& path,
                  std::string* error) {
  svc::Json groups = svc::Json::object();
  std::printf("\nLedger (us per pass, self time)\n");
  for (const auto& [root, g] : ledger) {
    if (g.roots == 0) continue;
    std::vector<std::pair<std::string, double>> order = ledger_rows(g);
    const double sum = rows_sum(g);
    std::sort(order.begin(), order.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    std::printf("  [%s] %zu passes%s; rows sum %.1f us\n", root.c_str(),
                g.roots, root == "op" ? "" : " (off the op path)", sum);
    std::printf("    %-18s %9s %12s %10s %10s %10s %7s\n", "row", "count",
                "total_ms", "self_us", "p50_us", "p99_us", "share");
    svc::Json rows = svc::Json::array();
    for (const auto& [name, v] : order) {
      const Row& row = g.rows.at(name);
      std::vector<double> d = row.dur_us;
      std::sort(d.begin(), d.end());
      const std::string label = name == "call" ? "unattributed"
                                : name == root ? "unspanned"
                                               : name;
      std::printf("    %-18s %9zu %12.2f %10.2f %10.2f %10.2f %6.1f%%\n",
                  label.c_str(), row.count, row.total_us / 1000.0, v,
                  quantile(d, 0.5), quantile(d, 0.99),
                  sum > 0.0 ? 100.0 * v / sum : 0.0);
      svc::Json r = svc::Json::object();
      r.set("row", svc::Json::string(label));
      r.set("span", svc::Json::string(name));
      r.set("mirror", svc::Json::boolean(is_mirror(name)));
      r.set("count", svc::Json::uinteger(row.count));
      r.set("total_ms", svc::Json::number(row.total_us / 1000.0));
      r.set("self_us_per_pass", svc::Json::number(v));
      r.set("span_p50_us", svc::Json::number(quantile(d, 0.5)));
      r.set("span_p99_us", svc::Json::number(quantile(d, 0.99)));
      r.set("share", svc::Json::number(sum > 0.0 ? v / sum : 0.0));
      rows.push_back(std::move(r));
    }
    svc::Json gj = svc::Json::object();
    gj.set("passes", svc::Json::uinteger(g.roots));
    gj.set("rows_sum_us", svc::Json::number(sum));
    gj.set("rows", std::move(rows));
    groups.set(root, std::move(gj));
  }
  std::printf("  (the unattributed row's p50/p99 are the call's)\n");
  std::ofstream os(path);
  os << groups.dump() << "\n";
  if (!os) {
    *error = "cannot write " + path;
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Workloads. Each returns an Outcome; main() turns it into metrics.

struct Args {
  std::string workload;
  std::optional<std::uint64_t> seed;
  std::optional<double> seconds;
  std::string trace_out;
  std::string workdir = ".";
};

struct Outcome {
  std::string error;               ///< set-up or infrastructure failure
  std::vector<double> setup_s;     ///< one per set-up repetition
  std::vector<Tally> threads;      ///< one per load thread
  Clock::time_point start;  ///< of the timed window
  double window_s = 0.0;
  std::uint64_t digest = kFnvOffset;
  std::vector<std::string> checks;  ///< what the correctness verdict covers
};

/// Runs `make` at least kMinSetupReps times, and more while the total stays
/// under kSetupBudgetS (a cheap set-up's median needs more draws), timing
/// each, and keeps the last result. Earlier results are destroyed before
/// the next repetition starts.
template <typename T, typename Make>
std::unique_ptr<T> timed_setups(Make make, Outcome& out) {
  std::unique_ptr<T> state;
  double total = 0.0;
  for (std::size_t rep = 0;
       rep < kMinSetupReps || (total < kSetupBudgetS && rep < kMaxSetupReps);
       ++rep) {
    state.reset();
    const auto t0 = Clock::now();
    state = make(rep, &out.error);
    out.setup_s.push_back(secs(Clock::now() - t0));
    total += out.setup_s.back();
    if (state == nullptr) return nullptr;
  }
  return state;
}

// --- replay_wire -----------------------------------------------------------

/// The replayed input: exp::Runner trace files, as text, and the session
/// config they were made with.
struct Recording {
  svc::SessionConfig config;
  std::vector<std::string> traces;
};

/// Recordings per run, from seeds --seed * kRecordings + 0..3, each with
/// a topology of its own; a pass replays them one after the other, so the
/// op mix averages over four topologies rather than following one.
constexpr std::size_t kRecordings = 4;

/// Records the input. This is the workload's input generation, not the
/// system's set-up, and it is not timed: the BGP simulation slowed by up
/// to 70% with the other tenants' load while the ops slowed by 5-15%, and
/// moved setup_s's median by a third between two series on the same seeds.
std::optional<Recording> record_replay(std::uint64_t seed,
                                       std::string* error) {
  Recording out;
  out.config.alarm_threshold = 2;  // ND-bgpigp, per-neighbor: the defaults
  exp::ScenarioConfig cfg;
  cfg.num_placements = 1;
  cfg.trials_per_placement = 3;  // 12 episodes, 24 observes a pass
  cfg.num_link_failures = 1;
  cfg.num_threads = 1;
  for (std::size_t k = 0; k < kRecordings; ++k) {
    cfg.seed = seed * kRecordings + k;
    std::ostringstream os;
    exp::Runner runner(cfg);
    if (!runner.record_trace(os, out.config, error).has_value()) {
      return std::nullopt;
    }
    out.traces.push_back(std::move(os).str());
  }
  return out;
}

/// The one session every pass uses.
constexpr char kReplaySession[] = "replay";

/// What a timed set-up brings up: the parsed trace files, the server, a
/// connected client and the session.
struct ReplayState {
  const Recording* input = nullptr;
  std::vector<svc::TraceRecord> records;
  std::unique_ptr<ScratchDir> dir;  // destroyed last
  std::unique_ptr<svc::Server> server;
  std::optional<svc::Client> client;

  ~ReplayState() {
    client.reset();
    if (server != nullptr) server->stop();
  }
};

/// Loading the trace files is part of the set-up, as it is for a replay
/// from disk. Without it the set-up was a server start and one hello,
/// about 0.2 ms, whose per-run median halved or doubled with thread
/// wake-up latency on the host.
std::unique_ptr<ReplayState> replay_setup(const Recording& input,
                                          std::size_t rep,
                                          std::string* error) {
  auto st = std::make_unique<ReplayState>();
  st->input = &input;
  for (const std::string& text : input.traces) {
    std::istringstream is(text);
    auto records = svc::read_trace(is, error);
    if (!records.has_value()) return nullptr;
    st->records.insert(st->records.end(),
                       std::make_move_iterator(records->begin()),
                       std::make_move_iterator(records->end()));
  }
  st->dir = std::make_unique<ScratchDir>("replay" + std::to_string(rep));
  svc::Server::Options opts;
  opts.endpoint = unix_endpoint(st->dir->at("e2e.sock"));
  opts.num_threads = 1;  // one connection; client and server share one core
  st->server = std::make_unique<svc::Server>(opts);
  if (!st->server->start(error)) return nullptr;
  st->client = svc::Client::connect(st->server->endpoint(), error);
  if (!st->client.has_value() ||
      !svc::expect_response(
          st->client->call(
              svc::HelloRequest{kReplaySession, input.config, std::nullopt},
              error),
          static_cast<svc::HelloResponse*>(nullptr), error)) {
    return nullptr;
  }
  return st;
}

/// Traced-run helpers for replay_wire: the probes for the layers an
/// ephemeral server's observe does not cross.
struct ReplayProbes {
  JournalProbe journal;
  SpoolProbe spool;
  CoreProbe core;
  ProbeBudget budget;
};

/// One pass over the recording. Every pass uses the same session, so the
/// server holds one session however many passes run; the recording opens
/// each episode with set_baseline, which resets the session's rounds,
/// detector and diagnosis. Returns false when the pass stopped early: the
/// window closed or the transport failed.
bool replay_pass(ReplayState& st, std::size_t pass, bool timed,
                 Clock::time_point deadline, std::uint64_t trace_seed,
                 std::uint64_t* op_index, ReplayProbes* probes, Tally& tally,
                 std::uint64_t* digest) {
  const std::string session = kReplaySession;
  const std::vector<svc::TraceRecord>& records = st.records;
  std::string error;
  if (!svc::expect_response(
          st.client->call(
              svc::HelloRequest{session, st.input->config, std::nullopt},
              &error),
          static_cast<svc::HelloResponse*>(nullptr), &error)) {
    tally.fail(0, "hello: " + error);
    return false;
  }
  const std::size_t n = records.size();
  bool probing = false;
  for (std::size_t i = 0; i < n; ++i) {
    const svc::TraceRecord& rec = records[i];
    if (rec.type == svc::TraceRecord::Type::kBaseline) {
      error.clear();
      if (!svc::expect_response(
              st.client->call(
                  svc::SetBaselineRequest{session, rec.mesh, std::nullopt},
                  &error),
              static_cast<svc::SetBaselineResponse*>(nullptr), &error)) {
        tally.fail(0, "set_baseline: " + error);
        return false;
      }
      // Probes sample whole episodes: the core probe's troubleshooter
      // needs every round from the baseline on.
      probing = probes != nullptr && probes->budget.allow();
      if (probing) probes->core.baseline(rec.mesh);
      continue;
    }
    if (rec.type != svc::TraceRecord::Type::kRound) continue;
    if (timed && Clock::now() >= deadline) return false;
    const std::string* expect =
        i + 1 < n && records[i + 1].type ==
                         svc::TraceRecord::Type::kDiagnosis
            ? &records[i + 1].diagnosis
            : nullptr;
    const std::uint64_t index = (*op_index)++;
    const bool traced = probes != nullptr && traced_pass(index);
    const auto t0 = Clock::now();
    std::optional<svc::Response> rsp;
    error.clear();
    {
      std::optional<obs::Span> op;
      if (traced) {
        op.emplace("op", obs::Span::root_context(trace_seed, index, 1), 0);
      }
      rsp = round_trip(*st.client,
                       svc::ObserveRequest{session, rec.mesh, rec.cp},
                       traced && tally.sample_mirror(), tally, &error);
    }
    const auto t1 = Clock::now();
    if (timed && probes != nullptr && !traced) {
      tally.plain_pass_us.push_back(usecs(t1 - t0));
    }
    if (timed) ++tally.attempted;
    svc::ObserveResponse obs_rsp;
    if (!svc::expect_response(std::move(rsp), &obs_rsp, &error)) {
      tally.fail(timed ? 1 : 0, "observe: " + error);
      return false;
    }
    if (obs_rsp.diagnosis.has_value() != (expect != nullptr) ||
        (expect != nullptr && *obs_rsp.diagnosis != *expect)) {
      tally.fail(timed ? 1 : 0,
                 "pass " + std::to_string(pass) + " record " +
                     std::to_string(i) +
                     ": diagnosis differs from the recording");
    } else if (timed) {
      tally.timed_op(msecs(t1 - t0), t1);
    }
    if (digest != nullptr && obs_rsp.diagnosis.has_value()) {
      *digest = fnv1a(*digest, *obs_rsp.diagnosis);
    }
    if (probing) {
      const core::ControlPlaneObs* cp = rec.cp ? &*rec.cp : nullptr;
      const obs::SpanContext root =
          obs::Span::root_context(trace_seed, index, 2);
      const auto p0 = Clock::now();
      {
        obs::Span r("probe_core", root, 0);
        probes->core.round(rec.mesh, cp, tally);
      }
      probes->journal.append(rec.mesh, cp, root, tally);
      probes->spool.ship(rec.mesh, root, tally);
      probes->budget.spent(p0);
    }
  }
  return true;
}

Outcome run_replay_wire(const Args& args, std::uint64_t seed, double seconds,
                        std::uint64_t trace_seed) {
  Outcome out;
  out.checks = {"every observe diagnosis is byte-identical to the recording"};
  // The client and the server it starts share one core (threads inherit
  // the mask, and the rotation moves them together). A round trip then
  // costs the codec, the syscalls and a same-core switch; waking another
  // idle virtual CPU instead costs a latency set by the host's load, which
  // swung this workload's runs by up to a third.
  CoreRotation cores;
  const std::optional<Recording> input = record_replay(seed, &out.error);
  if (!input.has_value()) return out;
  auto st = timed_setups<ReplayState>(
      [&input, &cores](std::size_t rep, std::string* e) {
        cores.next();
        return replay_setup(*input, rep, e);
      },
      out);
  if (st == nullptr) return out;
  out.threads.resize(1);
  Tally& tally = out.threads[0];
  std::uint64_t op_index = 0;
  // Warm-up pass: untimed, checked, and the source of the output digest.
  if (!replay_pass(*st, 0, false, Clock::time_point::max(), trace_seed,
                   &op_index, nullptr, tally, &out.digest)) {
    return out;
  }
  std::optional<ReplayProbes> probes;
  if (!args.trace_out.empty()) {
    const auto resolved = input->config.resolve(&out.error);
    if (!resolved.has_value()) return out;
    probes.emplace(ReplayProbes{{}, {}, CoreProbe(*resolved),
                                ProbeBudget(Clock::now())});
    if (!probes->journal.open(st->dir->at("journal"), &out.error) ||
        !probes->spool.open(st->dir->at("spool"), &out.error)) {
      return out;
    }
    obs::TraceSink::install();
  }
  const auto t0 = Clock::now();
  const auto deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds));
  if (probes.has_value()) probes->budget = ProbeBudget(t0);
  for (std::size_t pass = 1; Clock::now() < deadline; ++pass) {
    cores.tick();
    if (!replay_pass(*st, pass, true, deadline, trace_seed, &op_index,
                     probes ? &*probes : nullptr, tally, nullptr)) {
      if (!tally.problems.empty()) break;
    }
  }
  out.start = t0;
  out.window_s = secs(Clock::now() - t0);
  return out;
}

// --- fleet_ingest ----------------------------------------------------------

constexpr std::size_t kShippers = 3;
constexpr std::size_t kBatch = 8;
constexpr std::size_t kHealthyPerBatch = 6;

struct FleetState {
  std::unique_ptr<ScratchDir> dir;  // destroyed last
  probe::Mesh healthy;
  probe::Mesh failed;
  std::string healthy_text;  ///< mesh_to_json(healthy).dump()
  std::string failed_text;
  std::string expected;  ///< diagnosis of (H, F)
  core::Troubleshooter::Config resolved;
  svc::SessionConfig config;
  std::uint64_t bobs_bytes_per_batch = 0;
  std::unique_ptr<svc::Server> server;

  ~FleetState() {
    if (server != nullptr) server->stop();
  }
};

/// The netdiag-agent measurement world (agent.cc's build_world with its
/// default sizes) and its failed mesh. The victim is the first
/// single-homed sensor's only uplink, as the agent picks it; should no
/// sensor be single-homed, the first probed link whose loss breaks a pair.
bool fleet_world(std::uint64_t seed, probe::Mesh* healthy, probe::Mesh* failed,
                 std::string* error) {
  topo::GeneratorParams p;
  p.seed = seed;
  p.target_ases = 165;
  p.pool_tier2 = 22;
  p.pool_stubs = 200;
  topo::Topology t = topo::generate(p);
  util::Rng prng(7);
  const std::size_t n = std::min<std::size_t>(
      10, probe::placement_capacity(t, probe::PlacementKind::kRandomStub));
  auto sensors =
      probe::place_sensors(t, probe::PlacementKind::kRandomStub, n, prng);
  std::vector<topo::LinkId> victims;
  for (const auto& s : sensors) {
    std::vector<topo::LinkId> up;
    for (const topo::LinkId l : t.links_of(s.attach)) {
      if (t.link(l).interdomain) up.push_back(l);
    }
    if (up.size() == 1) victims.push_back(up.front());
  }
  const probe::SyntheticProber prober(t, std::move(sensors));
  *healthy = prober.measure();
  for (const topo::LinkId l : healthy->probed_links()) victims.push_back(l);
  for (const topo::LinkId l : victims) {
    t.set_link_up(l, false);
    *failed = prober.measure();
    t.set_link_up(l, true);
    for (const auto& path : failed->paths) {
      if (!path.ok) return true;
    }
  }
  *error = "no single link failure breaks a sensor pair";
  return false;
}

std::unique_ptr<FleetState> fleet_setup(std::uint64_t seed, std::size_t rep,
                                        std::string* error) {
  auto st = std::make_unique<FleetState>();
  st->dir = std::make_unique<ScratchDir>("fleet" + std::to_string(rep));
  if (!fleet_world(seed, &st->healthy, &st->failed, error)) return nullptr;
  st->healthy_text = svc::mesh_to_json(st->healthy).dump();
  st->failed_text = svc::mesh_to_json(st->failed).dump();
  st->config.alarm_threshold = 2;  // the agent's default session config
  const auto resolved = st->config.resolve(error);
  if (!resolved.has_value()) return nullptr;
  st->resolved = *resolved;
  // The diagnosis every batch must return: 6 x H clears the detector, the
  // second F fires it against baseline H.
  core::Troubleshooter ts(st->resolved);
  ts.set_baseline(st->healthy);
  std::optional<core::AlgorithmOutput> fired;
  for (std::size_t k = 0; k < kBatch; ++k) {
    fired = ts.observe(k < kHealthyPerBatch ? st->healthy : st->failed);
    if (fired.has_value() != (k + 1 == kBatch)) {
      *error = "the failed mesh does not alarm on exactly the last round";
      return nullptr;
    }
  }
  st->expected = core::to_json(fired->graph, fired->result);
  st->bobs_bytes_per_batch =
      kHealthyPerBatch * bobs_record(1, st->healthy, nullptr).dump().size() +
      (kBatch - kHealthyPerBatch) *
          bobs_record(1, st->failed, nullptr).dump().size();

  svc::Server::Options opts;
  opts.endpoint = unix_endpoint(st->dir->at("e2e.sock"));
  opts.num_threads = 4;
  opts.state_dir = st->dir->at("state");
  opts.fsync = svc::FsyncPolicy::kBatch;
  st->server = std::make_unique<svc::Server>(opts);
  if (!st->server->start(error)) return nullptr;
  auto client = svc::Client::connect(st->server->endpoint(), error);
  if (!client.has_value()) return nullptr;
  if (!svc::expect_response(
          client->call(svc::HelloRequest{"fleet", st->config, std::nullopt},
                       error),
          static_cast<svc::HelloResponse*>(nullptr), error) ||
      !svc::expect_response(
          client->call(
              svc::SetBaselineRequest{"fleet", st->healthy, std::nullopt},
              error),
          static_cast<svc::SetBaselineResponse*>(nullptr), error)) {
    return nullptr;
  }
  return st;
}

/// One shipper thread: batches of kBatch rounds through the agent's
/// healthy ship path until `w1`. Ops acked inside [w0, w1] are timed.
void ship_loop(FleetState& st, std::size_t idx, Clock::time_point w0,
               Clock::time_point w1, std::uint64_t trace_seed, bool traced,
               Tally& tally) {
  std::string error;
  agent::Spool::Options so;
  so.dir = st.dir->at("spool-" + std::to_string(idx));
  so.retain_acked = false;  // keeps the spool's disk use bounded
  auto spool = agent::Spool::open(std::move(so), &error);
  auto client = spool != nullptr
                    ? svc::Client::connect(st.server->endpoint(), &error)
                    : std::nullopt;
  if (!client.has_value()) {
    tally.fail(0, "shipper " + std::to_string(idx) + ": " + error);
    return;
  }
  const std::string src = "shipper-" + std::to_string(idx);
  std::optional<CoreProbe> core;
  std::optional<ProbeBudget> budget;
  if (traced) {
    core.emplace(st.resolved);
    core->baseline(st.healthy);
    budget.emplace(Clock::now());
  }
  std::uint64_t ack = 0;
  for (std::uint64_t batch = 0; Clock::now() < w1; ++batch) {
    std::vector<std::string> payloads;
    for (std::size_t k = 0; k < kBatch; ++k) {
      payloads.push_back(round_payload(
          ack + k + 1,
          k < kHealthyPerBatch ? st.healthy_text : st.failed_text));
    }
    const std::uint64_t pass = ((idx + 1) << 40) | batch;
    const obs::SpanContext root = obs::Span::root_context(
        trace_seed, pass, static_cast<std::uint32_t>(idx + 1));
    const bool traced_batch = traced && traced_pass(pass);
    const auto start = Clock::now();
    {
      std::optional<obs::Span> op;
      if (traced_batch) op.emplace("op", root, 0);
      Clock::time_point appended[kBatch];
      bool ok = true;
      for (std::size_t k = 0; k < kBatch && ok; ++k) {
        obs::Span s("spool_append");
        appended[k] = Clock::now();
        ok = spool->append(payloads[k], &error) != 0;
      }
      svc::ObserveBatchRequest req{"fleet", src, {}, std::nullopt};
      if (ok) {
        obs::Span s("spool_read");
        ok = spool->for_each(
            ack,
            [&](std::uint64_t seq, std::string_view p) {
              auto mesh = decode_payload(p, &error);
              if (!mesh.has_value()) return false;
              req.items.push_back(
                  svc::ObserveItem{seq, std::move(*mesh), std::nullopt,
                                   std::nullopt});
              return true;
            },
            &error);
        ok = ok && req.items.size() == kBatch;
      }
      std::optional<svc::Response> rsp;
      if (ok) {
        rsp = round_trip(*client, svc::Request{std::move(req)},
                         traced_batch && tally.sample_mirror(), tally, &error);
      }
      const auto acked = Clock::now();
      const bool in_window = acked >= w0 && acked <= w1;
      if (in_window) tally.attempted += kBatch;
      svc::ObserveBatchResponse b;
      if (!ok || !svc::expect_response(std::move(rsp), &b, &error)) {
        tally.fail(in_window ? kBatch : 0, src + ": " + error);
        return;
      }
      tally.sent += kBatch;
      tally.applied += b.applied;
      if (b.ack != spool->last_seq() || b.applied != kBatch ||
          b.deduped != 0 || b.diagnosis != st.expected) {
        tally.fail(in_window ? kBatch : 0,
                   src + " batch " + std::to_string(batch) + ": ack " +
                       std::to_string(b.ack) + "/" +
                       std::to_string(spool->last_seq()) + ", applied " +
                       std::to_string(b.applied) + ", deduped " +
                       std::to_string(b.deduped) +
                       (b.diagnosis == st.expected ? ""
                                                   : ", diagnosis differs"));
        return;
      }
      ack = b.ack;
      if (traced) {
        ++tally.journal_passes;
        tally.journal_bytes += st.bobs_bytes_per_batch;
      }
      if (in_window) {
        for (const auto& t : appended) tally.timed_op(msecs(acked - t), acked);
      }
      obs::Span s("mark_shipped");
      if (!spool->mark_shipped(ack, &error)) {
        tally.fail(0, src + ": " + error);
        return;
      }
    }
    if (traced && !traced_batch && start >= w0) {
      tally.plain_pass_us.push_back(usecs(Clock::now() - start));
    }
    // A batch opens with healthy rounds, which reset the detector, so the
    // core probe may sample batches.
    if (core.has_value() && budget->allow()) {
      const auto p0 = Clock::now();
      obs::Span r("probe_core", root, 0);
      for (std::size_t k = 0; k < kBatch; ++k) {
        core->round(k < kHealthyPerBatch ? st.healthy : st.failed, nullptr,
                    tally);
      }
      budget->spent(p0);
    }
  }
}

Outcome run_fleet_ingest(const Args& args, std::uint64_t seed, double seconds,
                         std::uint64_t trace_seed) {
  Outcome out;
  out.checks = {
      "per shipper, every ack equals the spool's last seq",
      "every batch applies all its items and dedups none",
      "sum of applied equals sum of sent",
      "every batch diagnosis equals the in-process diagnosis of (H, F)"};
  auto st = timed_setups<FleetState>(
      [seed](std::size_t rep, std::string* e) {
        return fleet_setup(seed, rep, e);
      },
      out);
  if (st == nullptr) return out;
  out.digest = fnv1a(out.digest, st->expected);
  const bool traced = !args.trace_out.empty();
  if (traced) obs::TraceSink::install();
  const auto t0 = Clock::now();
  const auto w0 = t0 + std::chrono::seconds(1);  // warm-up
  const auto w1 = w0 + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
  out.threads.resize(kShippers);
  {
    std::vector<std::thread> shippers;
    for (std::size_t i = 0; i < kShippers; ++i) {
      shippers.emplace_back([&, i] {
        ship_loop(*st, i, w0, w1, trace_seed, traced, out.threads[i]);
      });
    }
    for (auto& t : shippers) t.join();
  }
  out.start = w0;
  out.window_s = secs(w1 - w0);
  std::uint64_t sent = 0;
  std::uint64_t applied = 0;
  for (const Tally& t : out.threads) {
    sent += t.sent;
    applied += t.applied;
  }
  if (applied != sent) {
    out.threads[0].fail(0, "applied " + std::to_string(applied) + " of " +
                               std::to_string(sent) + " sent");
  }
  return out;
}

// --- diagnose_1k -----------------------------------------------------------

/// One diagnosed Internet: the meshes before and after its failures, the
/// control-plane observations, and the reference-checked diagnosis.
struct DiagnoseInstance {
  probe::Mesh before;
  probe::Mesh after;
  core::ControlPlaneObs cp;
  std::string expected;  ///< to_json of the reference-checked hypothesis
  std::size_t graph_edges = 0;
  std::size_t failure_sets = 0;
};

struct DiagnoseState {
  core::Troubleshooter::Config resolved;
  svc::SessionConfig config;
  std::vector<DiagnoseInstance> instances;
};

/// The diagnosed Internet's size. At 2000 ASes an op cost about 2.9 times
/// the 1000-AS op and its runs swung most with the host's load; at 1000 a
/// 30 s run still holds enough ops for ten samples above p99.
constexpr std::size_t kAses = 1000;

/// Internets per run, drawn from seeds --seed * kInstances + 0..7, which no
/// other --seed shares; the ops take them in turn. Against one Internet per
/// run, in ten interleaved 30 s runs each, the whole-window p99 spread
/// 0.034 instead of 0.28, and the p50 0.060 instead of 0.090.
constexpr std::size_t kInstances = 8;

/// bench_scale's random Internet at kAses.
topo::RandomInternetParams internet(std::uint64_t seed) {
  topo::RandomInternetParams p;
  p.num_tier1 = 5;
  p.num_tier2 = std::min<std::size_t>(400, 25 + kAses / 100);
  p.num_stubs = kAses - p.num_tier1 - p.num_tier2;
  p.tier1_routers = 10;
  p.tier2_routers = 4;
  p.seed = seed;
  return p;
}

/// bench_scale's failure pick: the most-traversed T− links, every third.
std::vector<topo::LinkId> busiest_links(const probe::Mesh& before,
                                        std::size_t num_links,
                                        std::size_t count) {
  std::vector<std::uint32_t> uses(num_links, 0);
  for (const auto& p : before.paths) {
    if (!p.ok) continue;
    for (const topo::LinkId l : p.links) ++uses[l.value()];
  }
  std::vector<std::uint32_t> order(num_links);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return uses[a] != uses[b] ? uses[a] > uses[b] : a < b;
  });
  std::vector<topo::LinkId> out;
  for (std::size_t i = 0; i * 3 < order.size() && out.size() < count; ++i) {
    if (uses[order[i * 3]] == 0) break;
    out.push_back(topo::LinkId{order[i * 3]});
  }
  return out;
}

bool diagnose_instance(std::uint64_t seed,
                       const core::Troubleshooter::Config& resolved,
                       DiagnoseInstance* inst, std::string* error) {
  topo::Topology t = topo::random_internet(internet(seed));
  util::Rng rng(7);
  auto sensors = probe::place_sensors(t, probe::PlacementKind::kRandomStub,
                                      16 + kAses / 35, rng);
  const probe::SyntheticProber prober(t, std::move(sensors));
  inst->before = prober.measure();
  const auto broken = busiest_links(inst->before, t.num_links(), 128);
  for (const topo::LinkId l : broken) t.set_link_up(l, false);
  inst->after = prober.measure();

  const core::DiagnosisGraph dg = core::build_diagnosis_graph(
      inst->before, inst->after, resolved.granularity);
  // Control-plane observations from ground truth, as bench_scale builds
  // them: IGP down events for failed intradomain links, one withdrawal per
  // (session direction, unreachable destination AS) for interdomain ones.
  std::set<int> dead_asns;
  for (const auto& p : dg.paths) {
    if (!p.ok_after && p.dest_asn >= 0) dead_asns.insert(p.dest_asn);
  }
  for (const topo::LinkId l : broken) {
    const auto& lk = t.link(l);
    const std::string na = t.router(lk.a).name;
    const std::string nb = t.router(lk.b).name;
    if (!lk.interdomain) {
      inst->cp.igp_down_keys.push_back(core::undirected_key(na, nb));
      continue;
    }
    for (const int asn : dead_asns) {
      inst->cp.withdrawals.push_back({na + ">" + nb, asn});
      inst->cp.withdrawals.push_back({nb + ">" + na, asn});
    }
  }
  const core::Demands demands =
      core::build_demands(dg, resolved.solver, &inst->cp);
  const core::Result fast =
      core::solve(dg, resolved.solver, demands, &inst->cp);
  const core::Result ref =
      core::solve_reference(dg, resolved.solver, demands, &inst->cp);
  auto keys = [](const core::Result& r) {
    std::vector<std::string> k;
    for (const auto& rl : r.ranked) k.push_back(rl.phys_key);
    return k;
  };
  if (fast.links != ref.links || keys(fast) != keys(ref)) {
    *error = "seed " + std::to_string(seed) +
             ": solve() and solve_reference() disagree";
    return false;
  }
  inst->expected = core::to_json(dg, fast);
  inst->graph_edges = dg.edges.size();
  inst->failure_sets = demands.failure_sets.size();
  return true;
}

std::unique_ptr<DiagnoseState> diagnose_setup(std::uint64_t seed,
                                              std::string* error) {
  auto st = std::make_unique<DiagnoseState>();
  st->config.alarm_threshold = 1;  // ND-bgpigp, per-neighbor: the defaults
  const auto resolved = st->config.resolve(error);
  if (!resolved.has_value()) return nullptr;
  st->resolved = *resolved;
  st->instances.resize(kInstances);
  for (std::size_t k = 0; k < kInstances; ++k) {
    if (!diagnose_instance(seed * kInstances + k, st->resolved,
                           &st->instances[k], error)) {
      return nullptr;
    }
  }
  return st;
}

/// A server round trip of the op's inputs, for the service layers the
/// in-process op does not cross.
class ServiceProbe {
 public:
  ~ServiceProbe() {
    client_.reset();
    if (server_ != nullptr) server_->stop();
  }

  [[nodiscard]] bool open(const std::string& sock,
                          const svc::SessionConfig& config,
                          std::string* error) {
    svc::Server::Options opts;
    opts.endpoint = unix_endpoint(sock);
    opts.num_threads = 2;
    server_ = std::make_unique<svc::Server>(opts);
    if (!server_->start(error)) return false;
    client_ = svc::Client::connect(server_->endpoint(), error);
    return client_.has_value() &&
           svc::expect_response(
               client_->call(
                   svc::HelloRequest{"probe", config, std::nullopt}, error),
               static_cast<svc::HelloResponse*>(nullptr), error);
  }

  void observe(const DiagnoseInstance& inst, const obs::SpanContext& root,
               Tally& tally) {
    std::string error;
    if (!svc::expect_response(
            client_->call(
                svc::SetBaselineRequest{"probe", inst.before, std::nullopt},
                &error),
            static_cast<svc::SetBaselineResponse*>(nullptr), &error)) {
      tally.fail(0, "service probe: " + error);
      return;
    }
    obs::Span r("probe_svc", root, 0);
    svc::ObserveResponse rsp;
    if (!svc::expect_response(
            round_trip(*client_,
                       svc::ObserveRequest{"probe", inst.after, inst.cp},
                       true, tally, &error),
            &rsp, &error) ||
        rsp.diagnosis != inst.expected) {
      tally.fail(0, "service probe: diagnosis differs " + error);
    }
  }

 private:
  std::unique_ptr<svc::Server> server_;
  std::optional<svc::Client> client_;
};

Outcome run_diagnose_1k(const Args& args, std::uint64_t seed, double seconds,
                        std::uint64_t trace_seed) {
  Outcome out;
  out.checks = {
      "each instance's hypothesis equals solve_reference on that instance",
      "every diagnosis document is byte-identical to its instance's "
      "reference one"};
  CoreRotation cores;
  auto st = timed_setups<DiagnoseState>(
      [seed, &cores](std::size_t, std::string* e) {
        cores.next();
        return diagnose_setup(seed, e);
      },
      out);
  if (st == nullptr) return out;
  for (const DiagnoseInstance& inst : st->instances) {
    out.digest = fnv1a(out.digest, inst.expected);
  }
  out.threads.resize(1);
  Tally& tally = out.threads[0];
  core::Troubleshooter ts(st->resolved);

  const bool traced = !args.trace_out.empty();
  std::unique_ptr<ScratchDir> dir;
  ServiceProbe service;
  JournalProbe journal;
  SpoolProbe spool;
  if (traced) {
    dir = std::make_unique<ScratchDir>("diagnose");
    if (!service.open(dir->at("e2e.sock"), st->config, &out.error) ||
        !journal.open(dir->at("journal"), &out.error) ||
        !spool.open(dir->at("spool"), &out.error)) {
      return out;
    }
  }
  auto one_op = [&](bool timed, std::uint64_t index) {
    const DiagnoseInstance& inst = st->instances[index % kInstances];
    ts.set_baseline(inst.before);
    const bool traced_op = traced && traced_pass(index);
    const auto t0 = Clock::now();
    std::string doc;
    {
      std::optional<obs::Span> op;
      if (traced_op) {
        op.emplace("op", obs::Span::root_context(trace_seed, index, 1), 0);
      }
      const auto fired = ts.observe(inst.after, &inst.cp);
      if (fired.has_value()) {
        obs::Span s("diag_encode");
        doc = core::to_json(fired->graph, fired->result);
      }
    }
    const auto t1 = Clock::now();
    if (!timed) return;
    if (traced && !traced_op) tally.plain_pass_us.push_back(usecs(t1 - t0));
    ++tally.attempted;
    ++tally.rounds;
    if (doc != inst.expected) {
      tally.fail(1, "diagnosis " + std::to_string(index) +
                        " differs from the reference document");
      return;
    }
    tally.timed_op(msecs(t1 - t0), t1);
    // The work counts are the set-up's for the op's instance.
    ++tally.diagnoses;
    tally.graph_edges += static_cast<double>(inst.graph_edges);
    tally.failure_sets += static_cast<double>(inst.failure_sets);
  };
  // Untimed, once per instance: lazy set-up and caches.
  for (std::uint64_t i = 0; i < kInstances; ++i) one_op(false, i);
  if (traced) obs::TraceSink::install();
  const auto t0 = Clock::now();
  const auto deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds));
  ProbeBudget budget(t0);
  for (std::uint64_t i = 1; Clock::now() < deadline; ++i) {
    cores.tick();
    one_op(true, i);
    if (traced && budget.allow()) {
      const obs::SpanContext root = obs::Span::root_context(trace_seed, i, 2);
      const auto p0 = Clock::now();
      const DiagnoseInstance& inst = st->instances[i % kInstances];
      service.observe(inst, root, tally);
      journal.append(inst.after, &inst.cp, root, tally);
      spool.ship(inst.after, root, tally);
      budget.spent(p0);
    }
    if (!tally.problems.empty()) break;
  }
  out.start = t0;
  out.window_s = secs(Clock::now() - t0);
  return out;
}

// ---------------------------------------------------------------------------

struct WorkloadDef {
  const char* name;
  std::uint64_t default_seed;
  Outcome (*run)(const Args&, std::uint64_t, double, std::uint64_t);
};

constexpr WorkloadDef kWorkloads[] = {
    {"replay_wire", 9100, run_replay_wire},
    {"fleet_ingest", 1, run_fleet_ingest},
    {"diagnose_1k", 42, run_diagnose_1k},
};

void usage() {
  std::fprintf(stderr,
               "usage: bench_e2e --workload replay_wire|fleet_ingest|"
               "diagnose_1k [--seed N] [--seconds S]\n"
               "                 [--trace-out FILE] [--workdir DIR]\n");
}

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string val = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = val;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(val.c_str(), &end, 10);
      if (end == val.c_str() || *end != '\0') return false;
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(val.c_str(), &end);
      if (end == val.c_str() || *end != '\0' || !(*a->seconds > 0.0)) {
        return false;
      }
    } else if (flag == "--trace-out") {
      a->trace_out = val;
    } else if (flag == "--workdir") {
      a->workdir = val;
    } else {
      return false;
    }
  }
  return !a->workload.empty();
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const Metrics& metrics) {
  std::string out = std::string("{\"correct\":") +
                    (correct ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(attempted) +
                    ",\"failed\":" + std::to_string(failed) +
                    ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + metrics[i].name + "\":{\"value\":" +
           num(metrics[i].value) + ",\"unit\":\"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    usage();
    return 2;
  }
  const WorkloadDef* def = nullptr;
  for (const auto& w : kWorkloads) {
    if (args.workload == w.name) def = &w;
  }
  if (def == nullptr) {
    usage();
    return 2;
  }
  const std::uint64_t seed = args.seed.value_or(def->default_seed);
  const double seconds = args.seconds.value_or(kDefaultSeconds);
  const std::uint64_t trace_seed =
      obs::ids::combine(seed, obs::ids::fnv1a(def->name));
  std::string trace_out;
  if (!args.trace_out.empty()) {
    trace_out = fs::absolute(args.trace_out).string();
  }

  // Everything the run writes lives in a fresh directory under --workdir,
  // entered so that socket paths stay short.
  std::error_code ec;
  fs::create_directories(args.workdir, ec);
  std::string tmpl =
      (fs::absolute(args.workdir) / ("e2e-" + args.workload + ".XXXXXX"))
          .string();
  if (::mkdtemp(tmpl.data()) == nullptr || ::chdir(tmpl.c_str()) != 0) {
    std::fprintf(stderr, "bench_e2e: cannot create a run directory under %s\n",
                 args.workdir.c_str());
    return 1;
  }

  std::printf("bench_e2e: workload=%s seed=%llu seconds=%g traced=%s\n",
              def->name, static_cast<unsigned long long>(seed), seconds,
              trace_out.empty() ? "no" : "yes");
  std::fflush(stdout);
  Outcome out = def->run(args, seed, seconds, trace_seed);

  Tally all;
  for (const Tally& t : out.threads) all.merge(t);
  Metrics metrics;
  std::string error = out.error;
  if (error.empty() && !trace_out.empty()) {
    std::vector<obs::TraceEvent> events = obs::TraceSink::snapshot();
    const Ledger ledger = fold(events);
    events.clear();
    events.shrink_to_fit();
    if (obs::TraceSink::write_chrome_trace(trace_out, &error) &&
        write_ledger(ledger, trace_out + ".ledger.json", &error)) {
      metrics = layer_metrics(ledger, all);
    }
    obs::TraceSink::uninstall();
  }

  (void)::chdir("..");
  fs::remove_all(tmpl, ec);

  if (!error.empty()) {
    std::fprintf(stderr, "bench_e2e: %s\n", error.c_str());
    return 1;
  }
  if (all.attempted == 0 || out.window_s <= 0.0) {
    std::fprintf(stderr, "bench_e2e: no op completed (%s)\n",
                 all.problems.empty() ? "window too short"
                                      : all.problems.front().c_str());
    return 1;
  }
  std::vector<double> lat = all.op_ms;
  std::sort(lat.begin(), lat.end());
  if (trace_out.empty()) {
    metrics = {
        {"op_p50_ms", quantile(lat, 0.50), "ms"},
        {"op_p99_ms", block_p99(all.op_ms, all.done), "ms"},
        {"ops_per_s", block_throughput(all.done, out.start), "ops/s"},
        {"setup_s", median(out.setup_s), "s"},
        {"peak_rss_mib", peak_rss_mib(), "MiB"},
    };
  }
  const bool correct = all.problems.empty() && all.failed == 0;
  const auto [setup_min, setup_max] =
      std::minmax_element(out.setup_s.begin(), out.setup_s.end());
  std::printf("\nsetup_s: %zu reps, min %.6f, median %.6f, max %.6f s",
              out.setup_s.size(), *setup_min, median(out.setup_s),
              *setup_max);
  std::printf("\nops_attempted %zu\nops_failed %zu\nop samples %zu over %.2f s"
              " (whole-window p99 %.4f ms, with %zu samples above it; op_p99_ms"
              " is the median p99 of %zu blocks)\noutput_digest 0x%016llx\n",
              all.attempted, all.failed, lat.size(), out.window_s,
              quantile(lat, 0.99), lat.size() / 100,
              std::min(kTailBlocks, std::max<std::size_t>(lat.size(), 1)),
              static_cast<unsigned long long>(out.digest));
  for (const auto& c : out.checks) {
    std::printf("check: %s: %s\n", c.c_str(), correct ? "pass" : "FAIL");
  }
  for (const auto& p : all.problems) std::printf("problem: %s\n", p.c_str());
  std::printf("\n");
  for (const Metric& m : metrics) {
    std::printf("  %-26s %14.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  print_result(correct, all.attempted, all.failed, metrics);
  return 0;
}
