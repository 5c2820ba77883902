// netdiag-agent: one durable sensor of a distributed fleet.
//
// Measures seeded observation rounds, spools them crash-safely to disk,
// and ships them to a netdiag daemon as batched observes with ack
// watermarks (exactly-once ingest). Designed to be SIGKILLed and re-run:
// a restarted agent recovers its spool, re-measures only the missing
// rounds and redelivers idempotently. Exit codes: 0 = every round acked,
// 1 = configuration/spool/protocol error, 3 = spooled locally but the
// server stayed unreachable (re-run to resume shipping).
#include <iostream>
#include <string>

#include "agent/agent.h"
#include "obs/span.h"
#include "svc/fault.h"
#include "util/flags.h"
#include "util/json.h"

namespace {

using namespace netd;

int usage(const util::Flags& flags) {
  std::cerr <<
      "usage: netdiag-agent --endpoint unix:PATH|HOST:PORT --spool-dir DIR\n"
      "                     [--name ID] [--session NAME]\n"
      "  world:    [--rounds N] [--sensors N] [--topo-seed S] [--ases N]\n"
      "            [--tier2 N] [--stubs N] [--placement-seed S]\n"
      "            [--fail-round R] [--fail-seed S]\n"
      "  session:  [--threshold K] [--algo tomo|nd-edge|nd-bgpigp]\n"
      "            [--granularity none|per-neighbor|per-prefix]\n"
      "  shipping: [--batch-max N] [--ship-max-failures N]\n"
      "            [--max-retries N] [--connect-timeout-ms MS]\n"
      "            [--request-timeout-ms MS] [--backoff-base-ms MS]\n"
      "            [--backoff-max-ms MS] [--seed S] [--chaos-seed S]\n"
      "  spool:    [--spool-segment-bytes N] [--spool-budget-bytes N]\n"
      "            [--fsync-each] [--no-retain-acked] [--generate-only]\n"
      "  tracing:  [--trace-out FILE]  write the agent-side spans (spool,\n"
      "            ship) as a Chrome trace; merge with the server's file\n"
      "            via `netdiag trace-merge`\n"
      "exit codes: 0 all rounds acked; 1 error; 3 server unreachable\n"
      "(spool intact, re-run to resume)\n";
  for (const auto& e : flags.errors()) std::cerr << "  " << e << "\n";
  return flags.ok() ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags = util::Flags::parse(argc, argv);
  flags.allow({"endpoint", "spool-dir", "name", "session", "rounds",
               "sensors", "topo-seed", "ases", "tier2", "stubs",
               "placement-seed", "fail-round", "fail-seed", "threshold",
               "algo", "granularity", "batch-max", "ship-max-failures",
               "max-retries", "connect-timeout-ms", "request-timeout-ms",
               "backoff-base-ms", "backoff-max-ms", "seed", "chaos-seed",
               "spool-segment-bytes", "spool-budget-bytes", "fsync-each",
               "no-retain-acked", "generate-only", "trace-out", "help"});
  if (!flags.ok() || flags.get_bool("help")) return usage(flags);

  agent::AgentConfig cfg;
  cfg.name = flags.get("name", "agent");
  cfg.endpoint = flags.get("endpoint");
  cfg.session = flags.get("session", "fleet");
  cfg.spool_dir = flags.get("spool-dir");
  cfg.alarm_threshold = flags.get_uint("threshold", 2);
  cfg.algo = flags.get("algo", "nd-bgpigp");
  cfg.granularity = flags.get("granularity", "per-neighbor");
  cfg.topo_seed = static_cast<std::uint64_t>(flags.get_uint("topo-seed", 1));
  cfg.ases = flags.get_uint("ases", 165);
  cfg.tier2 = flags.get_uint("tier2", 22);
  cfg.stubs = flags.get_uint("stubs", 200);
  cfg.sensors = flags.get_uint("sensors", 10);
  cfg.placement_seed =
      static_cast<std::uint64_t>(flags.get_uint("placement-seed", 7));
  cfg.rounds = flags.get_uint("rounds", 10);
  cfg.fail_round = flags.get_uint("fail-round", 0);
  cfg.fail_seed = static_cast<std::uint64_t>(flags.get_uint("fail-seed", 99));
  cfg.batch_max_items = flags.get_uint("batch-max", 8);
  cfg.ship_max_failures = flags.get_uint("ship-max-failures", 8);
  cfg.client.connect_timeout_ms =
      static_cast<int>(flags.get_int("connect-timeout-ms", 2000));
  cfg.client.request_timeout_ms =
      static_cast<int>(flags.get_int("request-timeout-ms", 30000));
  cfg.client.max_retries = flags.get_uint("max-retries", 4);
  cfg.client.backoff_base_ms =
      static_cast<int>(flags.get_int("backoff-base-ms", 10));
  cfg.client.backoff_max_ms =
      static_cast<int>(flags.get_int("backoff-max-ms", 500));
  cfg.client.seed = static_cast<std::uint64_t>(flags.get_uint("seed", 1));
  if (flags.has("chaos-seed")) {
    cfg.client.fault_plan = svc::FaultPlan::chaos(
        static_cast<std::uint64_t>(flags.get_uint("chaos-seed", 1)));
  }
  cfg.spool_segment_bytes =
      static_cast<std::uint64_t>(flags.get_uint("spool-segment-bytes",
                                                4u << 20));
  cfg.spool_budget_bytes =
      static_cast<std::uint64_t>(flags.get_uint("spool-budget-bytes", 0));
  cfg.spool_fsync_each = flags.get_bool("fsync-each");
  cfg.retain_acked = !flags.get_bool("no-retain-acked");
  cfg.generate_only = flags.get_bool("generate-only");
  if (!flags.ok()) return usage(flags);
  if (cfg.spool_dir.empty() ||
      (cfg.endpoint.empty() && !cfg.generate_only)) {
    return usage(flags);
  }

  const std::string trace_out = flags.get("trace-out");
  if (!trace_out.empty()) obs::TraceSink::install();

  agent::Agent a(std::move(cfg));
  std::string error;
  const int rc = a.run(&error);
  if (rc != agent::Agent::kExitOk) {
    std::cerr << "netdiag-agent: " << error << "\n";
  }
  if (!trace_out.empty()) {
    std::string terror;
    if (!obs::TraceSink::write_chrome_trace(trace_out, &terror)) {
      std::cerr << "netdiag-agent: " << terror << "\n";
    }
    obs::TraceSink::uninstall();
  }

  // One machine-readable summary line on stdout; the chaos harness and
  // operators both read it.
  const auto& s = a.summary();
  util::Json j = util::Json::object();
  j.set("agent", util::Json::string(flags.get("name", "agent")));
  j.set("exit", util::Json::integer(rc));
  j.set("spooled", util::Json::uinteger(s.spooled));
  j.set("generated", util::Json::uinteger(s.generated));
  j.set("acked", util::Json::uinteger(s.acked));
  j.set("batches", util::Json::uinteger(s.batches));
  j.set("applied", util::Json::uinteger(s.applied));
  j.set("deduped", util::Json::uinteger(s.deduped));
  j.set("rehellos", util::Json::uinteger(s.rehellos));
  j.set("round", util::Json::uinteger(s.round));
  j.set("alarmed", util::Json::boolean(s.alarmed));
  j.set("diagnosed", util::Json::boolean(s.diagnosis.has_value()));
  j.set("recovered_records", util::Json::uinteger(s.recovery.records));
  j.set("torn_tails", util::Json::uinteger(s.recovery.torn_tails));
  j.set("quarantined", util::Json::uinteger(s.recovery.quarantined));
  j.set("stale_temps", util::Json::uinteger(s.recovery.stale_temps));
  j.set("dropped_records", util::Json::uinteger(s.dropped.records));
  j.set("dropped_bytes", util::Json::uinteger(s.dropped.bytes));
  std::cout << j.dump() << "\n";
  return rc;
}
