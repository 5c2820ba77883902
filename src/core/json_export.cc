#include "core/json_export.h"

#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>
#include <unordered_map>

namespace netd::core {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 4);
  append_json_escaped(out, s);
  return out;
}

void append_json_escaped(std::string& out, std::string_view s) {
  // Runs of bytes that need no escape are appended whole.
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (static_cast<unsigned char>(c) >= 0x20 && c != '"' && c != '\\') {
      continue;
    }
    out.append(s, run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
        out += buf;
      }
    }
  }
  out.append(s, run, s.size() - run);
}

namespace {

std::string number(double v) {
  // Integral scores print as integers for stable, readable output.
  if (v == static_cast<double>(static_cast<long long>(v))) {
    return std::to_string(static_cast<long long>(v));
  }
  std::ostringstream ss;
  ss << v;
  return ss.str();
}

}  // namespace

std::string to_json(const DiagnosisGraph& dg, const Result& result) {
  std::size_t failed = 0, rerouted = 0;
  for (const auto& p : dg.paths) {
    if (!p.ok_after) {
      ++failed;
    } else if (p.rerouted) {
      ++rerouted;
    }
  }

  // Per-link attributes aggregated from the hypothesis edges.
  struct Attr {
    bool logical = false;
    bool unidentified = false;
    std::set<int> ases;
  };
  std::map<std::string, Attr> attrs;
  for (graph::EdgeId e : result.hypothesis_edges) {
    const EdgeInfo& info = dg.info(e);
    Attr& a = attrs[info.phys_key];
    a.logical = a.logical || info.logical;
    a.unidentified = a.unidentified || info.unidentified;
    const auto& ge = dg.g.edge(e);
    for (graph::NodeId n : {ge.src, ge.dst}) {
      const auto& node = dg.g.node(n);
      if (node.asn >= 0) a.ases.insert(node.asn);
    }
  }

  std::ostringstream os;
  os << "{";
  os << "\"pairs\":" << dg.paths.size() << ",\"failed\":" << failed
     << ",\"rerouted\":" << rerouted
     << ",\"probed_links\":" << dg.probed_keys.size()
     << ",\"unexplained_failure_sets\":" << result.unexplained_failure_sets
     << ",\"unknown_as_links\":" << result.unknown_as_links;
  os << ",\"hypothesis\":[";
  bool first = true;
  for (const auto& r : result.ranked) {
    if (!first) os << ",";
    first = false;
    const Attr& a = attrs[r.phys_key];
    os << "{\"link\":\"" << json_escape(r.phys_key) << "\"";
    if (std::isinf(r.score)) {
      os << ",\"score\":\"igp-confirmed\"";
    } else {
      os << ",\"score\":" << number(r.score);
    }
    os << ",\"round\":" << r.round
       << ",\"logical\":" << (a.logical ? "true" : "false")
       << ",\"unidentified\":" << (a.unidentified ? "true" : "false")
       << ",\"ases\":[";
    bool f2 = true;
    for (int as : a.ases) {
      if (!f2) os << ",";
      f2 = false;
      os << as;
    }
    os << "]}";
  }
  os << "],\"implicated_ases\":[";
  first = true;
  for (int as : result.ases) {
    if (!first) os << ",";
    first = false;
    os << as;
  }
  os << "]}";
  return os.str();
}

}  // namespace netd::core
