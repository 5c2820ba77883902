#include "core/json_export.h"

#include <cmath>
#include <map>
#include <set>

#include "util/json.h"

namespace netd::core {

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

  std::string out;
  const auto count = [&out](const char* member, std::size_t v) {
    out += member;
    util::append_json_uint(out, v);
  };
  const auto append_ases = [&out](const std::set<int>& ases) {
    out += '[';
    for (int as : ases) {
      if (out.back() != '[') out += ',';
      util::append_json_int(out, as);
    }
    out += ']';
  };
  count("{\"pairs\":", dg.paths.size());
  count(",\"failed\":", failed);
  count(",\"rerouted\":", rerouted);
  count(",\"probed_links\":", dg.probed_keys.size());
  count(",\"unexplained_failure_sets\":", result.unexplained_failure_sets);
  count(",\"unknown_as_links\":", result.unknown_as_links);
  out += ",\"hypothesis\":[";
  for (const auto& r : result.ranked) {
    const Attr& a = attrs[r.phys_key];
    out += out.back() == '[' ? "{\"link\":" : ",{\"link\":";
    util::append_json_string(out, r.phys_key);
    out += ",\"score\":";
    if (std::isinf(r.score)) {
      out += "\"igp-confirmed\"";
    } else {
      util::append_json_number(out, r.score);
    }
    out += ",\"round\":";
    util::append_json_int(out, r.round);
    out += a.logical ? ",\"logical\":true" : ",\"logical\":false";
    out += a.unidentified ? ",\"unidentified\":true"
                          : ",\"unidentified\":false";
    out += ",\"ases\":";
    append_ases(a.ases);
    out += '}';
  }
  out += "],\"implicated_ases\":";
  append_ases(result.ases);
  out += '}';
  return out;
}

}  // namespace netd::core
