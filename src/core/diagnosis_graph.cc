#include "core/diagnosis_graph.h"

#include <cassert>
#include <cstdint>
#include <unordered_map>
#include <utility>

namespace netd::core {

using graph::EdgeId;
using graph::NodeId;
using graph::NodeKind;

std::string undirected_key(const std::string& a, const std::string& b) {
  return a < b ? a + "|" + b : b + "|" + a;
}

namespace {

std::uint64_t pack(std::uint32_t hi, std::uint32_t lo) {
  return (static_cast<std::uint64_t>(hi) << 32) | lo;
}

/// One build's interning state. Every cache is keyed by ids, so a label
/// or key string is built and hashed once per distinct node or link
/// direction rather than once per hop; ids, interner order and EdgeInfo
/// stay those of interning each hop's strings in path order.
class PathInterner {
 public:
  PathInterner(DiagnosisGraph& dg, LogicalMode mode) : dg_(dg), mode_(mode) {}

  /// Interns one traceroute path (optionally logical-expanded) and
  /// returns its edge sequence. `path_index` is recorded on first sight
  /// of UH edges. A path of fewer than two hops has no edges.
  std::vector<EdgeId> intern_path(const std::vector<probe::Hop>& hops,
                                  int path_index) {
    std::vector<EdgeId> out;
    if (hops.size() < 2) return out;
    out.reserve((hops.size() - 1) * (mode_ == LogicalMode::kNone ? 1 : 2));
    NodeId nu = intern_hop(hops[0]);
    for (std::size_t i = 0; i + 1 < hops.size(); ++i) {
      const probe::Hop& u = hops[i];
      const probe::Hop& v = hops[i + 1];
      const NodeId nv = intern_hop(v);
      // One EdgeInfo construction for plain edges and logical halves: a
      // logical half is never flagged UH, whatever its endpoints.
      auto add_edge = [&](NodeId a, NodeId b, bool logical) {
        const EdgeId e = dg_.g.intern_edge(a, b);
        if (e.value() == dg_.edges.size()) {
          const auto [phys_id, dir_id] = link_ids(nu, nv, u, v);
          EdgeInfo info;
          info.phys_key = dg_.phys_keys.key(phys_id);
          info.directed_key = dg_.directed_keys.key(dir_id);
          info.phys_id = phys_id;
          info.dir_id = dir_id;
          info.unidentified = !logical &&
                              (u.kind == NodeKind::kUnidentified ||
                               v.kind == NodeKind::kUnidentified);
          info.logical = logical;
          info.asn_src = u.asn;
          info.asn_dst = v.asn;
          info.before_path = info.unidentified ? path_index : -1;
          dg_.edges.push_back(std::move(info));
        }
        out.push_back(e);
      };
      const bool interdomain = u.asn != -1 && v.asn != -1 && u.asn != v.asn;
      if (mode_ != LogicalMode::kNone && interdomain) {
        // Both logical halves inherit the physical link's identity.
        const NodeId nm = logical_node(hops, i + 1, nv);
        add_edge(nu, nm, /*logical=*/true);
        add_edge(nm, nv, /*logical=*/true);
      } else {
        add_edge(nu, nv, /*logical=*/false);
      }
      nu = nv;  // hop i+1's label is hashed once, as this edge's target
    }
    return out;
  }

 private:
  NodeId intern_hop(const probe::Hop& h) {
    return dg_.g.intern_node(h.label, h.kind, h.asn);
  }

  /// The logical node v(W) for hop `vi` (node `nv`) of an interdomain
  /// link; its label is built only on first sight of (v, W).
  NodeId logical_node(const std::vector<probe::Hop>& hops, std::size_t vi,
                      NodeId nv) {
    const probe::Hop& v = hops[vi];
    // Per-prefix: one logical node per destination prefix crossing the
    // session ("ideally ... on a per-prefix basis", §3.1).
    int w = hops.back().asn;
    if (mode_ == LogicalMode::kPerNeighbor) {
      // Next AS after v's AS on this path (W of Fig. 3); v's own AS when
      // the path terminates inside it. Unknown (UH) hops are skipped.
      w = v.asn;
      for (std::size_t k = vi + 1; k < hops.size(); ++k) {
        if (hops[k].asn != -1 && hops[k].asn != v.asn) {
          w = hops[k].asn;
          break;
        }
      }
    }
    const auto [it, fresh] = logical_nodes_.try_emplace(
        pack(nv.value(), static_cast<std::uint32_t>(w)));
    if (fresh) {
      const char* tag = mode_ == LogicalMode::kPerNeighbor ? "(AS" : "(pfx";
      it->second = dg_.g.intern_node(v.label + tag + std::to_string(w) + ")",
                                     NodeKind::kLogical, v.asn);
    }
    return it->second;
  }

  /// (phys_id, dir_id) of the physical link direction u→v (nodes nu, nv):
  /// its two keys are built and interned on the first call only, which
  /// comes from the first new edge of that direction.
  std::pair<std::uint32_t, std::uint32_t> link_ids(NodeId nu, NodeId nv,
                                                   const probe::Hop& u,
                                                   const probe::Hop& v) {
    const auto [it, fresh] =
        link_ids_.try_emplace(pack(nu.value(), nv.value()));
    if (fresh) {
      it->second = {dg_.phys_keys.intern(undirected_key(u.label, v.label)),
                    dg_.directed_keys.intern(u.label + ">" + v.label)};
    }
    return it->second;
  }

  DiagnosisGraph& dg_;
  const LogicalMode mode_;
  /// (v, W) → logical node v(W).
  std::unordered_map<std::uint64_t, NodeId> logical_nodes_;
  /// (u, v) → (phys_id, dir_id).
  std::unordered_map<std::uint64_t, std::pair<std::uint32_t, std::uint32_t>>
      link_ids_;
};

}  // namespace

DiagnosisGraph build_diagnosis_graph(const probe::Mesh& before,
                                     const probe::Mesh& after,
                                     bool logical_links,
                                     const probe::ParisMesh* paris_before) {
  return build_diagnosis_graph(
      before, after,
      logical_links ? LogicalMode::kPerNeighbor : LogicalMode::kNone,
      paris_before);
}

DiagnosisGraph build_diagnosis_graph(const probe::Mesh& before,
                                     const probe::Mesh& after,
                                     LogicalMode mode,
                                     const probe::ParisMesh* paris_before) {
  assert(before.paths.size() == after.paths.size());
  assert(paris_before == nullptr ||
         paris_before->pairs.size() == before.paths.size());
  DiagnosisGraph dg;
  dg.paths.reserve(before.paths.size());
  PathInterner interner(dg, mode);
  for (std::size_t k = 0; k < before.paths.size(); ++k) {
    const probe::TracePath& pb = before.paths[k];
    const probe::TracePath& pa = after.paths[k];
    assert(pb.src == pa.src && pb.dst == pa.dst);
    if (!pb.ok) continue;  // pair already unreachable before the event

    PathObs obs;
    obs.src = pb.src;
    obs.dst = pb.dst;
    obs.dest_asn = pb.hops.back().asn;
    const int path_index = static_cast<int>(dg.paths.size());
    obs.before = interner.intern_path(pb.hops, path_index);
    obs.ok_after = pa.ok;
    if (pa.ok) {
      obs.after = interner.intern_path(pa.hops, path_index);
      obs.rerouted = obs.after != obs.before;
      if (obs.rerouted && paris_before != nullptr &&
          probe::is_load_balanced_change(paris_before->pairs[k], pa)) {
        obs.rerouted = false;  // an ECMP sibling, not a routing change
      }
    }
    dg.paths.push_back(std::move(obs));
  }
  // E is every edge's physical key, which is exactly what was interned.
  for (std::uint32_t id = 0; id < dg.phys_keys.size(); ++id) {
    dg.probed_keys.insert(dg.phys_keys.key(id));
  }
  return dg;
}

}  // namespace netd::core
