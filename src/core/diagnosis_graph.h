// Construction of the inference graph G from the traceroute meshes.
//
// Interns the T− and T+ paths of every sensor pair into one directed graph
// and records, per edge, the metadata the diagnosis algorithms need: the
// canonical physical-link key (so logical edges and both directions map
// back to one physical link), endpoint ASNs, and unidentified-hop flags.
//
// With `logical_links` enabled, every interdomain hop u→v is expanded per
// the paper's §3.1 (Fig. 3): u→v(W) and v(W)→v, where W is the next AS on
// the path after v's AS (v's own AS when the path terminates there). A BGP
// export misconfiguration then shows up as a failed *logical* link even
// though the physical link still carries working paths.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "core/interner.h"
#include "graph/graph.h"
#include "probe/prober.h"

namespace netd::core {

/// Per-edge metadata, indexed by EdgeId.
struct EdgeInfo {
  /// Canonical undirected physical key "min(u,v)|max(u,v)" over the
  /// *physical* endpoint labels (logical expansion collapsed).
  std::string phys_key;
  /// Directed physical key "u>v"; used to match BGP-withdrawal pruning.
  std::string directed_key;
  /// Dense interned ids of the two keys (DiagnosisGraph::phys_keys /
  /// directed_keys), assigned in edge-creation order. The solver's hot
  /// path works exclusively in this id space; the strings remain for
  /// reporting and the wire surface.
  std::uint32_t phys_id = KeyInterner::kNone;
  std::uint32_t dir_id = KeyInterner::kNone;
  bool unidentified = false;  ///< touches a UH node
  bool logical = false;       ///< produced by logical-link expansion
  int asn_src = -1;           ///< physical endpoint ASNs (-1 unknown)
  int asn_dst = -1;
  /// For UH edges: index (into paths) of the unique T− path carrying it;
  /// -1 when not applicable.
  int before_path = -1;
};

/// One sensor pair's observation: its T− path, its T+ fate, and the T+
/// path when it still works.
struct PathObs {
  std::size_t src = 0;
  std::size_t dst = 0;
  int dest_asn = -1;  ///< AS of the destination sensor
  bool ok_after = false;
  bool rerouted = false;  ///< ok_after and the path changed
  std::vector<graph::EdgeId> before;
  std::vector<graph::EdgeId> after;  ///< empty unless ok_after
};

/// Granularity of the logical-link expansion (§3.1). The paper argues
/// per-neighbor is usually sufficient because BGP policies are set per
/// neighbor, but notes per-prefix would be "ideal" at the cost of a much
/// larger graph; both are implemented so the trade-off can be measured
/// (see bench_ablation_granularity).
enum class LogicalMode {
  kNone,         ///< plain physical edges (Tomo)
  kPerNeighbor,  ///< one logical node per (router, next AS) — the paper's
                 ///< choice
  kPerPrefix,    ///< one logical node per (router, destination prefix)
};

struct DiagnosisGraph {
  graph::Graph g;
  std::vector<EdgeInfo> edges;  ///< parallel to g's edge ids
  std::vector<PathObs> paths;   ///< pairs that worked at T− only
  /// All probed physical keys (T− and T+) — the set E of the paper.
  std::set<std::string> probed_keys;
  /// Dense key id spaces (EdgeInfo::phys_id / dir_id index into these).
  KeyInterner phys_keys;
  KeyInterner directed_keys;

  [[nodiscard]] const EdgeInfo& info(graph::EdgeId e) const {
    return edges[e.value()];
  }
};

/// Builds G from the two mesh snapshots (which must cover the same sensor
/// pairs in the same order; the service checks this at admission). Pairs
/// already unreachable at T− are dropped, and a path of fewer than two
/// hops contributes no edge. Node, edge and key ids are assigned in first-
/// sight order over each pair's T− then T+ hops, the order the solver's
/// tie-breaks depend on.
///
/// `paris_before`, when provided, is the T− Paris-traceroute snapshot
/// (index-aligned with `before`): a changed-but-working T+ path that
/// matches one of the pair's T− ECMP alternatives is load balancing, not a
/// reroute, and is not marked rerouted (paper §2.2, footnote 2).
[[nodiscard]] DiagnosisGraph build_diagnosis_graph(
    const probe::Mesh& before, const probe::Mesh& after, LogicalMode mode,
    const probe::ParisMesh* paris_before = nullptr);

/// Convenience overload: `logical_links` selects kPerNeighbor (the
/// paper's construction) or kNone.
[[nodiscard]] DiagnosisGraph build_diagnosis_graph(
    const probe::Mesh& before, const probe::Mesh& after, bool logical_links,
    const probe::ParisMesh* paris_before = nullptr);

/// Canonical undirected physical-link key used throughout: both directions
/// of a link, and all logical edges derived from it, share one key.
[[nodiscard]] std::string undirected_key(const std::string& a,
                                         const std::string& b);

}  // namespace netd::core
