// Test helper: the failure set bench_scale uses on synthetic Internets.
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "probe/prober.h"
#include "topo/topology.h"

namespace netd::core::testing {

/// The most-traversed working links, strided across the mesh (the shape
/// bench_scale fails), so failures hit many sensor pairs.
inline std::vector<topo::LinkId> busiest_links(const probe::Mesh& before,
                                               std::size_t num_links,
                                               std::size_t count) {
  std::vector<std::uint32_t> uses(num_links, 0);
  for (const auto& p : before.paths) {
    if (!p.ok) continue;
    for (topo::LinkId l : p.links) ++uses[l.value()];
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

}  // namespace netd::core::testing
