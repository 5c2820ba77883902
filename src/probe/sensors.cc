#include "probe/sensors.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <set>

namespace netd::probe {

using topo::AsClass;
using topo::AsId;
using topo::RouterId;
using topo::Topology;

const char* to_string(PlacementKind k) {
  switch (k) {
    case PlacementKind::kRandomStub: return "random";
    case PlacementKind::kSameAs: return "same AS";
    case PlacementKind::kDistantAs: return "distant AS";
    case PlacementKind::kDistantAsSplit: return "distant AS, split path";
  }
  return "?";
}

namespace {

std::vector<AsId> ases_of_class(const Topology& topo, AsClass cls) {
  std::vector<AsId> out;
  for (const auto& as : topo.ases()) {
    if (as.cls == cls) out.push_back(as.id);
  }
  return out;
}

/// Provider ASes of `as` (the ASes it buys transit from).
std::set<AsId> providers_of(const Topology& topo, AsId as) {
  std::set<AsId> out;
  for (const auto& link : topo.links()) {
    if (!link.interdomain) continue;
    const AsId a = topo.as_of_router(link.a);
    const AsId b = topo.as_of_router(link.b);
    if (a == as && link.rel_b_from_a == topo::Relationship::kProvider) {
      out.insert(b);
    }
    if (b == as && reverse(link.rel_b_from_a) == topo::Relationship::kProvider) {
      out.insert(a);
    }
  }
  return out;
}

Sensor make_sensor(const Topology& topo, std::size_t index, RouterId attach) {
  return Sensor{"s" + std::to_string(index), attach,
                topo.as_of_router(attach)};
}

/// Spreads `count` sensors over the routers of `as` (round-robin over a
/// shuffled router list when count exceeds the router count).
void spread_in_as(const Topology& topo, AsId as, std::size_t count,
                  std::vector<Sensor>& out, util::Rng& rng) {
  std::vector<RouterId> routers = topo.as_of(as).routers;
  rng.shuffle(routers);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(make_sensor(topo, out.size(), routers[i % routers.size()]));
  }
}

/// Two transit ASes as far apart as the topology allows: prefer a pair of
/// tier-2s with disjoint provider sets (so every inter-sensor path crosses
/// the core), falling back to any distinct pair.
std::pair<AsId, AsId> distant_pair(const Topology& topo, util::Rng& rng) {
  std::vector<AsId> tier2 = ases_of_class(topo, AsClass::kTier2);
  assert(tier2.size() >= 2);
  rng.shuffle(tier2);
  for (std::size_t i = 0; i < tier2.size(); ++i) {
    const auto pi = providers_of(topo, tier2[i]);
    for (std::size_t j = i + 1; j < tier2.size(); ++j) {
      const auto pj = providers_of(topo, tier2[j]);
      std::vector<AsId> inter;
      std::set_intersection(pi.begin(), pi.end(), pj.begin(), pj.end(),
                            std::back_inserter(inter));
      if (inter.empty()) return {tier2[i], tier2[j]};
    }
  }
  return {tier2[0], tier2[1]};
}

}  // namespace

std::size_t placement_capacity(const Topology& topo, PlacementKind kind) {
  if (kind == PlacementKind::kRandomStub) {
    return ases_of_class(topo, AsClass::kStub).size();
  }
  return std::numeric_limits<std::size_t>::max();
}

std::vector<Sensor> place_sensors(const Topology& topo, PlacementKind kind,
                                  std::size_t n, util::Rng& rng) {
  assert(n >= 2);
  std::vector<Sensor> out;
  out.reserve(n);
  switch (kind) {
    case PlacementKind::kRandomStub: {
      std::vector<AsId> stubs = ases_of_class(topo, AsClass::kStub);
      assert(stubs.size() >= n && "not enough stub ASes for placement");
      for (AsId as : rng.sample(stubs, n)) {
        out.push_back(make_sensor(topo, out.size(),
                                  topo.as_of(as).routers.front()));
      }
      break;
    }
    case PlacementKind::kSameAs: {
      // The AS with the most routers gives the most intra-AS path diversity.
      AsId best = topo.ases().front().id;
      for (const auto& as : topo.ases()) {
        if (as.routers.size() > topo.as_of(best).routers.size()) best = as.id;
      }
      spread_in_as(topo, best, n, out, rng);
      break;
    }
    case PlacementKind::kDistantAs: {
      const auto [a, b] = distant_pair(topo, rng);
      spread_in_as(topo, a, n / 2, out, rng);
      spread_in_as(topo, b, n - n / 2, out, rng);
      break;
    }
    case PlacementKind::kDistantAsSplit: {
      const auto [a, b] = distant_pair(topo, rng);
      // A few sensors go to the transit ASes between a and b (their
      // provider cores), splitting the shared link sequence.
      const std::size_t split = std::max<std::size_t>(2, n / 5);
      std::vector<AsId> middle;
      for (AsId p : providers_of(topo, a)) middle.push_back(p);
      for (AsId p : providers_of(topo, b)) {
        if (std::find(middle.begin(), middle.end(), p) == middle.end()) {
          middle.push_back(p);
        }
      }
      const std::size_t remaining = n - std::min(split, n - 2);
      spread_in_as(topo, a, remaining / 2, out, rng);
      spread_in_as(topo, b, remaining - remaining / 2, out, rng);
      for (std::size_t i = 0; out.size() < n; ++i) {
        const AsId mid = middle[i % middle.size()];
        spread_in_as(topo, mid, 1, out, rng);
      }
      break;
    }
  }
  assert(out.size() == n);
  return out;
}

std::optional<topo::LinkId> lone_uplink(const Topology& topo,
                                        const std::vector<Sensor>& sensors) {
  const auto uplink = [&topo](topo::LinkId l) {
    return topo.link(l).interdomain;
  };
  for (const auto& s : sensors) {
    const auto& links = topo.links_of(s.attach);
    if (std::count_if(links.begin(), links.end(), uplink) == 1) {
      return *std::find_if(links.begin(), links.end(), uplink);
    }
  }
  return std::nullopt;
}

}  // namespace netd::probe
