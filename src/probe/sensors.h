// The troubleshooting sensor overlay (paper §2.2, §4 "Sensor placement").
//
// Sensors are end hosts attached to routers; the full mesh of
// traceroutes between them is the measurement substrate of NetDiagnoser.
// Four placement strategies reproduce the paper's Fig. 5 case study.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "topo/topology.h"
#include "util/rng.h"

namespace netd::probe {

struct Sensor {
  std::string name;       ///< e.g. "s0"
  topo::RouterId attach;  ///< router the host hangs off
  topo::AsId as;
};

enum class PlacementKind {
  kRandomStub,     ///< each sensor in a distinct random stub AS (paper default)
  kSameAs,         ///< all sensors in one (core) AS, spread over its routers
  kDistantAs,      ///< N/2 sensors in each of two far-apart transit ASes
  kDistantAsSplit, ///< like kDistantAs plus sensors at intermediate ASes
};

[[nodiscard]] const char* to_string(PlacementKind k);

/// Places `n` sensors according to `kind`. Placement never repeats an AS
/// for kRandomStub; the other strategies may attach several sensors to one
/// router when the AS runs out of routers.
[[nodiscard]] std::vector<Sensor> place_sensors(const topo::Topology& topo,
                                                PlacementKind kind,
                                                std::size_t n, util::Rng& rng);

/// Largest `n` that place_sensors can satisfy for `kind` on `topo`. Only
/// kRandomStub is capped (one sensor per distinct stub AS); the other
/// strategies reuse routers, so any count fits. Callers that oversample —
/// e.g. a planner drawing a candidate pool larger than the deployment —
/// must clamp against this before calling place_sensors.
[[nodiscard]] std::size_t placement_capacity(const topo::Topology& topo,
                                             PlacementKind kind);

/// The only interdomain link of the first sensor whose router has exactly
/// one, which no reroute can bypass; std::nullopt when none has.
[[nodiscard]] std::optional<topo::LinkId> lone_uplink(
    const topo::Topology& topo, const std::vector<Sensor>& sensors);

}  // namespace netd::probe
