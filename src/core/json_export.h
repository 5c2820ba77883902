// JSON export of diagnosis results, for dashboards and tooling.
//
// Emits the event summary, the ranked hypothesis with per-link evidence
// and AS attribution, and the implicated-AS list, in a stable key order.
// Written straight into one string with util/json.h's appenders (its
// escaper and number rule), not through the DOM: the document is on
// every diagnosis's path.
#pragma once

#include <string>

#include "core/diagnosis_graph.h"
#include "core/solver.h"

namespace netd::core {

/// Serializes a diagnosis. Schema:
/// {
///   "pairs": N, "failed": F, "rerouted": R, "probed_links": E,
///   "unexplained_failure_sets": U, "unknown_as_links": K,
///   "hypothesis": [
///     {"link": "a|b", "score": 2.5, "round": 0,
///      "logical": false, "unidentified": false, "ases": [1, 2]}
///   ],
///   "implicated_ases": [1, 2, 3]
/// }
/// An IGP-confirmed link (infinite score, round -1) has the score
/// "igp-confirmed".
[[nodiscard]] std::string to_json(const DiagnosisGraph& dg,
                                  const Result& result);

}  // namespace netd::core
