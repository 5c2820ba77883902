// JSON export of diagnosis results, for dashboards and tooling.
//
// Hand-rolled writer (no external dependencies): emits the event summary,
// the ranked hypothesis with per-link evidence and AS attribution, and the
// implicated-AS list. Stable key order, RFC 8259-escaped strings.
#pragma once

#include <string>
#include <string_view>

#include "core/diagnosis_graph.h"
#include "core/solver.h"

namespace netd::core {

/// Serializes a diagnosis. Schema:
/// {
///   "pairs": N, "failed": F, "rerouted": R, "probed_links": E,
///   "unexplained_failure_sets": U, "unknown_as_links": K,
///   "hypothesis": [
///     {"link": "a|b", "score": 3.0, "round": 0,
///      "logical": false, "unidentified": false, "ases": [1, 2]}
///   ],
///   "implicated_ases": [1, 2, 3]
/// }
[[nodiscard]] std::string to_json(const DiagnosisGraph& dg,
                                  const Result& result);

/// Escapes a string for embedding in JSON (quotes not included).
[[nodiscard]] std::string json_escape(const std::string& s);
/// json_escape(s), appended to `out`.
void append_json_escaped(std::string& out, std::string_view s);

}  // namespace netd::core
