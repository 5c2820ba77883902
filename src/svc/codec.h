// The typed wire codec: observation meshes straight between bytes and
// probe::Mesh, with no JSON DOM on the hot paths.
//
// Every full-mesh carrier — the set_baseline/observe/observe_batch
// frames, the journal's baseline/obs/bobs records and the snapshot's
// baseline, trace lines, and the agent's spool payload and BASELINE file —
// is written by append_mesh (with util/json.h's appenders for the
// document around it) and read by parse_mesh_doc.
//
//   * Same bytes out: append_mesh writes exactly mesh_to_json(m).dump().
//   * Same language in: parse_mesh_doc walks the document once with the
//     JsonReader grammar that Json::parse uses, so it accepts exactly the
//     documents Json::parse accepts and fails with the same error text.
//     The mesh member is decoded as mesh_from_json would decode it, with
//     the same verdict and message; every other member (small: op,
//     session, cp, trace, config, ...) lands in a DOM for the usual
//     accessors.
//
// mesh_to_json/mesh_from_json (protocol.h) remain as the differential
// oracle of tests/svc/codec_differential_test.cc.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "probe/prober.h"
#include "svc/json.h"

namespace netd::svc {

/// Largest link or router id a mesh may carry: the ids are 32-bit and
/// the all-ones value is their "no id" sentinel.
inline constexpr std::uint64_t kMaxMeshId = topo::LinkId::kInvalid - 1;

/// Hop kinds on the wire: one-letter tags keep full-mesh frames small.
[[nodiscard]] const char* hop_kind_tag(graph::NodeKind k);
[[nodiscard]] std::optional<graph::NodeKind> hop_kind_from_tag(
    std::string_view tag);

/// mesh_to_json(mesh).dump(), appended to `out`.
void append_mesh(std::string& out, const probe::Mesh& mesh);

/// One mesh-carrying member, decoded.
struct MeshMember {
  enum class State {
    kAbsent,     ///< the document has no such member
    kNotObject,  ///< present, but not a JSON object
    kInvalid,    ///< an object mesh_from_json rejects; `error` says why
    kDecoded,    ///< `mesh` holds it
  };
  State state = State::kAbsent;
  probe::Mesh mesh;
  std::string error;

  /// What mesh_from_json(member) returns: the mesh, or std::nullopt with
  /// its message in `error`. The member must be present.
  [[nodiscard]] std::optional<probe::Mesh> take(std::string* error);
};

/// A document whose mesh member(s) skipped the DOM.
struct MeshDoc {
  /// The document without its typed members: an object for well-formed
  /// carriers, otherwise whatever value the document held.
  Json rest;
  MeshMember mesh;
  /// With `items` parsing: the "items" member, an array of documents
  /// whose own "mesh" members are typed (observe_batch).
  enum class Items { kAbsent, kNotArray, kArray };
  Items items_state = Items::kAbsent;
  std::vector<MeshDoc> items;
};

/// Parses `text` as Json::parse does — the same accepted language, the
/// same error text with its offset — decoding the object member named
/// `mesh_key` (and, with `items`, the "mesh" member of every object in
/// an "items" array) straight into probe::Mesh. std::nullopt only when
/// Json::parse would fail; a mesh that mesh_from_json rejects is reported
/// in its MeshMember and does not stop validation of the rest.
[[nodiscard]] std::optional<MeshDoc> parse_mesh_doc(std::string_view text,
                                                    std::string_view mesh_key,
                                                    bool items,
                                                    std::string* error);

/// A document that is one mesh: mesh_from_json(*Json::parse(text)), with
/// both steps' errors.
[[nodiscard]] std::optional<probe::Mesh> parse_mesh(std::string_view text,
                                                    std::string* error);

}  // namespace netd::svc
