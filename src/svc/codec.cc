#include "svc/codec.h"

#include <iterator>

namespace netd::svc {

const char* hop_kind_tag(graph::NodeKind k) {
  switch (k) {
    case graph::NodeKind::kRouter: return "r";
    case graph::NodeKind::kSensor: return "s";
    case graph::NodeKind::kUnidentified: return "u";
    case graph::NodeKind::kLogical: return "l";
  }
  return "r";
}

std::optional<graph::NodeKind> hop_kind_from_tag(std::string_view t) {
  if (t == "r") return graph::NodeKind::kRouter;
  if (t == "s") return graph::NodeKind::kSensor;
  if (t == "u") return graph::NodeKind::kUnidentified;
  if (t == "l") return graph::NodeKind::kLogical;
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Writer.

void append_mesh(std::string& out, const probe::Mesh& mesh) {
  out += "{\"paths\":[";
  for (std::size_t i = 0; i < mesh.paths.size(); ++i) {
    const probe::TracePath& p = mesh.paths[i];
    if (i != 0) out += ',';
    out += "{\"src\":";
    util::append_json_uint(out, p.src);
    out += ",\"dst\":";
    util::append_json_uint(out, p.dst);
    out += p.ok ? ",\"ok\":true,\"hops\":[" : ",\"ok\":false,\"hops\":[";
    for (std::size_t k = 0; k < p.hops.size(); ++k) {
      const probe::Hop& h = p.hops[k];
      out += k != 0 ? ",[" : "[";
      util::append_json_string(out, h.label);
      out += ",\"";
      out += hop_kind_tag(h.kind);
      out += "\",";
      util::append_json_int(out, h.asn);
      out += ',';
      util::append_json_int(out, h.router.valid()
                                     ? static_cast<long long>(h.router.value())
                                     : -1);
      out += ']';
    }
    out += "],\"links\":[";
    for (std::size_t k = 0; k < p.links.size(); ++k) {
      if (k != 0) out += ',';
      util::append_json_uint(out, p.links[k].value());
    }
    out += "]}";
  }
  out += "]}";
}

// ---------------------------------------------------------------------------
// Reader.

std::optional<probe::Mesh> MeshMember::take(std::string* error) {
  std::string why;
  switch (state) {
    case State::kDecoded:
      return std::move(mesh);
    case State::kAbsent:
    case State::kNotObject:
      why = "mesh must be an object";
      break;
    case State::kInvalid:
      why = this->error;
      break;
  }
  if (error != nullptr && error->empty()) *error = std::move(why);
  return std::nullopt;
}

namespace {

using Kind = JsonReader::Kind;
using Next = JsonReader::Next;

/// How one member a decoder requires turned out. The DOM decoders check
/// required members in a fixed order whatever order they arrive in, so the
/// reader notes each one and names the first failure once the object ends.
enum class Field : std::uint8_t { kAbsent, kWrongType, kBadValue, kOk };

/// The message mesh_from_json's require()/require_uint() give `f`.
std::string field_error(std::string_view key, Field f) {
  const std::string k(key);
  switch (f) {
    case Field::kAbsent: return "missing field '" + k + "'";
    case Field::kWrongType: return "field '" + k + "' has wrong type";
    case Field::kBadValue:
      return "field '" + k + "' must be an unsigned integer";
    case Field::kOk: break;
  }
  return "";
}

/// One pass over a document: the typed members decoded, the rest parsed
/// into a DOM.
class Decoder {
 public:
  Decoder(std::string_view text, std::string* error) : r_(text, error) {}

  JsonReader& reader() { return r_; }

  /// A document at `depth`; an object has `mesh_key` typed, and with
  /// `items` each object in its "items" array has "mesh" typed.
  bool doc(std::size_t depth, std::string_view mesh_key, bool items,
           MeshDoc* out) {
    Kind kind;
    if (!r_.begin_value(depth, &kind)) return false;
    if (kind != Kind::kObject) return r_.value(out->rest, depth);
    out->rest = Json::object();
    if (!r_.open_object()) return true;
    while (true) {
      std::string_view key;
      if (!r_.key(&key, scratch_)) return false;
      if (key == mesh_key) {
        if (out->mesh.state != MeshMember::State::kAbsent) {
          return r_.duplicate_key(key);
        }
        if (!r_.colon() || !mesh(depth + 1, &out->mesh)) return false;
      } else if (items && key == "items") {
        if (out->items_state != MeshDoc::Items::kAbsent) {
          return r_.duplicate_key(key);
        }
        if (!r_.colon() || !item_array(depth + 1, out)) return false;
      } else {
        if (out->rest.find(key) != nullptr) return r_.duplicate_key(key);
        std::string name(key);
        Json v;
        if (!r_.colon() || !r_.value(v, depth + 1)) return false;
        out->rest.set(std::move(name), std::move(v));
      }
      const Next next = r_.next_member();
      if (next != Next::kMore) return next == Next::kEnd;
    }
  }

  /// A mesh at `depth`, with mesh_from_json's verdict.
  bool mesh(std::size_t depth, MeshMember* out) {
    Kind kind;
    if (!r_.begin_value(depth, &kind)) return false;
    if (kind != Kind::kObject) {
      out->state = MeshMember::State::kNotObject;
      return skip(depth);
    }
    Field paths = Field::kAbsent;
    std::string error;  // the first path's failure, in DOM order
    Unknown unknown;
    if (r_.open_object()) {
      while (true) {
        std::string_view key;
        if (!r_.key(&key, scratch_)) return false;
        const bool is_paths = key == "paths";
        if (is_paths ? paths != Field::kAbsent : unknown.seen(key)) {
          return r_.duplicate_key(key);
        }
        if (!r_.colon()) return false;
        if (is_paths) {
          Kind pk;
          if (!r_.begin_value(depth + 1, &pk)) return false;
          paths = pk == Kind::kArray ? Field::kOk : Field::kWrongType;
          if (paths == Field::kOk ? !path_array(depth + 1, &out->mesh, &error)
                                  : !skip(depth + 1)) {
            return false;
          }
        } else if (!skip(depth + 1)) {
          return false;
        }
        const Next next = r_.next_member();
        if (next == Next::kError) return false;
        if (next == Next::kEnd) break;
      }
    }
    if (paths != Field::kOk) error = field_error("paths", paths);
    out->state = error.empty() ? MeshMember::State::kDecoded
                               : MeshMember::State::kInvalid;
    out->error = std::move(error);
    return true;
  }

 private:
  /// Keys of members a decoder does not read: validated, checked for
  /// duplicates, dropped. Real frames carry none, so this never allocates
  /// on the hot path.
  class Unknown {
   public:
    /// True when `key` was seen before; records it otherwise.
    bool seen(std::string_view key) {
      for (const std::string& k : keys_) {
        if (k == key) return true;
      }
      keys_.emplace_back(key);
      return false;
    }

   private:
    std::vector<std::string> keys_;
  };

  bool skip(std::size_t depth) {
    Json ignored;
    return r_.value(ignored, depth);
  }

  void note(std::string* error, std::string what) {
    if (error->empty()) *error = std::move(what);
  }

  bool item_array(std::size_t depth, MeshDoc* out) {
    Kind kind;
    if (!r_.begin_value(depth, &kind)) return false;
    if (kind != Kind::kArray) {
      out->items_state = MeshDoc::Items::kNotArray;
      return skip(depth);
    }
    out->items_state = MeshDoc::Items::kArray;
    if (!r_.open_array()) return true;
    while (true) {
      if (!doc(depth + 1, "mesh", false, &out->items.emplace_back())) {
        return false;
      }
      const Next next = r_.next_element();
      if (next != Next::kMore) return next == Next::kEnd;
    }
  }

  bool path_array(std::size_t depth, probe::Mesh* mesh, std::string* error) {
    if (!r_.open_array()) return true;
    for (std::size_t i = 0;; ++i) {
      Kind kind;
      if (!r_.begin_value(depth + 1, &kind)) return false;
      if (kind != Kind::kObject) {
        note(error, "mesh path " + std::to_string(i) + " must be an object");
        if (!skip(depth + 1)) return false;
      } else if (!path(depth + 1, i, &mesh->paths.emplace_back(), error)) {
        return false;
      }
      const Next next = r_.next_element();
      if (next != Next::kMore) return next == Next::kEnd;
    }
  }

  /// One path object at `depth` (the cursor on its '{'), path `index` of
  /// its mesh. Notes mesh_from_json's message for it unless an earlier
  /// path already failed.
  bool path(std::size_t depth, std::size_t index, probe::TracePath* p,
            std::string* error) {
    Field src = Field::kAbsent, dst = Field::kAbsent, ok = Field::kAbsent;
    Field hops = Field::kAbsent, links = Field::kAbsent;
    std::size_t hop_count = 0;
    std::string hop_error;
    bool link_error = false;
    Unknown unknown;
    if (r_.open_object()) {
      while (true) {
        std::string_view key;
        if (!r_.key(&key, scratch_)) return false;
        Field* field = key == "src"     ? &src
                       : key == "dst"   ? &dst
                       : key == "ok"    ? &ok
                       : key == "hops"  ? &hops
                       : key == "links" ? &links
                                        : nullptr;
        if (field != nullptr ? *field != Field::kAbsent : unknown.seen(key)) {
          return r_.duplicate_key(key);
        }
        if (!r_.colon()) return false;
        const std::size_t d = depth + 1;
        bool good = true;
        if (field == &src || field == &dst) {
          good = uint_field(d, field, field == &src ? &p->src : &p->dst);
        } else if (field == &ok) {
          good = bool_field(d, field, &p->ok);
        } else if (field == &hops) {
          good = hop_array(d, field, p, &hop_count, &hop_error);
        } else if (field == &links) {
          good = link_array(d, field, p, &link_error);
        } else {
          good = skip(d);
        }
        if (!good) return false;
        const Next next = r_.next_member();
        if (next == Next::kError) return false;
        if (next == Next::kEnd) break;
      }
    }
    if (!error->empty()) return true;
    if (src != Field::kOk) {
      *error = field_error("src", src);
    } else if (dst != Field::kOk) {
      *error = field_error("dst", dst);
    } else if (ok != Field::kOk) {
      *error = field_error("ok", ok);
    } else if (hops != Field::kOk) {
      *error = field_error("hops", hops);
    } else if (links != Field::kOk) {
      *error = field_error("links", links);
    } else if (p->ok && hop_count == 0) {  // a diagnosis reads its last hop
      *error = "mesh path " + std::to_string(index) + " is ok but has no hops";
    } else if (!hop_error.empty()) {
      *error = std::move(hop_error);
    } else if (link_error) {
      *error = "mesh link ids must be 32-bit unsigned integers";
    }
    return true;
  }

  bool uint_field(std::size_t depth, Field* field, std::size_t* out) {
    Kind kind;
    if (!r_.begin_value(depth, &kind)) return false;
    if (kind != Kind::kNumber) {
      *field = Field::kWrongType;
      return skip(depth);
    }
    std::string_view lexeme;
    if (!r_.number(&lexeme)) return false;
    const auto v = Json::uint_from_lexeme(lexeme);
    *field = v ? Field::kOk : Field::kBadValue;
    if (v) *out = static_cast<std::size_t>(*v);
    return true;
  }

  bool bool_field(std::size_t depth, Field* field, bool* out) {
    Kind kind;
    if (!r_.begin_value(depth, &kind)) return false;
    *field = Field::kWrongType;
    if (kind != Kind::kLiteral) return skip(depth);
    Json v;
    if (!r_.value(v, depth)) return false;
    if (v.is_bool()) {
      *field = Field::kOk;
      *out = v.as_bool();
    }
    return true;
  }

  bool hop_array(std::size_t depth, Field* field, probe::TracePath* p,
                 std::size_t* count, std::string* error) {
    Kind kind;
    if (!r_.begin_value(depth, &kind)) return false;
    if (kind != Kind::kArray) {
      *field = Field::kWrongType;
      return skip(depth);
    }
    *field = Field::kOk;
    // Hops decode into a reused buffer, then move out in one allocation.
    std::size_t n = 0;
    if (r_.open_array()) {
      while (true) {
        if (n == hops_.size()) hops_.emplace_back();
        if (!hop(depth + 1, &hops_[n++], error)) return false;
        const Next next = r_.next_element();
        if (next == Next::kError) return false;
        if (next == Next::kEnd) break;
      }
    }
    *count = n;
    p->hops.assign(std::make_move_iterator(hops_.begin()),
                   std::make_move_iterator(hops_.begin() + n));
    return true;
  }

  /// One hop, [label, kind, asn, router], at `depth`.
  bool hop(std::size_t depth, probe::Hop* h, std::string* error) {
    h->router = topo::RouterId{};
    Kind kind;
    if (!r_.begin_value(depth, &kind)) return false;
    bool shape = kind == Kind::kArray;
    std::size_t n = 0;
    std::string_view asn, router;
    if (!shape) {
      if (!skip(depth)) return false;
    } else if (r_.open_array()) {
      while (true) {
        Kind ek;
        if (!r_.begin_value(depth + 1, &ek)) return false;
        const Kind want = n < 2 ? Kind::kString : Kind::kNumber;
        bool good = true;
        if (n >= 4 || ek != want) {
          shape = false;
          good = skip(depth + 1);
        } else if (n == 0) {
          good = r_.string(h->label);
        } else if (n == 1) {
          good = r_.string(tag_);
        } else {
          good = r_.number(n == 2 ? &asn : &router);
        }
        if (!good) return false;
        ++n;
        const Next next = r_.next_element();
        if (next == Next::kError) return false;
        if (next == Next::kEnd) break;
      }
    }
    if (!error->empty()) return true;
    if (!shape || n != 4) {
      *error = "mesh hop must be [label, kind, asn, router]";
      return true;
    }
    const auto k = hop_kind_from_tag(tag_);
    const auto as = Json::int32_from_lexeme(asn);
    const auto id = Json::uint_from_lexeme(router, kMaxMeshId);
    if (!k) {
      *error = "unknown hop kind '" + tag_ + "'";
    } else if (!as) {
      *error = "mesh hop asn must be an integer in int range";
    } else if (!id && router != "-1") {  // append_mesh's "no router"
      *error = "mesh router ids must be -1 or 32-bit ids";
    } else {
      h->kind = *k;
      h->asn = *as;
      if (id) h->router = topo::RouterId{static_cast<std::uint32_t>(*id)};
    }
    return true;
  }

  bool link_array(std::size_t depth, Field* field, probe::TracePath* p,
                  bool* link_error) {
    Kind kind;
    if (!r_.begin_value(depth, &kind)) return false;
    if (kind != Kind::kArray) {
      *field = Field::kWrongType;
      return skip(depth);
    }
    *field = Field::kOk;
    if (!r_.open_array()) return true;
    while (true) {
      Kind ek;
      if (!r_.begin_value(depth + 1, &ek)) return false;
      std::optional<std::uint64_t> id;
      if (ek == Kind::kNumber) {
        std::string_view lexeme;
        if (!r_.number(&lexeme)) return false;
        id = Json::uint_from_lexeme(lexeme, kMaxMeshId);
      } else if (!skip(depth + 1)) {
        return false;
      }
      if (id) {
        p->links.push_back(topo::LinkId{static_cast<std::uint32_t>(*id)});
      } else {
        *link_error = true;
      }
      const Next next = r_.next_element();
      if (next != Next::kMore) return next == Next::kEnd;
    }
  }

  JsonReader r_;
  std::string scratch_;        ///< an unescaped key, until its value
  std::string tag_;            ///< the current hop's kind tag
  std::vector<probe::Hop> hops_;  ///< the current path's hops
};

}  // namespace

std::optional<MeshDoc> parse_mesh_doc(std::string_view text,
                                      std::string_view mesh_key, bool items,
                                      std::string* error) {
  if (error != nullptr) error->clear();
  Decoder d(text, error);
  d.reader().skip_ws();
  MeshDoc doc;
  if (!d.doc(0, mesh_key, items, &doc) || !d.reader().finish()) {
    return std::nullopt;
  }
  return doc;
}

std::optional<probe::Mesh> parse_mesh(std::string_view text,
                                      std::string* error) {
  if (error != nullptr) error->clear();
  Decoder d(text, error);
  d.reader().skip_ws();
  MeshMember mesh;
  if (!d.mesh(0, &mesh) || !d.reader().finish()) return std::nullopt;
  return mesh.take(error);
}

}  // namespace netd::svc
