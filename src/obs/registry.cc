#include "obs/registry.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "obs/trace_context.h"

namespace netd::obs {

namespace {

/// Stable shard index for the calling thread: threads are numbered in
/// creation order, taken modulo the shard count. Cheaper and more evenly
/// spread than hashing std::thread::id.
std::size_t thread_shard_slot() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t slot =
      next.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

/// Renders a double the way the exposition surface wants it: integral
/// values as integers (counters read naturally), everything else with
/// enough digits to round-trip monitoring math.
std::string format_value(double v) {
  // Range-check before casting: long long conversion is UB outside its
  // range and for NaN/Inf (both fail the comparisons below, so they fall
  // through to %g).
  if (v > -1e15 && v < 1e15 &&
      v == static_cast<double>(static_cast<long long>(v))) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

/// Prometheus label-value escaping: backslash, double quote, newline.
std::string escape_label_value(std::string_view v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

/// {a="x",b="y"} — empty string when there are no labels. `extra` slips
/// the histogram `le` label in after the user labels.
std::string render_labels(
    const std::vector<std::pair<std::string, std::string>>& labels,
    const std::pair<std::string, std::string>* extra = nullptr) {
  if (labels.empty() && extra == nullptr) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += k;
    out += "=\"";
    out += escape_label_value(v);
    out += "\"";
  }
  if (extra != nullptr) {
    if (!first) out += ",";
    out += extra->first;
    out += "=\"";
    out += escape_label_value(extra->second);
    out += "\"";
  }
  out += "}";
  return out;
}

const char* type_name(SampleType t) {
  switch (t) {
    case SampleType::kCounter: return "counter";
    case SampleType::kGauge: return "gauge";
    case SampleType::kHistogram: return "histogram";
  }
  return "untyped";
}

}  // namespace

// ---------------------------------------------------------------------------
// Histogram.

Histogram::Histogram(double lo, double growth, std::size_t buckets)
    : lo_(lo), growth_(growth), buckets_(buckets) {
  shards_.reserve(kShards);
  for (std::size_t i = 0; i < kShards; ++i)
    shards_.push_back(std::make_unique<Shard>(lo, growth, buckets));
}

void Histogram::observe(double x) noexcept {
  Shard& s = *shards_[thread_shard_slot() % kShards];
  std::lock_guard<std::mutex> lock(s.mu);
  s.h.add(x);
}

util::Histogram Histogram::snapshot() const {
  util::Histogram merged(lo_, growth_, buckets_);
  for (const auto& s : shards_) {
    std::lock_guard<std::mutex> lock(s->mu);
    merged.merge(s->h);
  }
  return merged;
}

// ---------------------------------------------------------------------------
// Registry.

Registry& Registry::global() {
  // Leaked on purpose: instrument references cached at call sites must
  // survive static destruction of everything else.
  static Registry* g = new Registry();
  return *g;
}

Registry::Entry& Registry::find_or_create(
    std::string_view name, std::string_view help, SampleType type,
    std::vector<std::pair<std::string, std::string>> labels) {
  std::string key(name);
  key += render_labels(labels);
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& e : entries_) {
    if (e->key != key) continue;
    if (e->type != type) {
      // Re-registering a series under a different type is a programmer
      // error that would make the TYPE line lie about the value shape.
      // Fail loudly rather than silently reusing the entry.
      std::fprintf(stderr,
                   "netd_obs: metric '%s' registered as %s but previously "
                   "as %s\n",
                   e->key.c_str(), type_name(type), type_name(e->type));
      std::abort();
    }
    return *e;
  }
  auto e = std::make_unique<Entry>();
  e->name = std::string(name);
  e->help = std::string(help);
  e->type = type;
  e->labels = std::move(labels);
  e->key = std::move(key);
  entries_.push_back(std::move(e));
  return *entries_.back();
}

Counter& Registry::counter(
    std::string_view name, std::string_view help,
    std::vector<std::pair<std::string, std::string>> labels) {
  Entry& e = find_or_create(name, help, SampleType::kCounter,
                            std::move(labels));
  if (!e.counter) e.counter = std::make_unique<Counter>();
  return *e.counter;
}

Gauge& Registry::gauge(
    std::string_view name, std::string_view help,
    std::vector<std::pair<std::string, std::string>> labels) {
  Entry& e = find_or_create(name, help, SampleType::kGauge, std::move(labels));
  if (!e.gauge) e.gauge = std::make_unique<Gauge>();
  return *e.gauge;
}

Histogram& Registry::histogram(
    std::string_view name, std::string_view help,
    std::vector<std::pair<std::string, std::string>> labels, double lo,
    double growth, std::size_t buckets) {
  Entry& e =
      find_or_create(name, help, SampleType::kHistogram, std::move(labels));
  if (!e.hist) e.hist = std::make_unique<Histogram>(lo, growth, buckets);
  return *e.hist;
}

std::vector<Sample> Registry::collect() const {
  std::vector<Sample> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.reserve(entries_.size());
    for (const auto& e : entries_) {
      Sample s;
      s.name = e->name;
      s.help = e->help;
      s.type = e->type;
      s.labels = e->labels;
      if (e->counter) {
        s.value = static_cast<double>(e->counter->value());
        s.exemplar_trace_id = e->counter->exemplar();
      }
      if (e->gauge) s.value = e->gauge->value();
      if (e->hist) s.hist = e->hist->snapshot();
      out.push_back(std::move(s));
    }
  }
  std::sort(out.begin(), out.end(), [](const Sample& a, const Sample& b) {
    if (a.name != b.name) return a.name < b.name;
    return a.labels < b.labels;
  });
  return out;
}

// ---------------------------------------------------------------------------
// Exposition.

std::string render_prometheus(const std::vector<Sample>& samples) {
  std::string out;
  std::string last_family;
  for (const Sample& s : samples) {
    if (s.name != last_family) {
      if (!s.help.empty()) {
        out += "# HELP ";
        out += s.name;
        out += " ";
        out += s.help;
        out += "\n";
      }
      out += "# TYPE ";
      out += s.name;
      out += " ";
      out += type_name(s.type);
      out += "\n";
      last_family = s.name;
    }
    if (s.type == SampleType::kHistogram) {
      std::uint64_t cum = 0;
      for (const util::Histogram::Bucket& b : s.hist.nonzero_buckets()) {
        cum += b.count;
        char edge[64];
        if (b.upper == std::numeric_limits<double>::infinity()) continue;
        std::snprintf(edge, sizeof(edge), "%.10g", b.upper);
        const std::pair<std::string, std::string> le{"le", edge};
        out += s.name;
        out += "_bucket";
        out += render_labels(s.labels, &le);
        out += " ";
        out += format_value(static_cast<double>(cum));
        out += "\n";
      }
      const std::pair<std::string, std::string> inf{"le", "+Inf"};
      out += s.name;
      out += "_bucket";
      out += render_labels(s.labels, &inf);
      out += " ";
      out += format_value(static_cast<double>(s.hist.count()));
      out += "\n";
      out += s.name;
      out += "_sum";
      out += render_labels(s.labels);
      out += " ";
      out += format_value(s.hist.sum());
      out += "\n";
      out += s.name;
      out += "_count";
      out += render_labels(s.labels);
      out += " ";
      out += format_value(static_cast<double>(s.hist.count()));
      out += "\n";
    } else {
      out += s.name;
      out += render_labels(s.labels);
      out += " ";
      out += format_value(s.value);
      if (s.exemplar_trace_id != 0) {
        out += " # {trace_id=\"";
        out += format_trace_id(s.exemplar_trace_id);
        out += "\"} 1";
      }
      out += "\n";
    }
  }
  return out;
}

std::string render_global_prometheus(const std::vector<Sample>& extras) {
  std::vector<Sample> all = Registry::global().collect();
  all.insert(all.end(), extras.begin(), extras.end());
  // Re-sort the merged list: extras arrive in caller order and may
  // interleave with registry families; Prometheus parsers require each
  // family contiguous under a single TYPE line.
  std::sort(all.begin(), all.end(), [](const Sample& a, const Sample& b) {
    if (a.name != b.name) return a.name < b.name;
    return a.labels < b.labels;
  });
  return render_prometheus(all);
}

}  // namespace netd::obs
