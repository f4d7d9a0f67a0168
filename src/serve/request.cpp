#include "serve/request.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <initializer_list>
#include <span>
#include <string_view>

#include "core/error.h"
#include "core/time.h"
#include "grid/presets.h"
#include "sched/policy.h"

namespace hpcarbon::serve {

namespace {

/// Largest integer parameter the canonical form can carry exactly: the
/// normalized document stores numbers as doubles, so anything above 2^53
/// would canonicalize lossily.
constexpr double kMaxExactInt = 9007199254740992.0;  // 2^53

/// Strict, consuming view over a request's params object (a json::Reader
/// ref). Every getter validates its field, records it as consumed, and
/// emits the normalized value (default filled, name canonicalized) as a
/// pre-dumped canonical fragment; finish() rejects any field no getter
/// claimed. canonical() assembles the sorted {"op":..,"params":{..}} text
/// directly — the fragments byte-match what Value::dump(sort_keys) of the
/// equivalent document would produce, so canonical keys (and every cached
/// entry) are unchanged by the zero-copy rework.
///
/// Fragments are appended to one scratch buffer and recorded as (key,
/// begin, end) spans in fixed-capacity arrays, as are the claimed keys, so
/// a warm parse allocates only that buffer, the canonical text and, for the
/// trio families, the canonical policy name. String getters return views
/// into the request document (or into static defaults): they stay valid
/// until parse_query returns.
class ParamReader {
 public:
  using Ref = json::Reader::Ref;
  static constexpr Ref kNone = json::Reader::kNone;
  /// Claimed fields per family; lifetime has the most (11).
  static constexpr std::size_t kMaxFields = 11;
  /// Entries per string_array; bounds the region list of the trio
  /// families (one per Table 3 region).
  static constexpr std::size_t kMaxItems = 7;

  ParamReader(const json::Reader& reader, Ref params, std::string_view op)
      : reader_(reader), params_(params), op_(op) {
    buf_.reserve(256);
  }

  bool has(const char* key) const {
    return params_ != kNone && reader_.find(params_, key) != kNone;
  }

  double number(const char* key, double def, double lo, double hi) {
    double v = def;
    if (const Ref f = claim(key); f != kNone) {
      if (!reader_.is_number(f)) fail(key, "must be a number");
      v = reader_.as_number(f);
    }
    if (!(v >= lo && v <= hi)) {
      fail(key, "must be in [" + json::dump_number(lo) + ", " +
                    json::dump_number(hi) + "]");
    }
    emit_number(key, v);
    return v;
  }

  long integer(const char* key, long def, long lo, long hi) {
    double v = static_cast<double>(def);
    if (const Ref f = claim(key); f != kNone) {
      if (!reader_.is_number(f)) fail(key, "must be an integer");
      v = reader_.as_number(f);
      if (v != std::floor(v) || std::abs(v) > kMaxExactInt) {
        fail(key, "must be an integer");
      }
    }
    const long n = static_cast<long>(v);
    if (n < lo || n > hi) {
      fail(key, "must be in [" + std::to_string(lo) + ", " +
                    std::to_string(hi) + "]");
    }
    emit_number(key, static_cast<double>(n));
    return n;
  }

  std::string_view str(const char* key, const char* def) {
    std::string_view v = def;
    if (const Ref f = claim(key); f != kNone) {
      if (!reader_.is_string(f)) fail(key, "must be a string");
      v = reader_.as_string(f);
    }
    emit_string(key, v);
    return v;
  }

  std::string_view required_str(const char* key) {
    const Ref f = claim(key);
    if (f == kNone) fail(key, "is required");
    if (!reader_.is_string(f)) fail(key, "must be a string");
    const std::string_view v = reader_.as_string(f);
    emit_string(key, v);
    return v;
  }

  /// Optional string; absent fields stay absent in the normalized params
  /// (no default exists — e.g. trace_csv paths).
  std::string_view optional_str(const char* key) {
    const Ref f = claim(key);
    if (f == kNone) return {};
    if (!reader_.is_string(f) || reader_.as_string(f).empty()) {
      fail(key, "must be a non-empty string");
    }
    const std::string_view v = reader_.as_string(f);
    emit_string(key, v);
    return v;
  }

  /// Replace the normalized value of an already-claimed field (name
  /// canonicalization: short policy names, etc.).
  void rewrite(const char* key, std::string_view canonical_value) {
    for (Field& field : fields_span()) {
      if (field.key == key) {
        field.begin = buf_.size();
        json::quote_to(buf_, canonical_value);
        field.end = buf_.size();
        return;
      }
    }
  }

  /// The array's entries (or `def` when absent), valid until parse_query
  /// returns. Every entry is type-checked before the length is.
  std::span<const std::string_view> string_array(
      const char* key, std::initializer_list<std::string_view> def,
      std::size_t min_len, std::size_t max_len) {
    HPC_REQUIRE(max_len <= kMaxItems && def.size() <= kMaxItems,
                "ParamReader: string_array past its fixed capacity");
    std::size_t n = def.size();
    std::copy(def.begin(), def.end(), items_.begin());
    if (const Ref f = claim(key); f != kNone) {
      if (!reader_.is_array(f)) fail(key, "must be an array of strings");
      n = 0;
      for (Ref item = reader_.first_child(f); item != kNone;
           item = reader_.next(item)) {
        if (!reader_.is_string(item)) fail(key, "must be an array of strings");
        if (n < kMaxItems) items_[n] = reader_.as_string(item);
        ++n;
      }
    }
    if (n < min_len || n > max_len) {
      fail(key, "must have between " + std::to_string(min_len) + " and " +
                    std::to_string(max_len) + " entries");
    }
    const std::size_t begin = buf_.size();
    buf_.push_back('[');
    for (std::size_t i = 0; i < n; ++i) {
      if (i != 0) buf_.push_back(',');
      json::quote_to(buf_, items_[i]);
    }
    buf_.push_back(']');
    add_field(key, begin);
    return {items_.data(), n};
  }

  [[noreturn]] void fail(const char* key, const std::string& what) const {
    throw Error("query '" + std::string(op_) + "': parameter '" + key + "' " +
                what);
  }

  void finish() const {
    if (params_ == kNone) return;
    const auto consumed = consumed_.begin() + n_consumed_;
    for (Ref f = reader_.first_child(params_); f != kNone;
         f = reader_.next(f)) {
      const std::string_view k = reader_.key(f);
      if (std::find(consumed_.begin(), consumed, k) == consumed) {
        throw Error("query '" + std::string(op_) + "': unknown parameter '" +
                    std::string(k) + "'");
      }
    }
  }

  /// {"op":<op>,"params":{<sorted fragments>}}, reserved to its exact size
  /// (op and keys are plain identifiers, so quoting adds two bytes each).
  std::string canonical() {
    const std::span<Field> fields = fields_span();
    std::sort(fields.begin(), fields.end(),
              [](const Field& a, const Field& b) { return a.key < b.key; });
    constexpr std::string_view kOp = "{\"op\":";
    constexpr std::string_view kParams = ",\"params\":";
    std::size_t size = kOp.size() + op_.size() + 2 + kParams.size() + 3;
    for (const Field& field : fields) {
      size += field.key.size() + 3 + (field.end - field.begin);
    }
    if (!fields.empty()) size += fields.size() - 1;  // commas
    std::string out;
    out.reserve(size);
    out += kOp;
    json::quote_to(out, op_);
    out += kParams;
    out.push_back('{');
    for (std::size_t i = 0; i < fields.size(); ++i) {
      if (i != 0) out.push_back(',');
      json::quote_to(out, fields[i].key);
      out.push_back(':');
      out.append(buf_, fields[i].begin, fields[i].end - fields[i].begin);
    }
    out += "}}";
    return out;
  }

 private:
  /// One normalized field: its key and its fragment's span in buf_.
  struct Field {
    std::string_view key;
    std::size_t begin = 0;
    std::size_t end = 0;
  };

  std::span<Field> fields_span() { return {fields_.data(), n_fields_}; }

  Ref claim(const char* key) {
    HPC_REQUIRE(n_consumed_ < kMaxFields,
                "ParamReader: more fields claimed than kMaxFields");
    consumed_[n_consumed_++] = key;
    return params_ == kNone ? kNone : reader_.find(params_, key);
  }

  /// Record buf_[begin, size()) as `key`'s fragment.
  void add_field(const char* key, std::size_t begin) {
    HPC_REQUIRE(n_fields_ < kMaxFields,
                "ParamReader: more fields emitted than kMaxFields");
    fields_[n_fields_++] = {key, begin, buf_.size()};
  }

  void emit_number(const char* key, double v) {
    const std::size_t begin = buf_.size();
    json::dump_number_to(buf_, v);
    add_field(key, begin);
  }

  void emit_string(const char* key, std::string_view v) {
    const std::size_t begin = buf_.size();
    json::quote_to(buf_, v);
    add_field(key, begin);
  }

  const json::Reader& reader_;
  Ref params_;
  std::string_view op_;
  /// Getter keys are string literals with static storage, so views are
  /// safe to hold.
  std::array<std::string_view, kMaxFields> consumed_;
  std::size_t n_consumed_ = 0;
  /// Normalized fields in claim order; sorted once at assembly.
  std::array<Field, kMaxFields> fields_;
  std::size_t n_fields_ = 0;
  /// Every fragment, appended in claim order.
  std::string buf_;
  /// string_array's entries.
  std::array<std::string_view, kMaxItems> items_;
};

const std::vector<std::pair<const char*, embodied::PartId>>& slug_table() {
  using embodied::PartId;
  static const std::vector<std::pair<const char*, PartId>> table = {
      {"mi250x", PartId::kMi250x},
      {"a100-pcie-40", PartId::kA100Pcie40},
      {"v100-sxm2-32", PartId::kV100Sxm2_32},
      {"epyc-7763", PartId::kEpyc7763},
      {"epyc-7742", PartId::kEpyc7742},
      {"xeon-gold-6240r", PartId::kXeonGold6240R},
      {"dram-64gb-ddr4", PartId::kDram64GbDdr4},
      {"ssd-nytro-3530", PartId::kSsdNytro3530_3_2Tb},
      {"hdd-exos-x16", PartId::kHddExosX16_16Tb},
      {"p100-pcie-16", PartId::kP100Pcie16},
      {"a100-sxm4-40", PartId::kA100Sxm4_40},
      {"xeon-e5-2680", PartId::kXeonE5_2680},
      {"epyc-7542", PartId::kEpyc7542},
  };
  return table;
}

void check_region(ParamReader& r, const char* key, std::string_view code) {
  if (grid::find_region(code) == nullptr) {
    std::string known;
    for (const auto& c : grid::codes_of(grid::all_regions())) {
      known += (known.empty() ? "" : ", ") + c;
    }
    r.fail(key, "names no Table 3 region (known: " + known + ")");
  }
}

void check_node(ParamReader& r, const char* key, std::string_view node) {
  if (node != "p100" && node != "v100" && node != "a100") {
    r.fail(key, "must be one of p100, v100, a100");
  }
}

void check_suite(ParamReader& r, const char* key, std::string_view suite) {
  if (suite != "nlp" && suite != "vision" && suite != "candle") {
    r.fail(key, "must be one of nlp, vision, candle");
  }
}

void normalize_embodied(ParamReader& r) {
  const std::string_view part = r.required_str("part");
  const auto& table = slug_table();
  const bool known = std::any_of(table.begin(), table.end(), [&](auto& e) {
    return part == e.first;
  });
  if (!known) {
    std::string slugs;
    for (const auto& s : part_slugs()) slugs += (slugs.empty() ? "" : ", ") + s;
    r.fail("part", "names no catalog part (known: " + slugs + ")");
  }
}

void normalize_lifetime(ParamReader& r) {
  check_node(r, "node", r.required_str("node"));
  check_suite(r, "suite", r.str("suite", "nlp"));
  r.number("years", 5.0, 0.1, 100.0);
  r.number("gpu_usage", 0.40, 0.01, 1.0);
  check_region(r, "region", r.str("region", "CISO"));
  r.optional_str("trace_csv");
  r.integer("start_month", 5, 0, 11);
  r.number("pue", 1.2, 1.0, 3.0);
  // samples > 0 switches on the Monte-Carlo quantile columns; the draws
  // ride mc::substream(seed, i) so the answer is bit-identical whatever
  // pool executes it.
  r.integer("samples", 0, 0, 1000000);
  r.integer("seed", 42, 0, static_cast<long>(kMaxExactInt));
  r.number("grid_band", 0.10, 0.0, 0.99);
}

void normalize_breakeven(ParamReader& r) {
  check_node(r, "old_node", r.str("old_node", "v100"));
  check_node(r, "new_node", r.str("new_node", "a100"));
  check_suite(r, "suite", r.str("suite", "nlp"));
  r.number("intensity_g_per_kwh", 200.0, 1.0, 10000.0);
  r.number("annual_decline", 0.03, 0.0, 0.999);
  r.number("horizon_years", 15.0, 0.1, 200.0);
  r.number("gpu_usage", 0.40, 0.01, 1.0);
  r.number("pue", 1.2, 1.0, 3.0);
}

/// The trio fields the sched and fleetsim families share. regions[0] is
/// the home site; the engine adds the two cleanest others as remote
/// options, mirroring `hpcarbon run`.
void normalize_trio(ParamReader& r) {
  const auto regions = r.string_array(
      "regions", {"ERCOT", "ESO", "CISO"}, 1, grid::all_regions().size());
  for (auto it = regions.begin(); it != regions.end(); ++it) {
    check_region(r, "regions", *it);
    if (std::find(regions.begin(), it, *it) != it) {
      r.fail("regions", "lists region '" + std::string(*it) + "' twice");
    }
  }
  const sched::PolicyDescriptor* policy =
      sched::find_policy(r.required_str("policy"));
  if (policy == nullptr) {
    std::string known;
    for (const auto& d : sched::registered_policies()) {
      known += (known.empty() ? "" : ", ") + d.short_name;
    }
    r.fail("policy", "names no registered policy (known: " + known + ")");
  }
  // Short names resolve to the canonical name before hashing, so
  // {"policy":"greedy"} and {"policy":"greedy-lowest-ci"} share a cache
  // entry.
  r.rewrite("policy", policy->name);
}

/// Cross-field guard: the engine simulates millions of jobs per second,
/// but a serve answer should still be interactive — bound the expected
/// job count, not each factor alone.
void check_job_count(ParamReader& r, double rate, double days) {
  if (rate * 24.0 * days > 4.0e6) {
    r.fail("rate", "implies more than 4000000 expected jobs (rate * days * "
                   "24); lower rate or days");
  }
}

void normalize_sched(ParamReader& r) {
  normalize_trio(r);
  const double days = r.number("days", 28.0, 0.5, 366.0);
  const double rate = r.number("rate", 2.5, 0.01, 1000.0);
  check_job_count(r, rate, days);
  r.integer("capacity", 16, 1, 4096);
  r.integer("start_month", 5, 0, 11);
  r.integer("seed", 2024, 0, static_cast<long>(kMaxExactInt));
}

void normalize_fleetsim(ParamReader& r) {
  normalize_trio(r);
  const std::string_view process = r.str("process", "poisson");
  if (process != "poisson" && process != "diurnal" && process != "bursty") {
    r.fail("process", "must be one of poisson, diurnal, bursty");
  }
  const double days = r.number("days", 28.0, 0.5, 366.0);
  const double rate = r.number("rate", 4.0, 0.01, 10000.0);
  check_job_count(r, rate, days);
  r.integer("capacity", 16, 1, 4096);
  r.integer("start_month", 5, 0, 11);
  // samples > 0 adds savings quantiles over workload seeds (bounded: each
  // sample is two full fleet runs).
  r.integer("samples", 0, 0, 64);
  r.integer("seed", 2024, 0, static_cast<long>(kMaxExactInt));
}

void normalize_trace(ParamReader& r) {
  check_region(r, "region", r.required_str("region"));
  r.optional_str("trace_csv");
  const bool has_start = r.has("window_start_hour");
  const bool has_len = r.has("window_hours");
  if (has_start != has_len) {
    r.fail(has_start ? "window_hours" : "window_start_hour",
           "window queries need both window_start_hour and window_hours");
  }
  if (has_start) {
    r.number("window_start_hour", 0.0, 0.0, kHoursPerYear);
    r.number("window_hours", 24.0, 1e-6, kHoursPerYear);
  }
  // A windowless query carries no window fields in its canonical form, so
  // it shares a cache entry with any other spelling of "whole year".
}

}  // namespace

std::vector<std::string> query_families() {
  return {"embodied", "lifetime", "breakeven", "sched", "trace", "fleetsim"};
}

std::vector<std::string> part_slugs() {
  std::vector<std::string> out;
  for (const auto& [slug, id] : slug_table()) out.push_back(slug);
  return out;
}

embodied::PartId part_from_slug(const std::string& slug) {
  for (const auto& [s, id] : slug_table()) {
    if (slug == s) return id;
  }
  throw Error("unknown catalog part slug '" + slug + "'");
}

json::Value Query::params() const {
  json::Reader reader;
  const json::Reader::Ref root = reader.parse(canonical);
  return reader.materialize(reader.find(root, "params"));
}

Query parse_query(const json::Reader& reader, json::Reader::Ref doc) {
  using Ref = json::Reader::Ref;
  constexpr Ref kNone = json::Reader::kNone;

  if (!reader.is_object(doc)) throw Error("request must be a JSON object");
  for (Ref f = reader.first_child(doc); f != kNone; f = reader.next(f)) {
    const std::string_view k = reader.key(f);
    if (k != "op" && k != "params" && k != "id") {
      throw Error("request has unknown top-level field '" + std::string(k) +
                  "'");
    }
  }
  const Ref op_field = reader.find(doc, "op");
  if (op_field == kNone || !reader.is_string(op_field)) {
    throw Error("request needs a string 'op' field");
  }
  Query q;
  q.op = reader.as_string(op_field);

  if (const Ref id = reader.find(doc, "id"); id != kNone) {
    if (!reader.is_string(id)) throw Error("request 'id' must be a string");
    q.id = reader.as_string(id);
  }

  const Ref params = reader.find(doc, "params");
  if (params != kNone && !reader.is_object(params)) {
    throw Error("request 'params' must be an object");
  }

  // Family indices match query_families() order.
  ParamReader r(reader, params, q.op);
  if (q.op == "embodied") { q.family = 0; normalize_embodied(r); }
  else if (q.op == "lifetime") { q.family = 1; normalize_lifetime(r); }
  else if (q.op == "breakeven") { q.family = 2; normalize_breakeven(r); }
  else if (q.op == "sched") { q.family = 3; normalize_sched(r); }
  else if (q.op == "trace") { q.family = 4; normalize_trace(r); }
  else if (q.op == "fleetsim") { q.family = 5; normalize_fleetsim(r); }
  else {
    std::string known;
    for (const auto& f : query_families()) {
      known += (known.empty() ? "" : ", ") + f;
    }
    throw Error("unknown op '" + q.op + "' (known: " + known + ")");
  }
  r.finish();

  // The canonical text is assembled directly: "op" sorts before "params",
  // and the params fragments are already dump-identical, so these are the
  // exact bytes Value::dump(sort_keys=true) of the normalized document
  // produced before the zero-copy rework (pinned by the golden tests).
  q.canonical = r.canonical();
  q.key = json::fnv1a64(q.canonical);
  return q;
}

Query parse_query_line(std::string_view line) {
  json::Reader reader;
  return parse_query(reader, reader.parse(line));
}

}  // namespace hpcarbon::serve
