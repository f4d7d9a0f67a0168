// Minimal dependency-free JSON: the wire format of the serve layer.
//
// The repo's interchange format has been CSV (traces, reports); the query
// service (src/serve) needs structured, self-describing requests and
// responses, so this module adds the smallest JSON core that supports it:
// objects, arrays, strings, numbers, booleans, and null, parsed from and
// written to single-line documents (the serve front-ends speak
// line-delimited JSON).
//
// Two properties matter more here than generality:
//
//  * Deterministic emission — dump() renders numbers through
//    std::to_chars (shortest round-trip form), escapes identically
//    everywhere, and can sort object keys. Responses must be bit-identical
//    across front-ends and thread counts, and the request canonicalization
//    (serve/request.h) hashes dumped text.
//  * Strict parsing — unknown escapes, trailing garbage, ragged numbers,
//    and duplicate object keys are errors (hpcarbon::Error with an offset),
//    never silently accepted: a canonical cache key must not be ambiguous
//    about what was asked.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hpcarbon::json {

class Value;
/// One object member. Insertion order is preserved; dump(sort_keys=true)
/// orders by key bytes without mutating the value.
using Member = std::pair<std::string, Value>;

class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Default-constructed value is null.
  Value() = default;

  static Value null();
  static Value boolean(bool b);
  /// Throws hpcarbon::Error for non-finite numbers (JSON cannot carry
  /// NaN/Inf, and a canonical key must not depend on a platform's printf).
  static Value number(double v);
  static Value string(std::string s);
  static Value array(std::vector<Value> items = {});
  static Value object(std::vector<Member> members = {});

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors; throw hpcarbon::Error on a type mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const std::vector<Value>& items() const;      // array elements
  const std::vector<Member>& members() const;   // object members

  /// Array/object element count; throws for scalar types.
  std::size_t size() const;

  /// Object lookup; nullptr when the key is absent (throws if not an
  /// object).
  const Value* find(const std::string& key) const;

  /// Object insert-or-replace, preserving the original position on
  /// replace. Returns *this for chaining.
  Value& set(std::string key, Value v);

  /// Array append (throws if not an array).
  void push_back(Value v);

  /// Compact single-line rendering ({"a":1,"b":[true,null]}).
  /// sort_keys orders every object's members by key bytes — the canonical
  /// form the serve layer hashes.
  std::string dump(bool sort_keys = false) const;

  /// Append-style rendering into a caller-owned buffer: identical bytes to
  /// dump(), no intermediate strings. The serve hot path reuses one
  /// per-thread buffer across requests, so emission allocates O(1)
  /// amortized.
  void dump_to(std::string& out, bool sort_keys = false) const;

  /// Parse exactly one document (leading/trailing whitespace allowed,
  /// anything else after the value is an error). Throws hpcarbon::Error
  /// with a byte offset on malformed input; nesting is capped at depth 64.
  /// Implemented as Reader::parse + materialization, so the strictness and
  /// error text of the two parsers cannot diverge.
  static Value parse(std::string_view text);

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double num_ = 0;
  std::string str_;
  std::vector<Value> arr_;
  std::vector<Member> obj_;
};

/// Zero-copy single-document parser: the serve hot path's view of a
/// request line.
///
/// parse() builds the document tree in a flat node pool (first-child /
/// next-sibling links) instead of heap-allocated Values. String payloads
/// are string_views into the *input text* whenever they contain no escape,
/// and into an internal unescape arena otherwise — so parsing a typical
/// request line performs no per-node allocation at all once the pool and
/// arena have warmed up (the Reader is designed to be reused; a
/// thread_local instance amortizes to zero allocations per line).
///
/// Grammar, strictness, nesting cap, and every error message byte
/// (including offsets) are identical to the historical Value::parse —
/// which is now implemented on top of this class, and whose golden corpus
/// (tests/test_json_golden.cpp) pins that equivalence.
///
/// Lifetime: refs and string_views are valid until the next parse() call
/// and require `text` to outlive them. Refs are indices into the pool;
/// kNone is the null ref.
class Reader {
 public:
  using Ref = std::uint32_t;
  static constexpr Ref kNone = 0xFFFFFFFFu;

  Reader() = default;
  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;

  /// Parse one document; returns the root ref. Resets previous contents
  /// (pool and arena capacity is retained — the point of reuse).
  Ref parse(std::string_view text);

  Value::Type type(Ref r) const { return node(r).type; }
  bool is_null(Ref r) const { return type(r) == Value::Type::kNull; }
  bool is_bool(Ref r) const { return type(r) == Value::Type::kBool; }
  bool is_number(Ref r) const { return type(r) == Value::Type::kNumber; }
  bool is_string(Ref r) const { return type(r) == Value::Type::kString; }
  bool is_array(Ref r) const { return type(r) == Value::Type::kArray; }
  bool is_object(Ref r) const { return type(r) == Value::Type::kObject; }

  /// Typed accessors; throw hpcarbon::Error on a type mismatch (same
  /// messages as Value's accessors).
  bool as_bool(Ref r) const;
  double as_number(Ref r) const;
  std::string_view as_string(Ref r) const;

  /// First array element / object member value; kNone when empty. Walk
  /// siblings with next(). Throws for scalar refs.
  Ref first_child(Ref r) const;
  /// Next sibling in insertion order; kNone at the end.
  Ref next(Ref r) const { return node(r).next; }
  /// The member key of an object child (unescaped view).
  std::string_view key(Ref member) const;
  /// Array/object element count; throws for scalar types.
  std::size_t size(Ref r) const;
  /// Object lookup; kNone when absent (throws if not an object).
  Ref find(Ref obj, std::string_view key) const;

  /// Deep-copy a subtree into a heap Value (Value::parse is parse() +
  /// materialize(root); the serve layer materializes lazily on cache
  /// misses only).
  Value materialize(Ref r) const;

 private:
  struct Node {
    Value::Type type = Value::Type::kNull;
    bool flag = false;           // kBool payload
    bool str_in_arena = false;   // string payload lives in arena_, not text_
    bool key_in_arena = false;
    double num = 0;
    Ref next = kNone;
    Ref child = kNone;       // first child (arrays/objects)
    Ref last_child = kNone;  // tail for O(1) append during parse
    std::uint32_t str_off = 0, str_len = 0;  // kString payload
    std::uint32_t key_off = 0, key_len = 0;  // object-member key
  };

  const Node& node(Ref r) const { return nodes_[r]; }
  Node& node(Ref r) { return nodes_[r]; }
  std::string_view resolve(std::uint32_t off, std::uint32_t len,
                           bool in_arena) const {
    return in_arena ? std::string_view(arena_).substr(off, len)
                    : text_.substr(off, len);
  }

  [[noreturn]] void fail(const std::string& what) const;
  void skip_ws();
  char peek() const;
  void expect(char c);
  bool consume_literal(const char* lit);
  Ref new_node(Value::Type t);
  void append_child(Ref parent, Ref child);
  Ref parse_value(int depth);
  Ref parse_number();
  /// Parse a string literal; returns (offset, length, in_arena) packed
  /// into the out-params. Zero-copy when the literal has no escapes.
  void parse_string_payload(std::uint32_t* off, std::uint32_t* len,
                            bool* in_arena);
  /// Step pos_ past one well-formed multi-byte UTF-8 sequence starting
  /// at pos_; fails at the offending byte otherwise.
  void skip_utf8_sequence();
  unsigned parse_hex4();
  unsigned parse_hex4_or_surrogate_pair();
  void append_codepoint(unsigned cp);
  Ref parse_array(int depth);
  Ref parse_object(int depth);

  std::vector<Node> nodes_;
  std::string arena_;       // unescaped string bytes (offsets stay stable)
  std::string_view text_;
  std::size_t pos_ = 0;
};

/// Shortest round-trip decimal form of a finite double ("5", "0.1",
/// "1e+30") via std::to_chars — the one number format every emitted
/// document and canonical key uses.
std::string dump_number(double v);
/// Append form of dump_number (no temporary string).
void dump_number_to(std::string& out, double v);

/// JSON string literal for `s`: quotes added, ", \, and control characters
/// escaped. The exact form dump() emits.
std::string quote(std::string_view s);
/// Append form of quote (no temporary string).
void quote_to(std::string& out, std::string_view s);

/// FNV-1a 64-bit hash (offset 0xcbf29ce484222325, prime 0x100000001b3):
/// the canonical-key hash of the serve layer.
std::uint64_t fnv1a64(std::string_view bytes);

}  // namespace hpcarbon::json
