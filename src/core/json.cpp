#include "core/json.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "core/error.h"

namespace hpcarbon::json {

namespace {

[[noreturn]] void type_error(const char* want, Value::Type got) {
  static const char* names[] = {"null", "bool", "number", "string", "array",
                                "object"};
  throw Error(std::string("json: expected ") + want + ", value is " +
              names[static_cast<int>(got)]);
}

}  // namespace

Value Value::null() { return Value(); }

Value Value::boolean(bool b) {
  Value v;
  v.type_ = Type::kBool;
  v.bool_ = b;
  return v;
}

Value Value::number(double d) {
  HPC_REQUIRE(std::isfinite(d), "json: numbers must be finite");
  Value v;
  v.type_ = Type::kNumber;
  v.num_ = d;
  return v;
}

Value Value::string(std::string s) {
  Value v;
  v.type_ = Type::kString;
  v.str_ = std::move(s);
  return v;
}

Value Value::array(std::vector<Value> items) {
  Value v;
  v.type_ = Type::kArray;
  v.arr_ = std::move(items);
  return v;
}

Value Value::object(std::vector<Member> members) {
  Value v;
  v.type_ = Type::kObject;
  v.obj_ = std::move(members);
  return v;
}

bool Value::as_bool() const {
  if (type_ != Type::kBool) type_error("bool", type_);
  return bool_;
}

double Value::as_number() const {
  if (type_ != Type::kNumber) type_error("number", type_);
  return num_;
}

const std::string& Value::as_string() const {
  if (type_ != Type::kString) type_error("string", type_);
  return str_;
}

const std::vector<Value>& Value::items() const {
  if (type_ != Type::kArray) type_error("array", type_);
  return arr_;
}

const std::vector<Member>& Value::members() const {
  if (type_ != Type::kObject) type_error("object", type_);
  return obj_;
}

std::size_t Value::size() const {
  if (type_ == Type::kArray) return arr_.size();
  if (type_ == Type::kObject) return obj_.size();
  type_error("array or object", type_);
}

const Value* Value::find(const std::string& key) const {
  for (const auto& [k, v] : members()) {
    if (k == key) return &v;
  }
  return nullptr;
}

Value& Value::set(std::string key, Value v) {
  if (type_ != Type::kObject) type_error("object", type_);
  for (auto& [k, existing] : obj_) {
    if (k == key) {
      existing = std::move(v);
      return *this;
    }
  }
  obj_.emplace_back(std::move(key), std::move(v));
  return *this;
}

void Value::push_back(Value v) {
  if (type_ != Type::kArray) type_error("array", type_);
  arr_.push_back(std::move(v));
}

// --- Emission ---------------------------------------------------------------

void dump_number_to(std::string& out, double v) {
  HPC_REQUIRE(std::isfinite(v), "json: numbers must be finite");
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, res.ptr);
}

std::string dump_number(double v) {
  std::string out;
  dump_number_to(out, v);
  return out;
}

void quote_to(std::string& out, std::string_view s) {
  out.reserve(out.size() + s.size() + 2);
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char esc[8];
          std::snprintf(esc, sizeof(esc), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += esc;
        } else {
          out.push_back(c);  // UTF-8 bytes pass through verbatim
        }
    }
  }
  out.push_back('"');
}

std::string quote(std::string_view s) {
  std::string out;
  quote_to(out, s);
  return out;
}

namespace {

void dump_value(const Value& v, bool sort_keys, std::string& out) {
  switch (v.type()) {
    case Value::Type::kNull:
      out += "null";
      break;
    case Value::Type::kBool:
      out += v.as_bool() ? "true" : "false";
      break;
    case Value::Type::kNumber:
      dump_number_to(out, v.as_number());
      break;
    case Value::Type::kString:
      quote_to(out, v.as_string());
      break;
    case Value::Type::kArray: {
      out.push_back('[');
      bool first = true;
      for (const auto& item : v.items()) {
        if (!first) out.push_back(',');
        first = false;
        dump_value(item, sort_keys, out);
      }
      out.push_back(']');
      break;
    }
    case Value::Type::kObject: {
      // Sorting indexes the member list rather than copying the values:
      // members can be deep. Small objects (every serve request/response)
      // sort through a stack-resident index so emission stays
      // allocation-free.
      const auto& members = v.members();
      std::size_t stack_order[32];
      std::vector<std::size_t> heap_order;
      std::size_t* order = stack_order;
      if (members.size() > 32) {
        heap_order.resize(members.size());
        order = heap_order.data();
      }
      for (std::size_t i = 0; i < members.size(); ++i) order[i] = i;
      if (sort_keys) {
        std::sort(order, order + members.size(), [&](std::size_t a,
                                                     std::size_t b) {
          return members[a].first < members[b].first;
        });
      }
      out.push_back('{');
      for (std::size_t k = 0; k < members.size(); ++k) {
        if (k != 0) out.push_back(',');
        quote_to(out, members[order[k]].first);
        out.push_back(':');
        dump_value(members[order[k]].second, sort_keys, out);
      }
      out.push_back('}');
      break;
    }
  }
}

}  // namespace

std::string Value::dump(bool sort_keys) const {
  std::string out;
  dump_value(*this, sort_keys, out);
  return out;
}

void Value::dump_to(std::string& out, bool sort_keys) const {
  dump_value(*this, sort_keys, out);
}

// --- Parsing (Reader: arena nodes, zero-copy strings) -----------------------

namespace {

constexpr int kMaxDepth = 64;

}  // namespace

bool Reader::as_bool(Ref r) const {
  const Node& n = node(r);
  if (n.type != Value::Type::kBool) type_error("bool", n.type);
  return n.flag;
}

double Reader::as_number(Ref r) const {
  const Node& n = node(r);
  if (n.type != Value::Type::kNumber) type_error("number", n.type);
  return n.num;
}

std::string_view Reader::as_string(Ref r) const {
  const Node& n = node(r);
  if (n.type != Value::Type::kString) type_error("string", n.type);
  return resolve(n.str_off, n.str_len, n.str_in_arena);
}

Reader::Ref Reader::first_child(Ref r) const {
  const Node& n = node(r);
  if (n.type != Value::Type::kArray && n.type != Value::Type::kObject) {
    type_error("array or object", n.type);
  }
  return n.child;
}

std::string_view Reader::key(Ref member) const {
  const Node& n = node(member);
  return resolve(n.key_off, n.key_len, n.key_in_arena);
}

std::size_t Reader::size(Ref r) const {
  std::size_t count = 0;
  for (Ref c = first_child(r); c != kNone; c = next(c)) ++count;
  return count;
}

Reader::Ref Reader::find(Ref obj, std::string_view want) const {
  const Node& n = node(obj);
  if (n.type != Value::Type::kObject) type_error("object", n.type);
  for (Ref c = n.child; c != kNone; c = next(c)) {
    if (key(c) == want) return c;
  }
  return kNone;
}

Value Reader::materialize(Ref r) const {
  const Node& n = node(r);
  switch (n.type) {
    case Value::Type::kNull:
      return Value::null();
    case Value::Type::kBool:
      return Value::boolean(n.flag);
    case Value::Type::kNumber:
      return Value::number(n.num);
    case Value::Type::kString:
      return Value::string(std::string(as_string(r)));
    case Value::Type::kArray: {
      std::vector<Value> items;
      for (Ref c = n.child; c != kNone; c = next(c)) {
        items.push_back(materialize(c));
      }
      return Value::array(std::move(items));
    }
    case Value::Type::kObject: {
      // Members go straight into the vector: parse() already rejected
      // duplicate keys, so the linear probe in Value::set is dead weight.
      std::vector<Member> members;
      for (Ref c = n.child; c != kNone; c = next(c)) {
        members.emplace_back(std::string(key(c)), materialize(c));
      }
      return Value::object(std::move(members));
    }
  }
  return Value::null();  // unreachable; keeps -Wreturn-type quiet
}

void Reader::fail(const std::string& what) const {
  throw Error("json: " + what + " at offset " + std::to_string(pos_));
}

void Reader::skip_ws() {
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
    ++pos_;
  }
}

char Reader::peek() const {
  if (pos_ >= text_.size()) {
    throw Error("json: unexpected end of input at offset " +
                std::to_string(pos_));
  }
  return text_[pos_];
}

void Reader::expect(char c) {
  if (peek() != c) fail(std::string("expected '") + c + "'");
  ++pos_;
}

bool Reader::consume_literal(const char* lit) {
  const std::size_t n = std::char_traits<char>::length(lit);
  if (text_.compare(pos_, n, lit) != 0) return false;
  pos_ += n;
  return true;
}

Reader::Ref Reader::new_node(Value::Type t) {
  const Ref r = static_cast<Ref>(nodes_.size());
  nodes_.emplace_back();
  nodes_.back().type = t;
  return r;
}

void Reader::append_child(Ref parent, Ref child) {
  Node& p = node(parent);
  if (p.last_child == kNone) {
    p.child = child;
  } else {
    node(p.last_child).next = child;
  }
  p.last_child = child;
}

Reader::Ref Reader::parse(std::string_view text) {
  nodes_.clear();   // capacity survives: reuse is the whole point
  arena_.clear();
  text_ = text;
  pos_ = 0;
  skip_ws();
  const Ref root = parse_value(0);
  skip_ws();
  if (pos_ != text_.size()) fail("trailing characters after document");
  return root;
}

Reader::Ref Reader::parse_value(int depth) {
  if (depth > kMaxDepth) fail("nesting deeper than 64 levels");
  switch (peek()) {
    case 'n':
      if (!consume_literal("null")) fail("bad literal");
      return new_node(Value::Type::kNull);
    case 't': {
      if (!consume_literal("true")) fail("bad literal");
      const Ref r = new_node(Value::Type::kBool);
      node(r).flag = true;
      return r;
    }
    case 'f':
      if (!consume_literal("false")) fail("bad literal");
      return new_node(Value::Type::kBool);
    case '"': {
      const Ref r = new_node(Value::Type::kString);
      std::uint32_t off = 0, len = 0;
      bool in_arena = false;
      parse_string_payload(&off, &len, &in_arena);
      Node& n = node(r);
      n.str_off = off;
      n.str_len = len;
      n.str_in_arena = in_arena;
      return r;
    }
    case '[':
      return parse_array(depth);
    case '{':
      return parse_object(depth);
    default:
      return parse_number();
  }
}

Reader::Ref Reader::parse_number() {
  const std::size_t start = pos_;
  if (peek() == '-') ++pos_;
  const std::size_t int_start = pos_;
  while (pos_ < text_.size() && std::isdigit(
             static_cast<unsigned char>(text_[pos_]))) {
    ++pos_;
  }
  if (pos_ == int_start) {
    pos_ = start;
    fail("expected a value");
  }
  if (pos_ - int_start > 1 && text_[int_start] == '0') {
    pos_ = int_start;
    fail("leading zeros are not allowed");
  }
  if (pos_ < text_.size() && text_[pos_] == '.') {
    ++pos_;
    const std::size_t frac = pos_;
    while (pos_ < text_.size() && std::isdigit(
               static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ == frac) fail("digits required after decimal point");
  }
  if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
    ++pos_;
    if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    const std::size_t exp = pos_;
    while (pos_ < text_.size() && std::isdigit(
               static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ == exp) fail("digits required in exponent");
  }
  double v = 0;
  const auto res =
      std::from_chars(text_.data() + start, text_.data() + pos_, v);
  if (res.ec != std::errc() || res.ptr != text_.data() + pos_) {
    fail("malformed number");
  }
  if (!std::isfinite(v)) fail("number out of double range");
  const Ref r = new_node(Value::Type::kNumber);
  node(r).num = v;
  return r;
}

void Reader::parse_string_payload(std::uint32_t* out_off,
                                  std::uint32_t* out_len, bool* in_arena) {
  expect('"');
  // Fast scan: a literal with no escape and no control character is a
  // view straight into the input — the common case for every request
  // field, and the reason parsing allocates nothing.
  const std::size_t start = pos_;
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    if (c == '"') {
      *out_off = static_cast<std::uint32_t>(start);
      *out_len = static_cast<std::uint32_t>(pos_ - start);
      *in_arena = false;
      ++pos_;
      return;
    }
    if (c == '\\' || static_cast<unsigned char>(c) < 0x20) break;
    if (static_cast<unsigned char>(c) >= 0x80) {
      skip_utf8_sequence();
      continue;
    }
    ++pos_;
  }
  // Slow path: unescape into the arena, starting from the clean prefix.
  const std::size_t arena_start = arena_.size();
  arena_.append(text_.data() + start, pos_ - start);
  while (true) {
    if (pos_ >= text_.size()) fail("unterminated string");
    const char c = text_[pos_++];
    if (c == '"') {
      *out_off = static_cast<std::uint32_t>(arena_start);
      *out_len = static_cast<std::uint32_t>(arena_.size() - arena_start);
      *in_arena = true;
      return;
    }
    if (static_cast<unsigned char>(c) < 0x20) {
      --pos_;
      fail("unescaped control character in string");
    }
    if (static_cast<unsigned char>(c) >= 0x80) {
      const std::size_t seq = --pos_;
      skip_utf8_sequence();
      arena_.append(text_.data() + seq, pos_ - seq);
      continue;
    }
    if (c != '\\') {
      arena_.push_back(c);
      continue;
    }
    if (pos_ >= text_.size()) fail("unterminated escape");
    const char esc = text_[pos_++];
    switch (esc) {
      case '"': arena_.push_back('"'); break;
      case '\\': arena_.push_back('\\'); break;
      case '/': arena_.push_back('/'); break;
      case 'b': arena_.push_back('\b'); break;
      case 'f': arena_.push_back('\f'); break;
      case 'n': arena_.push_back('\n'); break;
      case 'r': arena_.push_back('\r'); break;
      case 't': arena_.push_back('\t'); break;
      case 'u': append_codepoint(parse_hex4_or_surrogate_pair()); break;
      default:
        pos_ -= 1;
        fail("unknown escape");
    }
  }
}

void Reader::skip_utf8_sequence() {
  // Well-formed sequences per RFC 3629 (Unicode Table 3-7): the lead byte
  // fixes the length and the range of the second byte, which is what
  // rules out overlong forms, UTF-16 surrogates and code points above
  // U+10FFFF. Errors name the byte as hex so no raw input is echoed.
  const auto byte_error = [](unsigned char b) {
    static constexpr char kHex[] = "0123456789abcdef";
    return std::string("invalid UTF-8 byte 0x") + kHex[b >> 4] +
           kHex[b & 0xF] + " in string";
  };
  const auto lead = static_cast<unsigned char>(text_[pos_]);
  unsigned char lo = 0x80;
  unsigned char hi = 0xBF;
  int tail = 0;
  if (lead >= 0xC2 && lead <= 0xDF) {
    tail = 1;
  } else if (lead >= 0xE0 && lead <= 0xEF) {
    tail = 2;
    if (lead == 0xE0) lo = 0xA0;  // overlong below U+0800
    if (lead == 0xED) hi = 0x9F;  // surrogates U+D800..U+DFFF
  } else if (lead >= 0xF0 && lead <= 0xF4) {
    tail = 3;
    if (lead == 0xF0) lo = 0x90;  // overlong below U+10000
    if (lead == 0xF4) hi = 0x8F;  // above U+10FFFF
  } else {
    fail(byte_error(lead));  // stray continuation, C0/C1, F5..FF
  }
  ++pos_;
  for (int i = 0; i < tail; ++i) {
    const auto b = pos_ < text_.size()
                       ? static_cast<unsigned char>(text_[pos_])
                       : static_cast<unsigned char>(0);
    if ((b & 0xC0) != 0x80) fail("truncated UTF-8 sequence in string");
    if (b < lo || b > hi) fail(byte_error(b));
    ++pos_;
    lo = 0x80;
    hi = 0xBF;
  }
}

unsigned Reader::parse_hex4() {
  if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
  unsigned cp = 0;
  for (int i = 0; i < 4; ++i) {
    const char c = text_[pos_++];
    cp <<= 4;
    if (c >= '0' && c <= '9') cp |= static_cast<unsigned>(c - '0');
    else if (c >= 'a' && c <= 'f') cp |= static_cast<unsigned>(c - 'a' + 10);
    else if (c >= 'A' && c <= 'F') cp |= static_cast<unsigned>(c - 'A' + 10);
    else fail("bad hex digit in \\u escape");
  }
  return cp;
}

unsigned Reader::parse_hex4_or_surrogate_pair() {
  unsigned cp = parse_hex4();
  if (cp >= 0xD800 && cp <= 0xDBFF) {
    // High surrogate: a low surrogate escape must follow.
    if (!consume_literal("\\u")) fail("unpaired surrogate");
    const unsigned lo = parse_hex4();
    if (lo < 0xDC00 || lo > 0xDFFF) fail("unpaired surrogate");
    cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
  } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
    fail("unpaired surrogate");
  }
  return cp;
}

void Reader::append_codepoint(unsigned cp) {
  // UTF-8 encode into the arena.
  if (cp < 0x80) {
    arena_.push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    arena_.push_back(static_cast<char>(0xC0 | (cp >> 6)));
    arena_.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp < 0x10000) {
    arena_.push_back(static_cast<char>(0xE0 | (cp >> 12)));
    arena_.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    arena_.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    arena_.push_back(static_cast<char>(0xF0 | (cp >> 18)));
    arena_.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
    arena_.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    arena_.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
}

Reader::Ref Reader::parse_array(int depth) {
  expect('[');
  const Ref arr = new_node(Value::Type::kArray);
  skip_ws();
  if (peek() == ']') {
    ++pos_;
    return arr;
  }
  while (true) {
    skip_ws();
    append_child(arr, parse_value(depth + 1));
    skip_ws();
    const char c = peek();
    ++pos_;
    if (c == ']') return arr;
    if (c != ',') {
      --pos_;
      fail("expected ',' or ']'");
    }
  }
}

Reader::Ref Reader::parse_object(int depth) {
  expect('{');
  const Ref obj = new_node(Value::Type::kObject);
  skip_ws();
  if (peek() == '}') {
    ++pos_;
    return obj;
  }
  while (true) {
    skip_ws();
    if (peek() != '"') fail("object keys must be strings");
    std::uint32_t key_off = 0, key_len = 0;
    bool key_in_arena = false;
    parse_string_payload(&key_off, &key_len, &key_in_arena);
    const std::string_view k = resolve(key_off, key_len, key_in_arena);
    // Duplicate keys would make the canonical form ambiguous about what
    // was requested; reject rather than silently keeping one.
    for (Ref c = node(obj).child; c != kNone; c = next(c)) {
      if (key(c) == k) {
        fail("duplicate object key '" + std::string(k) + "'");
      }
    }
    skip_ws();
    expect(':');
    skip_ws();
    const Ref member = parse_value(depth + 1);
    Node& m = node(member);
    m.key_off = key_off;
    m.key_len = key_len;
    m.key_in_arena = key_in_arena;
    append_child(obj, member);
    skip_ws();
    const char c = peek();
    ++pos_;
    if (c == '}') return obj;
    if (c != ',') {
      --pos_;
      fail("expected ',' or '}'");
    }
  }
}

Value Value::parse(std::string_view text) {
  Reader reader;
  return reader.materialize(reader.parse(text));
}

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace hpcarbon::json
