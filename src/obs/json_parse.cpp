#include "src/obs/json_parse.hpp"

#include <cctype>
#include <cstdlib>

namespace qserv::obs {

namespace {

constexpr int kMaxDepth = 64;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  bool parse(JsonValue& out, std::string* error) {
    skip_ws();
    if (!value(out, 0)) {
      if (error != nullptr)
        *error = err_ + " at offset " + std::to_string(pos_);
      return false;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      if (error != nullptr)
        *error = "trailing garbage at offset " + std::to_string(pos_);
      return false;
    }
    return true;
  }

 private:
  bool fail(const char* why) {
    if (err_.empty()) err_ = why;
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool eat(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool value(JsonValue& out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
        return object(out, depth);
      case '[':
        return array(out, depth);
      case '"':
        out.type = JsonValue::Type::kString;
        return string(out.str);
      case 't':
        out.type = JsonValue::Type::kBool;
        out.boolean = true;
        return literal("true") || fail("bad literal");
      case 'f':
        out.type = JsonValue::Type::kBool;
        out.boolean = false;
        return literal("false") || fail("bad literal");
      case 'n':
        out.type = JsonValue::Type::kNull;
        return literal("null") || fail("bad literal");
      default:
        return number(out);
    }
  }

  bool object(JsonValue& out, int depth) {
    out.type = JsonValue::Type::kObject;
    eat('{');
    skip_ws();
    if (eat('}')) return true;
    while (true) {
      skip_ws();
      std::string key;
      if (pos_ >= text_.size() || text_[pos_] != '"')
        return fail("expected object key");
      if (!string(key)) return false;
      skip_ws();
      if (!eat(':')) return fail("expected ':'");
      skip_ws();
      JsonValue v;
      if (!value(v, depth + 1)) return false;
      out.members.emplace_back(std::move(key), std::move(v));
      skip_ws();
      if (eat(',')) continue;
      if (eat('}')) return true;
      return fail("expected ',' or '}'");
    }
  }

  bool array(JsonValue& out, int depth) {
    out.type = JsonValue::Type::kArray;
    eat('[');
    skip_ws();
    if (eat(']')) return true;
    while (true) {
      skip_ws();
      JsonValue v;
      if (!value(v, depth + 1)) return false;
      out.items.push_back(std::move(v));
      skip_ws();
      if (eat(',')) continue;
      if (eat(']')) return true;
      return fail("expected ',' or ']'");
    }
  }

  static void append_utf8(std::string& s, uint32_t cp) {
    if (cp < 0x80) {
      s.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      s.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      s.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      s.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      s.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      s.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      s.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      s.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      s.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      s.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  bool hex4(uint32_t& out) {
    if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
    out = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      out <<= 4;
      if (c >= '0' && c <= '9')
        out |= static_cast<uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f')
        out |= static_cast<uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F')
        out |= static_cast<uint32_t>(c - 'A' + 10);
      else
        return fail("bad \\u escape");
    }
    return true;
  }

  bool string(std::string& out) {
    eat('"');
    while (true) {
      if (pos_ >= text_.size()) return fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return fail("truncated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"':
        case '\\':
        case '/':
          out.push_back(e);
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          uint32_t cp = 0;
          if (!hex4(cp)) return false;
          // Surrogate pair: combine when a low surrogate follows. Any
          // other escape after a high surrogate is left for the next
          // iteration, which decodes it as its own code point.
          if (cp >= 0xD800 && cp <= 0xDBFF &&
              text_.substr(pos_, 2) == "\\u") {
            const size_t next = pos_;
            pos_ += 2;
            uint32_t lo = 0;
            if (!hex4(lo)) return false;
            if (lo >= 0xDC00 && lo <= 0xDFFF)
              cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
            else
              pos_ = next;
          }
          append_utf8(out, cp);
          break;
        }
        default:
          return fail("bad escape");
      }
    }
  }

  bool number(JsonValue& out) {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) return fail("expected value");
    const std::string tok(text_.substr(start, pos_ - start));
    char* end = nullptr;
    out.number = std::strtod(tok.c_str(), &end);
    if (end == nullptr || *end != '\0') return fail("bad number");
    out.type = JsonValue::Type::kNumber;
    return true;
  }

  std::string_view text_;
  size_t pos_ = 0;
  std::string err_;
};

}  // namespace

const JsonValue* JsonValue::find(std::string_view key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [k, v] : members)
    if (k == key) return &v;
  return nullptr;
}

const JsonValue* JsonValue::at_path(std::string_view dotted) const {
  const JsonValue* cur = this;
  while (cur != nullptr && !dotted.empty()) {
    const size_t dot = dotted.find('.');
    const std::string_view head =
        dot == std::string_view::npos ? dotted : dotted.substr(0, dot);
    dotted = dot == std::string_view::npos ? std::string_view()
                                           : dotted.substr(dot + 1);
    cur = cur->find(head);
  }
  return cur;
}

bool json_parse(std::string_view text, JsonValue& out, std::string* error) {
  out = JsonValue();
  return Parser(text).parse(out, error);
}

}  // namespace qserv::obs
