#include "src/scope/json.h"

#include <cctype>
#include <cstdlib>

#include "src/common/strings.h"

namespace amulet {

void AppendJsonString(const std::string& s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          *out += StrFormat("\\u%04x", c);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

std::string JsonQuoted(const std::string& s) {
  std::string out;
  AppendJsonString(s, &out);
  return out;
}

namespace {

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Result<JsonValue> Parse() {
    JsonValue root;
    RETURN_IF_ERROR(ParseValue(&root));
    SkipWs();
    if (pos_ != text_.size()) {
      return Error("trailing bytes after JSON document");
    }
    return root;
  }

 private:
  Status Error(const std::string& what) const {
    return InvalidArgumentError(StrFormat("JSON parse error at byte %zu: %s", pos_,
                                          what.c_str()));
  }

  void SkipWs() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status ParseValue(JsonValue* out) {
    SkipWs();
    if (pos_ >= text_.size()) {
      return Error("unexpected end of input");
    }
    const char c = text_[pos_];
    if (c == '{') {
      return ParseObject(out);
    }
    if (c == '[') {
      return ParseArray(out);
    }
    if (c == '"') {
      out->kind = JsonValue::kString;
      return ParseString(&out->str);
    }
    if (c == 't' || c == 'f') {
      const std::string word = c == 't' ? "true" : "false";
      if (text_.compare(pos_, word.size(), word) != 0) {
        return Error("bad literal");
      }
      pos_ += word.size();
      out->kind = JsonValue::kBool;
      out->boolean = c == 't';
      return OkStatus();
    }
    if (c == 'n') {
      if (text_.compare(pos_, 4, "null") != 0) {
        return Error("bad literal");
      }
      pos_ += 4;
      out->kind = JsonValue::kNull;
      return OkStatus();
    }
    return ParseNumber(out);
  }

  Status ParseObject(JsonValue* out) {
    out->kind = JsonValue::kObject;
    ++pos_;  // '{'
    if (Consume('}')) {
      return OkStatus();
    }
    while (true) {
      SkipWs();
      std::string key;
      RETURN_IF_ERROR(ParseString(&key));
      if (!Consume(':')) {
        return Error("expected ':' in object");
      }
      JsonValue value;
      RETURN_IF_ERROR(ParseValue(&value));
      out->fields.emplace_back(std::move(key), std::move(value));
      if (Consume(',')) {
        continue;
      }
      if (Consume('}')) {
        return OkStatus();
      }
      return Error("expected ',' or '}' in object");
    }
  }

  Status ParseArray(JsonValue* out) {
    out->kind = JsonValue::kArray;
    ++pos_;  // '['
    if (Consume(']')) {
      return OkStatus();
    }
    while (true) {
      JsonValue item;
      RETURN_IF_ERROR(ParseValue(&item));
      out->items.push_back(std::move(item));
      if (Consume(',')) {
        continue;
      }
      if (Consume(']')) {
        return OkStatus();
      }
      return Error("expected ',' or ']' in array");
    }
  }

  Status ParseString(std::string* out) {
    SkipWs();
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return Error("expected string");
    }
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        return OkStatus();
      }
      if (c == '\\') {
        if (pos_ >= text_.size()) {
          break;
        }
        const char esc = text_[pos_++];
        switch (esc) {
          case '"':
            out->push_back('"');
            break;
          case '\\':
            out->push_back('\\');
            break;
          case '/':
            out->push_back('/');
            break;
          case 'n':
            out->push_back('\n');
            break;
          case 't':
            out->push_back('\t');
            break;
          case 'r':
            out->push_back('\r');
            break;
          case 'b':
            out->push_back('\b');
            break;
          case 'f':
            out->push_back('\f');
            break;
          case 'u': {
            uint32_t code = 0;
            RETURN_IF_ERROR(ParseHex4(&code));
            // A high surrogate followed by an escaped low one is one code
            // point; a lone surrogate is kept as its own 3-byte sequence.
            if (code >= 0xD800 && code < 0xDC00 && text_.compare(pos_, 2, "\\u") == 0) {
              const size_t mark = pos_;
              pos_ += 2;
              uint32_t low = 0;
              RETURN_IF_ERROR(ParseHex4(&low));
              if (low >= 0xDC00 && low < 0xE000) {
                code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
              } else {
                pos_ = mark;
              }
            }
            AppendUtf8(code, out);
            break;
          }
          default:
            return Error("bad escape");
        }
        continue;
      }
      out->push_back(c);
    }
    return Error("unterminated string");
  }

  // The four hex digits of a \\u escape.
  Status ParseHex4(uint32_t* code) {
    if (pos_ + 4 > text_.size()) {
      return Error("truncated \\u escape");
    }
    *code = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = text_[pos_++];
      if (!std::isxdigit(static_cast<unsigned char>(h))) {
        return Error("bad hex digit in \\u escape");
      }
      *code = *code * 16 + static_cast<uint32_t>(std::isdigit(static_cast<unsigned char>(h))
                                                     ? h - '0'
                                                     : (std::tolower(h) - 'a' + 10));
    }
    return OkStatus();
  }

  static void AppendUtf8(uint32_t code, std::string* out) {
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
      return;
    }
    if (code < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (code >> 6)));
    } else if (code < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (code >> 18)));
      out->push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
    }
    out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
  }

  Status ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) {
      return Error("expected value");
    }
    out->kind = JsonValue::kNumber;
    out->number = std::strtod(text_.c_str() + start, nullptr);
    return OkStatus();
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

Result<JsonValue> ParseJson(const std::string& text) { return JsonParser(text).Parse(); }

Status ValidateJson(const std::string& text) {
  auto parsed = ParseJson(text);
  return parsed.ok() ? OkStatus() : parsed.status();
}

}  // namespace amulet
