#include "src/common/strings.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <type_traits>

namespace amulet {

std::string StrFormat(const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list args_copy;
  va_copy(args_copy, args);
  int size = std::vsnprintf(nullptr, 0, format, args);
  va_end(args);
  std::string out;
  if (size > 0) {
    out.resize(static_cast<size_t>(size));
    std::vsnprintf(out.data(), out.size() + 1, format, args_copy);
  }
  va_end(args_copy);
  return out;
}

std::string HexWord(uint16_t value) { return StrFormat("0x%04x", value); }

std::string HexByte(uint8_t value) { return StrFormat("0x%02x", value); }

std::vector<std::string_view> Split(std::string_view text, char delimiter) {
  std::vector<std::string_view> parts;
  size_t start = 0;
  while (true) {
    size_t pos = text.find(delimiter, start);
    if (pos == std::string_view::npos) {
      parts.push_back(text.substr(start));
      break;
    }
    parts.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  return parts;
}

std::string_view Trim(std::string_view text) {
  size_t begin = 0;
  while (begin < text.size() && std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  size_t end = text.size();
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() && text.substr(text.size() - suffix.size()) == suffix;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::string ToLower(std::string_view text) {
  std::string out(text);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

std::string WithThousands(uint64_t value) {
  std::string digits = std::to_string(value);
  std::string out;
  int count = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (count != 0 && count % 3 == 0) {
      out.push_back(',');
    }
    out.push_back(*it);
    ++count;
  }
  return std::string(out.rbegin(), out.rend());
}

template <typename T>
bool ParseInteger(std::string_view text, T* out, int base) {
  // strtoll/strtoull skip leading space and take either sign (strtoull
  // turns "-1" into its maximum): refuse those before they get the chance.
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0])) || text[0] == '+' ||
      (text[0] == '-' && !std::is_signed_v<T>)) {
    return false;
  }
  const std::string terminated(text);
  const char* begin = terminated.c_str();
  char* end = nullptr;
  errno = 0;
  if constexpr (std::is_signed_v<T>) {
    const long long value = std::strtoll(begin, &end, base);
    if (errno != 0 || end != begin + terminated.size() ||
        value < std::numeric_limits<T>::min() || value > std::numeric_limits<T>::max()) {
      return false;
    }
    *out = static_cast<T>(value);
  } else {
    const unsigned long long value = std::strtoull(begin, &end, base);
    if (errno != 0 || end != begin + terminated.size() ||
        value > std::numeric_limits<T>::max()) {
      return false;
    }
    *out = static_cast<T>(value);
  }
  return true;
}

template bool ParseInteger<int>(std::string_view, int*, int);
template bool ParseInteger<int64_t>(std::string_view, int64_t*, int);
template bool ParseInteger<uint16_t>(std::string_view, uint16_t*, int);
template bool ParseInteger<uint32_t>(std::string_view, uint32_t*, int);
template bool ParseInteger<uint64_t>(std::string_view, uint64_t*, int);

}  // namespace amulet
