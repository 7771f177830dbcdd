// Small string/format helpers shared by the toolchain (hex formatting,
// splitting, trimming, printf-style StrFormat).
#ifndef SRC_COMMON_STRINGS_H_
#define SRC_COMMON_STRINGS_H_

#include <cstdarg>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace amulet {

// printf-style formatting into a std::string.
std::string StrFormat(const char* format, ...) __attribute__((format(printf, 1, 2)));

// "0x4400"-style, always 4 hex digits for 16-bit values.
std::string HexWord(uint16_t value);
// "0x3f"-style, 2 hex digits.
std::string HexByte(uint8_t value);

// Split on a delimiter; keeps empty fields.
std::vector<std::string_view> Split(std::string_view text, char delimiter);

// Strip leading/trailing ASCII whitespace.
std::string_view Trim(std::string_view text);

bool StartsWith(std::string_view text, std::string_view prefix);
bool EndsWith(std::string_view text, std::string_view suffix);

// ASCII case-insensitive equality (assembler mnemonics are case-insensitive).
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

// Lowercase copy (ASCII only).
std::string ToLower(std::string_view text);

// Comma separators for large counts: 1234567 -> "1,234,567".
std::string WithThousands(uint64_t value);

// Parses all of `text` as an integer of type T. Fails, leaving *out
// untouched, on an empty string, a leading space or '+', a '-' for an
// unsigned T, trailing characters, or a value outside T's range. Base 10 by
// default; base 0 also takes 0x-prefixed hex and 0-prefixed octal, as strtol
// does. Defined for int, int64_t, uint16_t, uint32_t and uint64_t.
template <typename T>
bool ParseInteger(std::string_view text, T* out, int base = 10);

}  // namespace amulet

#endif  // SRC_COMMON_STRINGS_H_
