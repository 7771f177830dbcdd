#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/common/binio.h"
#include "src/common/status.h"
#include "src/common/strings.h"

namespace amulet {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = InvalidArgumentError("bad foo");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad foo");
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad foo");
}

TEST(StatusTest, AllConstructorsProduceDistinctCodes) {
  EXPECT_EQ(NotFoundError("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(AlreadyExistsError("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(OutOfRangeError("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(FailedPreconditionError("x").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(UnimplementedError("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(ResourceExhaustedError("x").code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(InternalError("x").code(), StatusCode::kInternal);
  EXPECT_EQ(ParseError("x").code(), StatusCode::kParseError);
  EXPECT_EQ(TypeError("x").code(), StatusCode::kTypeError);
  EXPECT_EQ(LinkError("x").code(), StatusCode::kLinkError);
  EXPECT_EQ(RuntimeFaultError("x").code(), StatusCode::kRuntimeFault);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = NotFoundError("gone");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, OkStatusIntoResultBecomesInternalError) {
  Result<int> r = OkStatus();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

Result<int> Doubled(Result<int> in) {
  ASSIGN_OR_RETURN(int v, in);
  return v * 2;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Doubled(21), 42);
  EXPECT_EQ(Doubled(InternalError("boom")).status().code(), StatusCode::kInternal);
}

// Lengths read from a stream are checked against the bytes left before
// anything is allocated or copied, without overflowing the check itself.
TEST(BinioTest, BlobAndBytesCheckLengthsFirst) {
  const std::vector<uint8_t> empty;
  SnapshotReader none(empty);
  none.Bytes(nullptr, 0);  // zero-length read into an empty vector's data()
  EXPECT_TRUE(none.Blob(0).empty());
  EXPECT_TRUE(none.ok());

  const std::vector<uint8_t> three = {1, 2, 3};
  SnapshotReader huge(three);
  EXPECT_TRUE(huge.Blob(SIZE_MAX).empty());
  EXPECT_FALSE(huge.ok());
  SnapshotReader wrap(three);
  (void)wrap.U8();
  EXPECT_TRUE(wrap.Blob(SIZE_MAX - 1).empty());  // pos + n wraps past zero
  EXPECT_FALSE(wrap.ok());

  SnapshotReader exact(three);
  EXPECT_EQ(exact.Blob(3), three);
  EXPECT_TRUE(exact.ok());
  EXPECT_TRUE(exact.AtEnd());
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(StringsTest, Hex) {
  EXPECT_EQ(HexWord(0x4400), "0x4400");
  EXPECT_EQ(HexWord(0x000F), "0x000f");
  EXPECT_EQ(HexByte(0xAB), "0xab");
}

TEST(StringsTest, SplitKeepsEmptyFields) {
  auto parts = Split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(Trim("  x y\t"), "x y");
  EXPECT_EQ(Trim("\r\n"), "");
  EXPECT_EQ(Trim(""), "");
}

TEST(StringsTest, CaseHelpers) {
  EXPECT_TRUE(EqualsIgnoreCase("MoV", "mov"));
  EXPECT_FALSE(EqualsIgnoreCase("mov", "movx"));
  EXPECT_EQ(ToLower("AbC"), "abc");
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("0x12", "0x"));
  EXPECT_FALSE(StartsWith("x", "0x"));
  EXPECT_TRUE(EndsWith("file.amc", ".amc"));
}

TEST(StringsTest, WithThousands) {
  EXPECT_EQ(WithThousands(0), "0");
  EXPECT_EQ(WithThousands(999), "999");
  EXPECT_EQ(WithThousands(1000), "1,000");
  EXPECT_EQ(WithThousands(1234567890ull), "1,234,567,890");
}

TEST(StringsTest, ParseIntegerTakesWholeInRangeNumbers) {
  int i = 0;
  EXPECT_TRUE(ParseInteger("42", &i));
  EXPECT_EQ(i, 42);
  EXPECT_TRUE(ParseInteger("-7", &i));
  EXPECT_EQ(i, -7);
  EXPECT_TRUE(ParseInteger("2147483647", &i));
  EXPECT_EQ(i, 2147483647);
  EXPECT_TRUE(ParseInteger("-2147483648", &i));
  EXPECT_EQ(i, -2147483647 - 1);

  uint32_t u = 0;
  EXPECT_TRUE(ParseInteger("4294967295", &u));
  EXPECT_EQ(u, 4294967295u);
  uint64_t big = 0;
  EXPECT_TRUE(ParseInteger("18446744073709551615", &big));
  EXPECT_EQ(big, ~uint64_t{0});
  int64_t wide = 0;
  EXPECT_TRUE(ParseInteger("99999999999", &wide));
  EXPECT_EQ(wide, 99999999999);
}

TEST(StringsTest, ParseIntegerTakesHexAndOctal) {
  uint32_t u = 0;
  EXPECT_TRUE(ParseInteger("0xB007", &u, 0));
  EXPECT_EQ(u, 0xB007u);
  EXPECT_TRUE(ParseInteger("010", &u, 0));
  EXPECT_EQ(u, 8u);
  EXPECT_TRUE(ParseInteger("20180711", &u, 0));
  EXPECT_EQ(u, 20180711u);
  uint16_t word = 0;
  EXPECT_TRUE(ParseInteger("FFFF", &word, 16));
  EXPECT_EQ(word, 0xFFFF);
  EXPECT_TRUE(ParseInteger("a5c3", &word, 16));
  EXPECT_EQ(word, 0xA5C3);
  // Base 10 reads only the leading zero of "0x10".
  EXPECT_FALSE(ParseInteger("0x10", &u));
  EXPECT_FALSE(ParseInteger("0x", &u, 0));
  EXPECT_FALSE(ParseInteger("0xG", &u, 0));
}

TEST(StringsTest, ParseIntegerRejectsMalformedAndOutOfRange) {
  int i = 123;
  for (const char* bad : {"", "3x", "banana", " 5", "5 ", "+5", "-", "--1", "- 5", "1e3", "0.5",
                          "2147483648", "-2147483649", "99999999999"}) {
    SCOPED_TRACE(bad);
    EXPECT_FALSE(ParseInteger(bad, &i));
    EXPECT_EQ(i, 123) << "failed parses leave the target alone";
  }
  EXPECT_FALSE(ParseInteger(std::string_view("12\0" "3", 4), &i)) << "embedded NUL";

  uint32_t u = 9;
  for (const char* bad : {"-1", "-0", "4294967296", "18446744073709551616"}) {
    SCOPED_TRACE(bad);
    EXPECT_FALSE(ParseInteger(bad, &u, 0));
  }
  uint16_t word = 0;
  EXPECT_FALSE(ParseInteger("10000", &word, 16));
  EXPECT_FALSE(ParseInteger("-5", &word, 16));
  uint64_t big = 0;
  EXPECT_FALSE(ParseInteger("18446744073709551616", &big));
  EXPECT_EQ(u, 9u);
}

}  // namespace
}  // namespace amulet
