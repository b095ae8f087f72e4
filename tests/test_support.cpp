// Shared support utilities: strict byte-size knob parsing.
#include <gtest/gtest.h>

#include <cstddef>
#include <limits>
#include <string>

#include "src/support/bytes.h"
#include "tests/test_util.h"

using namespace parad;
using parad::test::EnvVar;

namespace {

// parseByteSize's message for `text`, or "" when it parses.
std::string byteSizeError(const std::string& name, const std::string& text) {
  try {
    (void)parseByteSize(name, text);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

// The four byte-size knobs, all read through envByteSize.
const char* const kByteKnobs[] = {
    "PARAD_PROGRAM_CACHE_BYTES", "PARAD_CODEGEN_MEM_BYTES",
    "PARAD_CODEGEN_DISK_BYTES", "PARAD_CKPT_DISK_BYTES"};

}  // namespace

TEST(ByteSize, AcceptsDigitsWithBinarySuffix) {
  EXPECT_EQ(parseByteSize("X", "0"), 0u);
  EXPECT_EQ(parseByteSize("X", "4096"), 4096u);
  EXPECT_EQ(parseByteSize("X", "007"), 7u);
  EXPECT_EQ(parseByteSize("X", "64K"), 64u << 10);
  EXPECT_EQ(parseByteSize("X", "64M"), 64u << 20);
  EXPECT_EQ(parseByteSize("X", "3G"), std::size_t{3} << 30);
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  EXPECT_EQ(parseByteSize("X", std::to_string(kMax)), kMax);
  EXPECT_EQ(parseByteSize("X", std::to_string(kMax >> 30) + "G"),
            (kMax >> 30) << 30);
}

TEST(ByteSize, RejectsMalformedValuesNamingVariableAndValue) {
  const std::string expected =
      "' is not a byte size (expected decimal digits, optionally followed by "
      "K, M or G)";
  for (const char* bad : {"", "abc", "-1", "+5", " 5", "5 ", "1.5M", "64MB",
                          "64m", "0x10", "K", "12KM"})
    EXPECT_EQ(byteSizeError("PARAD_CODEGEN_MEM_BYTES", bad),
              "PARAD_CODEGEN_MEM_BYTES='" + std::string(bad) + expected)
        << bad;
}

TEST(ByteSize, RejectsOverflow) {
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  std::string tooBig = std::to_string(kMax);
  tooBig.back() = static_cast<char>(tooBig.back() + 1);  // max + 1
  EXPECT_EQ(byteSizeError("PARAD_CKPT_DISK_BYTES", tooBig),
            "PARAD_CKPT_DISK_BYTES='" + tooBig + "' overflows a byte size");
  EXPECT_EQ(byteSizeError("PARAD_CKPT_DISK_BYTES", "99999999999999999999999"),
            "PARAD_CKPT_DISK_BYTES='99999999999999999999999' overflows a "
            "byte size");
  std::string overG = std::to_string((kMax >> 30) + 1) + "G";
  EXPECT_EQ(byteSizeError("PARAD_CKPT_DISK_BYTES", overG),
            "PARAD_CKPT_DISK_BYTES='" + overG + "' overflows a byte size");
}

TEST(ByteSize, EnvKnobsParseStrictly) {
  for (const char* knob : kByteKnobs) {
    SCOPED_TRACE(knob);
    {
      EnvVar unset(knob, "");  // empty means unset: no cap
      EXPECT_EQ(envByteSize(knob), 0u);
    }
    {
      EnvVar set(knob, "64M");
      EXPECT_EQ(envByteSize(knob), std::size_t{64} << 20);
    }
    for (const char* bad : {"64X", "-1", "abc"}) {
      EnvVar set(knob, bad);
      try {
        (void)envByteSize(knob);
        ADD_FAILURE() << bad << " was accepted";
      } catch (const Error& e) {
        EXPECT_EQ(std::string(e.what()),
                  std::string(knob) + "='" + bad +
                      "' is not a byte size (expected decimal digits, "
                      "optionally followed by K, M or G)");
      }
    }
  }
}
