#include "util/cli.hpp"

#include <gtest/gtest.h>

#include "util/require.hpp"

namespace perq::cli {
namespace {

TEST(CliParse, DoubleAcceptsPlainDecimals) {
  EXPECT_DOUBLE_EQ(parse_double("--f", "2.0"), 2.0);
  EXPECT_DOUBLE_EQ(parse_double("--f", "-1.25"), -1.25);
  EXPECT_DOUBLE_EQ(parse_double("--f", ".5"), 0.5);
  EXPECT_DOUBLE_EQ(parse_double("--f", "+3"), 3.0);
  EXPECT_DOUBLE_EQ(parse_double("--f", "1e3"), 1000.0);
}

TEST(CliParse, DoubleRejectsGarbage) {
  EXPECT_THROW(parse_double("--f", ""), precondition_error);
  EXPECT_THROW(parse_double("--f", "1.5x"), precondition_error);
  EXPECT_THROW(parse_double("--f", "x1.5"), precondition_error);
  EXPECT_THROW(parse_double("--f", "1.5 "), precondition_error);
  EXPECT_THROW(parse_double("--f", " 1.5"), precondition_error);
  EXPECT_THROW(parse_double("--f", "nan"), precondition_error);
  EXPECT_THROW(parse_double("--f", "inf"), precondition_error);
  EXPECT_THROW(parse_double("--f", "0x10"), precondition_error);
  EXPECT_THROW(parse_double("--f", "1e999"), precondition_error);
}

TEST(CliParse, DoubleRangeChecked) {
  EXPECT_DOUBLE_EQ(parse_double_in("--f", "1.5", 1.0, 4.0), 1.5);
  EXPECT_DOUBLE_EQ(parse_double_in("--f", "1.0", 1.0, 4.0), 1.0);
  EXPECT_DOUBLE_EQ(parse_double_in("--f", "4.0", 1.0, 4.0), 4.0);
  EXPECT_THROW(parse_double_in("--f", "0.9", 1.0, 4.0), precondition_error);
  EXPECT_THROW(parse_double_in("--f", "4.1", 1.0, 4.0), precondition_error);
  EXPECT_THROW(parse_double_in("--f", "5", 4.0, 1.0), precondition_error);
}

TEST(CliParse, U64AcceptsPlainIntegers) {
  EXPECT_EQ(parse_u64("--jobs", "0"), 0u);
  EXPECT_EQ(parse_u64("--jobs", "1000000"), 1000000u);
  EXPECT_EQ(parse_u64("--jobs", "18446744073709551615"),
            18446744073709551615ull);
}

TEST(CliParse, U64RejectsGarbage) {
  EXPECT_THROW(parse_u64("--jobs", ""), precondition_error);
  EXPECT_THROW(parse_u64("--jobs", "-1"), precondition_error);
  EXPECT_THROW(parse_u64("--jobs", "+1"), precondition_error);
  EXPECT_THROW(parse_u64("--jobs", "1.5"), precondition_error);
  EXPECT_THROW(parse_u64("--jobs", "12abc"), precondition_error);
  EXPECT_THROW(parse_u64("--jobs", "abc"), precondition_error);
  EXPECT_THROW(parse_u64("--jobs", "18446744073709551616"),  // 2^64
               precondition_error);
}

TEST(CliParse, U64RangeChecked) {
  EXPECT_EQ(parse_u64_in("--stale-ticks", "4", 1, 64), 4u);
  EXPECT_THROW(parse_u64_in("--stale-ticks", "0", 1, 64), precondition_error);
  EXPECT_THROW(parse_u64_in("--stale-ticks", "65", 1, 64), precondition_error);
}

TEST(CliParse, ErrorMessagesNameTheFlag) {
  try {
    parse_double("--interval", "ten");
    FAIL() << "expected precondition_error";
  } catch (const precondition_error& e) {
    EXPECT_NE(std::string(e.what()).find("--interval"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("ten"), std::string::npos);
  }
}

}  // namespace
}  // namespace perq::cli
