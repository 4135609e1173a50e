#include "util/csv.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "util/require.hpp"

namespace perq {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ctest runs each case as its own process, concurrently under -j, so every
// case writes a file named after itself.
class CsvTest : public ::testing::Test {
 protected:
  std::string path_ =
      ::testing::TempDir() + "perq_csv_test_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".csv";
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(CsvTest, HeaderAndNumericRows) {
  {
    CsvWriter w(path_, {"a", "b"});
    w.row(std::vector<double>{1.0, 2.5});
    w.row(std::vector<double>{3.0, 4.0});
    EXPECT_EQ(w.rows_written(), 2u);
  }
  EXPECT_EQ(slurp(path_), "a,b\n1,2.5\n3,4\n");
}

TEST_F(CsvTest, QuotesCellsWithCommas) {
  {
    CsvWriter w(path_, {"name"});
    w.row(std::vector<std::string>{"hello, world"});
  }
  EXPECT_EQ(slurp(path_), "name\n\"hello, world\"\n");
}

TEST_F(CsvTest, EscapesEmbeddedQuotes) {
  {
    CsvWriter w(path_, {"name"});
    w.row(std::vector<std::string>{"say \"hi\""});
  }
  EXPECT_EQ(slurp(path_), "name\n\"say \"\"hi\"\"\"\n");
}

TEST_F(CsvTest, FlushPushesRowsToDisk) {
  CsvWriter w(path_, {"a"});
  w.row(std::vector<double>{1.0});
  w.flush();
  EXPECT_EQ(slurp(path_), "a\n1\n");
}

TEST(Csv, FlushThrowsWhenStreamWentBad) {
  // /dev/full accepts the open but fails every write with ENOSPC, so the
  // flush must surface the failure instead of leaving a torn file behind.
  if (!std::ifstream("/dev/full").good()) GTEST_SKIP() << "no /dev/full";
  CsvWriter w("/dev/full", {"a"});
  w.row(std::vector<double>{1.0});
  EXPECT_THROW(w.flush(), precondition_error);
}

TEST_F(CsvTest, RejectsArityMismatch) {
  CsvWriter w(path_, {"a", "b"});
  EXPECT_THROW(w.row(std::vector<double>{1.0}), precondition_error);
}

TEST_F(CsvTest, RejectsEmptyHeader) {
  EXPECT_THROW(CsvWriter(path_, {}), precondition_error);
}

TEST(Csv, RejectsUnopenablePath) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir/x.csv", {"a"}), precondition_error);
}

TEST(Csv, FormatDoubleCompact) {
  EXPECT_EQ(format_double(1.0), "1");
  EXPECT_EQ(format_double(0.5), "0.5");
  EXPECT_EQ(format_double(-3.25), "-3.25");
}

TEST(Csv, FormatDoubleSpecials) {
  EXPECT_EQ(format_double(std::numeric_limits<double>::quiet_NaN()), "nan");
  EXPECT_EQ(format_double(std::numeric_limits<double>::infinity()), "inf");
  EXPECT_EQ(format_double(-std::numeric_limits<double>::infinity()), "-inf");
}

}  // namespace
}  // namespace perq
