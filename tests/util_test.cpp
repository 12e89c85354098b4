#include <gtest/gtest.h>

#include "vmmc/util/log.h"
#include "vmmc/util/stats.h"
#include "vmmc/util/status.h"

namespace vmmc {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = PermissionDenied("import not allowed");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kPermissionDenied);
  EXPECT_EQ(s.ToString(), "PERMISSION_DENIED: import not allowed");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(ErrorCode::kInternal); ++c) {
    EXPECT_NE(ErrorCodeName(static_cast<ErrorCode>(c)), "UNKNOWN");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(0), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(NotFound("no such export"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(OnlineStatsTest, MomentsCorrect) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(OnlineStatsTest, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(HistogramTest, BucketsAndQuantiles) {
  Histogram h({10.0, 20.0, 30.0});
  for (int i = 0; i < 10; ++i) h.Add(5.0);
  for (int i = 0; i < 10; ++i) h.Add(15.0);
  for (int i = 0; i < 10; ++i) h.Add(25.0);
  h.Add(100.0);  // overflow bucket
  EXPECT_EQ(h.total(), 31u);
  EXPECT_EQ(h.bucket_count(0), 10u);
  EXPECT_EQ(h.bucket_count(3), 1u);
  EXPECT_GT(h.Quantile(0.5), 10.0);
  EXPECT_LT(h.Quantile(0.5), 20.0);
  EXPECT_LE(h.Quantile(0.0), h.Quantile(1.0));
}

TEST(TableTest, RendersAlignedColumns) {
  Table t({"size", "lat(us)"});
  t.AddRow({"4", "9.80"});
  t.AddRow({"1024", "21.50"});
  std::string out = t.ToString();
  EXPECT_NE(out.find("size"), std::string::npos);
  EXPECT_NE(out.find("9.80"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
  // Header line and each row end without trailing spaces.
  for (size_t pos = out.find('\n'); pos != std::string::npos;
       pos = out.find('\n', pos + 1)) {
    if (pos > 0) {
      EXPECT_NE(out[pos - 1], ' ');
    }
  }
}

TEST(FormatTest, Doubles) {
  EXPECT_EQ(FormatDouble(9.8, 2), "9.80");
  EXPECT_EQ(FormatDouble(108.42, 1), "108.4");
}

TEST(FormatTest, Sizes) {
  EXPECT_EQ(FormatSize(4), "4");
  EXPECT_EQ(FormatSize(128), "128");
  EXPECT_EQ(FormatSize(4096), "4K");
  EXPECT_EQ(FormatSize(1 << 20), "1M");
  EXPECT_EQ(FormatSize(65536), "64K");
  EXPECT_EQ(FormatSize(1000), "1000");
}

TEST(LogTest, LevelParsingAndThreshold) {
  EXPECT_EQ(ParseLogLevel("debug"), LogLevel::kDebug);
  EXPECT_EQ(ParseLogLevel("garbage"), LogLevel::kWarn);
  LogLevel old = GetLogLevel();
  SetLogLevel(LogLevel::kOff);
  VMMC_LOG(kError, "test") << "suppressed";  // must not crash
  SetLogLevel(old);
}

}  // namespace
}  // namespace vmmc
