#include "workload/trace_workload.h"

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/csv.h"
#include "temp_path.h"

namespace prepare {
namespace {

TEST(TraceWorkload, RejectsBadInput) {
  EXPECT_THROW(TraceWorkload({}), CheckFailure);
  EXPECT_THROW(TraceWorkload({{0.0, 1.0}, {0.0, 2.0}}), CheckFailure);
  EXPECT_THROW(TraceWorkload({{0.0, -1.0}}), CheckFailure);
  EXPECT_THROW(TraceWorkload({{0.0, 1.0}}, 0.0), CheckFailure);
}

TEST(TraceWorkload, InterpolatesLinearly) {
  TraceWorkload w({{0.0, 10.0}, {10.0, 20.0}, {20.0, 0.0}});
  EXPECT_DOUBLE_EQ(w.rate(0.0), 10.0);
  EXPECT_DOUBLE_EQ(w.rate(5.0), 15.0);
  EXPECT_DOUBLE_EQ(w.rate(10.0), 20.0);
  EXPECT_DOUBLE_EQ(w.rate(15.0), 10.0);
}

TEST(TraceWorkload, HoldsBeforeFirstPoint) {
  TraceWorkload w({{5.0, 42.0}, {10.0, 50.0}});
  EXPECT_DOUBLE_EQ(w.rate(0.0), 42.0);
  EXPECT_DOUBLE_EQ(w.rate(5.0), 42.0);
}

TEST(TraceWorkload, WrapsAroundSpan) {
  TraceWorkload w({{0.0, 10.0}, {10.0, 20.0}});
  EXPECT_DOUBLE_EQ(w.rate(15.0), w.rate(5.0));
  EXPECT_DOUBLE_EQ(w.rate(25.0), w.rate(5.0));
}

TEST(TraceWorkload, ScalesRates) {
  TraceWorkload w({{0.0, 10.0}, {10.0, 20.0}}, 3.0);
  EXPECT_DOUBLE_EQ(w.rate(0.0), 30.0);
  EXPECT_DOUBLE_EQ(w.rate(10.0), 60.0);
}

TEST(TraceWorkload, SinglePointIsConstant) {
  TraceWorkload w({{0.0, 7.0}});
  EXPECT_DOUBLE_EQ(w.rate(0.0), 7.0);
  EXPECT_DOUBLE_EQ(w.rate(1234.0), 7.0);
}

TEST(TraceWorkload, LoadsFromCsv) {
  const std::string path = test_util::unique_temp_path("trace_workload.csv");
  {
    CsvWriter csv(path, {"time_s", "rate"});
    csv.row(std::vector<double>{0.0, 100.0});
    csv.row(std::vector<double>{60.0, 200.0});
    csv.row(std::vector<double>{120.0, 50.0});
  }
  const auto w = TraceWorkload::from_csv(path, 2.0);
  EXPECT_EQ(w.size(), 3u);
  EXPECT_DOUBLE_EQ(w.span(), 120.0);
  EXPECT_DOUBLE_EQ(w.rate(30.0), 300.0);  // 150 * scale 2
  std::remove(path.c_str());
}

TEST(TraceWorkload, NonFiniteCsvFieldNamesFileLineAndColumn) {
  const std::string path =
      test_util::unique_temp_path("trace_workload_bad.csv");
  for (const char* bad : {"fast", "nan", "inf"}) {
    {
      CsvWriter csv(path, {"time_s", "rate"});
      csv.row(std::vector<std::string>{"0", "100"});
      csv.row(std::vector<std::string>{"60", bad});
    }
    try {
      TraceWorkload::from_csv(path);
      ADD_FAILURE() << "rate '" << bad << "' was accepted";
    } catch (const std::runtime_error& e) {
      const std::string error = e.what();
      EXPECT_NE(error.find(path + ":3:"), std::string::npos) << error;
      EXPECT_NE(error.find("'rate'"), std::string::npos) << error;
    }
  }
  std::remove(path.c_str());
}

TEST(TraceWorkload, MissingCsvThrows) {
  EXPECT_THROW(TraceWorkload::from_csv("/nonexistent.csv"),
               std::runtime_error);
}

}  // namespace
}  // namespace prepare
