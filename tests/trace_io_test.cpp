#include "monitor/trace_io.h"

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/csv.h"
#include "core/experiment.h"
#include "temp_path.h"

namespace prepare {
namespace {

class TraceIoTest : public ::testing::Test {
 protected:
  std::string metrics_path_ = test_util::unique_temp_path("trace_metrics.csv");
  std::string slo_path_ = test_util::unique_temp_path("trace_slo.csv");
  void TearDown() override {
    std::remove(metrics_path_.c_str());
    std::remove(slo_path_.c_str());
  }
};

TEST_F(TraceIoTest, MetricStoreRoundTrips) {
  MetricStore store;
  AttributeVector v{};
  for (int i = 0; i < 20; ++i) {
    for (const char* vm : {"a", "b"}) {
      for (std::size_t a = 0; a < kAttributeCount; ++a)
        v[a] = i * 10.0 + static_cast<double>(a) + (vm[0] == 'a' ? 0 : 0.5);
      store.record(vm, i * 5.0, v);
    }
  }
  save_metric_store_csv(store, metrics_path_);
  const MetricStore loaded = load_metric_store_csv(metrics_path_);
  ASSERT_EQ(loaded.vm_names(), store.vm_names());
  for (const auto& vm : store.vm_names()) {
    ASSERT_EQ(loaded.sample_count(vm), store.sample_count(vm));
    for (std::size_t i = 0; i < store.sample_count(vm); ++i) {
      EXPECT_DOUBLE_EQ(loaded.sample_time(vm, i), store.sample_time(vm, i));
      const auto lhs = loaded.sample(vm, i);
      const auto rhs = store.sample(vm, i);
      for (std::size_t a = 0; a < kAttributeCount; ++a)
        EXPECT_NEAR(lhs[a], rhs[a], 1e-3) << vm << " sample " << i;
    }
  }
}

TEST_F(TraceIoTest, SloLogRoundTrips) {
  SloLog slo;
  for (double t = 0.0; t < 100.0; t += 1.0)
    slo.record(t, 1.0, t >= 40.0 && t < 60.0, t * 2.0);
  save_slo_log_csv(slo, slo_path_);
  const SloLog loaded = load_slo_log_csv(slo_path_);
  EXPECT_DOUBLE_EQ(loaded.total_violation_time(), 20.0);
  EXPECT_TRUE(loaded.violated_at(45.0));
  EXPECT_FALSE(loaded.violated_at(39.0));
  ASSERT_EQ(loaded.intervals().size(), 1u);
  EXPECT_DOUBLE_EQ(loaded.intervals()[0].start, 40.0);
  EXPECT_DOUBLE_EQ(loaded.intervals()[0].end, 60.0);
  EXPECT_EQ(loaded.metric_trace().size(), slo.metric_trace().size());
}

TEST_F(TraceIoTest, RecordedScenarioSurvivesRoundTrip) {
  ScenarioConfig config;
  config.scheme = Scheme::kNoIntervention;
  config.seed = 6;
  config.run_end = 400.0;  // short run keeps the test fast
  config.fault1_start = 150.0;
  config.fault_duration = 150.0;
  config.fault2_start = 310.0;
  config.train_time = 310.0;
  const auto result = run_scenario(config);
  save_metric_store_csv(result.store, metrics_path_);
  save_slo_log_csv(result.slo, slo_path_);
  const auto store = load_metric_store_csv(metrics_path_);
  const auto slo = load_slo_log_csv(slo_path_);
  EXPECT_EQ(store.vm_names().size(), 7u);
  EXPECT_NEAR(slo.total_violation_time(),
              result.slo.total_violation_time(), 1e-6);
}

TEST_F(TraceIoTest, MissingFileThrows) {
  EXPECT_THROW(load_metric_store_csv("/nonexistent/trace.csv"),
               std::runtime_error);
  EXPECT_THROW(load_slo_log_csv("/nonexistent/slo.csv"),
               std::runtime_error);
}

TEST_F(TraceIoTest, WrongSchemaThrows) {
  {
    CsvWriter w(metrics_path_, {"time_s", "not_vm"});
    w.row(std::vector<std::string>{"0", "x"});
  }
  EXPECT_THROW(load_metric_store_csv(metrics_path_), CheckFailure);
}

// Writes a metric-store CSV whose second data row carries `cpu` in the
// first attribute column, and returns the load error message.
std::string metric_store_load_error(const std::string& path,
                                    const std::string& cpu) {
  std::vector<std::string> header = {"time_s", "vm"};
  for (std::size_t a = 0; a < kAttributeCount; ++a)
    header.push_back(attribute_name(static_cast<Attribute>(a)));
  {
    CsvWriter w(path, header);
    std::vector<std::string> row = {"0", "vm1"};
    row.resize(header.size(), "1");
    w.row(row);
    row[0] = "5";
    row[2] = cpu;
    w.row(row);
  }
  try {
    load_metric_store_csv(path);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST_F(TraceIoTest, NonNumericMetricFieldNamesFileLineAndColumn) {
  const std::string cpu = attribute_name(static_cast<Attribute>(0));
  for (const char* bad :
       {"garbage", "12abc", "", "  ", "nan", "inf", "-inf", "1e999"}) {
    const std::string error = metric_store_load_error(metrics_path_, bad);
    EXPECT_NE(error.find(metrics_path_ + ":3:"), std::string::npos)
        << "field '" << bad << "': " << error;
    EXPECT_NE(error.find("'" + cpu + "'"), std::string::npos) << error;
  }
  // Well-formed numbers, blanks around them included, still load.
  EXPECT_EQ(metric_store_load_error(metrics_path_, " 2.5e3 "), "");
}

TEST_F(TraceIoTest, NonFiniteSloFieldNamesFileLineAndColumn) {
  for (const char* bad : {"oops", "nan", "inf"}) {
    {
      CsvWriter w(slo_path_, {"time_s", "dt_s", "violated", "slo_metric"});
      w.row(std::vector<std::string>{"0", "1", "0", bad});
    }
    try {
      load_slo_log_csv(slo_path_);
      ADD_FAILURE() << "field '" << bad << "' was accepted";
    } catch (const std::runtime_error& e) {
      const std::string error = e.what();
      EXPECT_NE(error.find(slo_path_ + ":2:"), std::string::npos) << error;
      EXPECT_NE(error.find("'slo_metric'"), std::string::npos) << error;
    }
  }
}

TEST(CsvReader, ParsesWriterOutput) {
  const std::string path = test_util::unique_temp_path("csvreader_test.csv");
  {
    CsvWriter w(path, {"a", "b", "c"});
    w.row(std::vector<double>{1.0, 2.0, 3.0});
    w.row(std::vector<std::string>{"x", "y", "z"});
  }
  CsvReader r(path);
  EXPECT_EQ(r.column("b"), 1u);
  EXPECT_THROW(r.column("nope"), CheckFailure);
  std::vector<std::string> fields;
  ASSERT_TRUE(r.next(&fields));
  EXPECT_EQ(fields[0], "1");
  ASSERT_TRUE(r.next(&fields));
  EXPECT_EQ(fields[2], "z");
  EXPECT_FALSE(r.next(&fields));
  std::remove(path.c_str());
}

TEST(SplitCsvLine, HandlesEmptyFields) {
  const auto fields = split_csv_line("a,,c");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[1], "");
}

}  // namespace
}  // namespace prepare
