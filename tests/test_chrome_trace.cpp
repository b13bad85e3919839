#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "allreduce/cluster.hpp"
#include "metrics/chrome_trace.hpp"
#include "ps/trace_export.hpp"

namespace prophet {
namespace {

using namespace prophet::literals;

std::string read_file(const std::string& path) {
  std::ifstream in{path};
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Complete ("X") spans in an exported trace.
std::size_t count_spans(const std::string& out) {
  std::size_t spans = 0;
  for (std::size_t pos = out.find("\"ph\":\"X\""); pos != std::string::npos;
       pos = out.find("\"ph\":\"X\"", pos + 1)) {
    ++spans;
  }
  return spans;
}

class ChromeTraceTest : public ::testing::Test {
 protected:
  std::string path_ = ::testing::TempDir() + "prophet_trace_test.json";
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(ChromeTraceTest, EmitsWellFormedSpans) {
  {
    metrics::ChromeTraceWriter trace{path_};
    ASSERT_TRUE(trace.ok());
    trace.name_process(0, "worker0");
    trace.name_thread(0, 1, "gradient push");
    trace.add_span("g3", "push", 0, 1, TimePoint::origin() + 2_ms, 5_ms);
    trace.close();
  }
  const std::string out = read_file(path_);
  EXPECT_NE(out.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(out.find("\"name\":\"g3\""), std::string::npos);
  EXPECT_NE(out.find("\"ts\":2000.000"), std::string::npos);
  EXPECT_NE(out.find("\"dur\":5000.000"), std::string::npos);
  EXPECT_NE(out.find("\"name\":\"worker0\""), std::string::npos);
  // Balanced JSON delimiters (cheap well-formedness check).
  EXPECT_EQ(std::count(out.begin(), out.end(), '{'),
            std::count(out.begin(), out.end(), '}'));
  EXPECT_EQ(std::count(out.begin(), out.end(), '['),
            std::count(out.begin(), out.end(), ']'));
}

TEST_F(ChromeTraceTest, EscapesSpecialCharacters) {
  EXPECT_EQ(metrics::ChromeTraceWriter::escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

TEST_F(ChromeTraceTest, DestructorClosesFile) {
  { metrics::ChromeTraceWriter trace{path_}; }
  const std::string out = read_file(path_);
  EXPECT_EQ(out, "{\"traceEvents\":[\n]}\n");
}

TEST_F(ChromeTraceTest, ExportsFullClusterRun) {
  ps::ClusterConfig cfg;
  cfg.model = dnn::toy_cnn();
  cfg.num_workers = 2;
  cfg.batch = 16;
  cfg.iterations = 6;
  cfg.strategy = ps::StrategyConfig::prophet();
  cfg.strategy.prophet_config.profile_iterations = 2;
  cfg.keep_transfer_records = true;
  const auto result = ps::run_cluster(cfg, 2);
  ps::export_chrome_trace(result, path_);

  const std::string out = read_file(path_);
  EXPECT_NE(out.find("\"name\":\"worker0\""), std::string::npos);
  EXPECT_NE(out.find("\"name\":\"worker1\""), std::string::npos);
  EXPECT_NE(out.find("GPU compute"), std::string::npos);
  EXPECT_NE(out.find("gradient push"), std::string::npos);
  EXPECT_NE(out.find("parameter pull"), std::string::npos);
  // Every transfer record appears as a span; workers also emit compute.
  std::size_t expected = 0;
  for (const auto& w : result.workers) {
    EXPECT_GT(w.transfers.records().size(), 0u);
    EXPECT_EQ(w.transfers.records().size(), w.transfers.count());
    expected += w.transfers.records().size() + w.gpu_intervals.size();
  }
  EXPECT_EQ(count_spans(out), expected);
}

// A run that did not keep its raw records cannot be replayed as a trace:
// the export dies naming the config field instead of writing empty lanes.
TEST_F(ChromeTraceTest, ExportWithoutKeptRecordsDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ps::ClusterConfig cfg;
  cfg.model = dnn::toy_cnn();
  cfg.num_workers = 2;
  cfg.batch = 16;
  cfg.iterations = 6;
  cfg.strategy = ps::StrategyConfig::fifo();
  const auto result = ps::run_cluster(cfg, 2);
  ASSERT_TRUE(result.workers[0].transfers.records().empty());
  ASSERT_GT(result.workers[0].transfers.count(), 0u);
  EXPECT_DEATH(ps::export_chrome_trace(result, path_), "keep_transfer_records");
}

// A ring run counts no transfer records; its GPU lane alone needs the
// opt-in, and the export dies naming it rather than writing an empty lane.
TEST_F(ChromeTraceTest, RingExportNeedsKeptIntervals) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ps::ClusterConfig cfg;
  cfg.model = dnn::toy_cnn();
  cfg.num_workers = 2;
  cfg.batch = 16;
  cfg.iterations = 6;
  cfg.strategy = ps::StrategyConfig::fifo();
  const auto plain = ar::run_allreduce(cfg, 3);
  ASSERT_EQ(plain.workers[0].transfers.count(), 0u);
  EXPECT_DEATH(ps::export_chrome_trace(plain, path_), "keep_transfer_records");

  cfg.keep_transfer_records = true;
  const auto kept = ar::run_allreduce(cfg, 3);
  ps::export_chrome_trace(kept, path_);
  ASSERT_FALSE(kept.workers[0].gpu_intervals.empty());
  EXPECT_EQ(count_spans(read_file(path_)),
            kept.workers[0].gpu_intervals.size() + kept.workers[1].gpu_intervals.size());
}

}  // namespace
}  // namespace prophet
