// Tests for trace CSV export and summaries.
#include "core/trace_io.hpp"

#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "common/check.hpp"

namespace sa::core {
namespace {

Trace make_trace() {
  Trace t;
  TracePoint a;
  a.iteration = 0;
  a.objective = 10.0;
  a.wall_seconds = 0.0;
  TracePoint b;
  b.iteration = 5;
  b.objective = 2.5;
  b.stats.flops = 100;
  b.stats.words = 20;
  b.stats.messages = 4;
  b.wall_seconds = 0.125;
  t.points = {a, b};
  t.iterations_run = 5;
  t.final_stats = b.stats;
  t.total_wall_seconds = 0.2;
  return t;
}

TEST(TraceCsv, WritesHeaderAndRows) {
  std::ostringstream out;
  write_trace_csv(out, make_trace());
  const std::string text = out.str();
  EXPECT_NE(text.find("iteration,objective,flops,words,messages"),
            std::string::npos);
  EXPECT_NE(text.find("0,10,0,0,0,0"), std::string::npos);
  EXPECT_NE(text.find("5,2.5,100,20,4,0.125"), std::string::npos);
}

TEST(TraceCsv, EmptyTraceIsHeaderOnly) {
  std::ostringstream out;
  write_trace_csv(out, Trace{});
  EXPECT_EQ(out.str(),
            "iteration,objective,flops,words,messages,wall_seconds\n");
}

TEST(TraceCsv, MachineVariantAddsModelledColumn) {
  std::ostringstream out;
  perf::MachineParams machine{"m", 1.0, 1.0, 1.0};
  write_trace_csv(out, make_trace(), machine);
  const std::string text = out.str();
  EXPECT_NE(text.find("modelled_seconds"), std::string::npos);
  // point b: 100 flops + 20 words + 4 messages at unit rates = 124 s.
  EXPECT_NE(text.find(",124"), std::string::npos);
}

TEST(TraceCsv, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/sa_opt_trace.csv";
  write_trace_csv_file(path, make_trace());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "iteration,objective,flops,words,messages,wall_seconds");
}

TEST(TraceCsv, BadPathThrows) {
  EXPECT_THROW(write_trace_csv_file("/nonexistent/dir/trace.csv",
                                    make_trace()),
               sa::PreconditionError);
}

TEST(TraceSummary, ContainsKeyCounters) {
  const std::string s = summarize_trace(make_trace());
  EXPECT_NE(s.find("iterations=5"), std::string::npos);
  EXPECT_NE(s.find("final_objective=2.5"), std::string::npos);
  EXPECT_NE(s.find("flops=100"), std::string::npos);
  EXPECT_NE(s.find("messages=4"), std::string::npos);
}

TEST(TraceSummary, EmptyTrace) {
  const std::string s = summarize_trace(Trace{});
  EXPECT_NE(s.find("iterations=0"), std::string::npos);
  EXPECT_NE(s.find("final_objective=0"), std::string::npos);
}

}  // namespace
}  // namespace sa::core
