#include <gtest/gtest.h>

#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "common/units.h"

namespace imcf {
namespace {

/// Test sink collecting every emitted line (thread-safe, as the sink
/// contract requires).
class CaptureSink : public LogSink {
 public:
  void Write(LogLevel level, const std::string& line) override {
    std::lock_guard<std::mutex> lock(mu_);
    levels_.push_back(level);
    lines_.push_back(line);
  }

  std::vector<std::string> lines() const {
    std::lock_guard<std::mutex> lock(mu_);
    return lines_;
  }
  std::vector<LogLevel> levels() const {
    std::lock_guard<std::mutex> lock(mu_);
    return levels_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<LogLevel> levels_;
  std::vector<std::string> lines_;
};

/// RAII sink swap so a test failure cannot leave the capture installed.
class ScopedSink {
 public:
  explicit ScopedSink(LogSink* sink) : previous_(SetLogSink(sink)) {}
  ~ScopedSink() { SetLogSink(previous_); }

 private:
  LogSink* previous_;
};

TEST(UnitsTest, TariffConversions) {
  // "1 kWh costs around 0.20 Euros in EU, so monetary to energy conversion
  // can be carried out directly": the paper's 100-euro monthly budget is
  // 500 kWh.
  EXPECT_DOUBLE_EQ(EurosToKwh(100.0), 500.0);
  EXPECT_DOUBLE_EQ(KwhToEuros(500.0), 100.0);
  EXPECT_DOUBLE_EQ(KwhToEuros(EurosToKwh(42.0)), 42.0);
}

TEST(UnitsTest, EnergyFromPower) {
  EXPECT_DOUBLE_EQ(EnergyKwh(2.0, 3.0), 6.0);
  EXPECT_DOUBLE_EQ(EnergyKwh(0.0, 100.0), 0.0);
}

TEST(UnitsTest, ClampAndLerp) {
  EXPECT_DOUBLE_EQ(Clamp(5.0, 0.0, 10.0), 5.0);
  EXPECT_DOUBLE_EQ(Clamp(-1.0, 0.0, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(Clamp(11.0, 0.0, 10.0), 10.0);
  EXPECT_DOUBLE_EQ(Lerp(10.0, 20.0, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(Lerp(10.0, 20.0, 1.0), 20.0);
  EXPECT_DOUBLE_EQ(Lerp(10.0, 20.0, 0.25), 12.5);
}

TEST(LoggingTest, LevelGating) {
  const LogLevel original = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  // Suppressed levels must not evaluate their stream arguments.
  int evaluations = 0;
  auto count = [&evaluations]() {
    ++evaluations;
    return 1;
  };
  IMCF_LOG(kDebug) << "suppressed " << count();
  IMCF_LOG(kInfo) << "suppressed " << count();
  EXPECT_EQ(evaluations, 0);
  IMCF_LOG(kError) << "emitted " << count();
  EXPECT_EQ(evaluations, 1);
  SetLogLevel(original);
}

TEST(LoggingTest, DefaultLevelIsWarning) {
  // Benchmarks rely on quiet-by-default logging.
  const LogLevel original = GetLogLevel();
  SetLogLevel(LogLevel::kWarning);
  EXPECT_EQ(GetLogLevel(), LogLevel::kWarning);
  SetLogLevel(original);
}

TEST(LoggingTest, SinkReceivesFormattedLines) {
  const LogLevel original = GetLogLevel();
  SetLogLevel(LogLevel::kInfo);
  CaptureSink capture;
  {
    ScopedSink scoped(&capture);
    IMCF_LOG(kInfo) << "loaded " << 7 << " rules";
    IMCF_LOG(kError) << "boom";
  }
  SetLogLevel(original);

  const std::vector<std::string> lines = capture.lines();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(capture.levels()[0], LogLevel::kInfo);
  EXPECT_EQ(capture.levels()[1], LogLevel::kError);
  // Prefix shape: "[<seconds> t<id> LEVEL file:line] message".
  EXPECT_EQ(lines[0].front(), '[');
  EXPECT_NE(lines[0].find(" INFO logging_units_test.cc:"),
            std::string::npos);
  EXPECT_NE(lines[0].find("] loaded 7 rules"), std::string::npos);
  EXPECT_NE(lines[1].find(" ERROR logging_units_test.cc:"),
            std::string::npos);
  EXPECT_NE(lines[1].find("] boom"), std::string::npos);
  // Monotonic timestamp and thread id are present: "[12.345678 t0 ...".
  double seconds = -1.0;
  int thread_id = -1;
  ASSERT_EQ(std::sscanf(lines[0].c_str(), "[%lf t%d ", &seconds,
                        &thread_id),
            2);
  EXPECT_GE(seconds, 0.0);
  EXPECT_GE(thread_id, 0);
}

TEST(LoggingTest, SetLogSinkReturnsPreviousAndNullRestoresDefault) {
  CaptureSink first;
  CaptureSink second;
  LogSink* original = SetLogSink(&first);
  EXPECT_NE(original, nullptr);  // the default stderr sink
  EXPECT_EQ(SetLogSink(&second), &first);
  EXPECT_EQ(SetLogSink(nullptr), &second);
  // nullptr restored the default: installing again hands it back.
  EXPECT_EQ(SetLogSink(original), original);
}

TEST(LoggingTest, ConcurrentLoggingDeliversEveryLine) {
  const LogLevel original = GetLogLevel();
  SetLogLevel(LogLevel::kInfo);
  CaptureSink capture;
  constexpr int kTasks = 32;
  {
    ScopedSink scoped(&capture);
    ThreadPool pool(4);
    pool.ParallelFor(kTasks, [](int i) {
      IMCF_LOG(kInfo) << "task " << i;
    });
  }
  SetLogLevel(original);
  EXPECT_EQ(capture.lines().size(), static_cast<size_t>(kTasks));
}

}  // namespace
}  // namespace imcf
