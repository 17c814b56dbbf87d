// Oracle for BuildHourlyAmbient: every (unit, hour) cell of the series must
// carry, bit for bit, the float the unit's own point queries give at the
// hour's midpoint. The series shares weather samples, month biases and
// blend weights across units and hash draws across hour boundaries; the
// point queries share nothing, so any slip in that sharing (a wrong hour
// index, a sample taken at the wrong time, a draw off by one boundary)
// shows up as a mismatched bit pattern.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "common/rng.h"
#include "trace/ambient.h"
#include "trace/dataset.h"

namespace imcf {
namespace trace {
namespace {

constexpr SimTime kMinute = 60;

// Re-seeds a spec's unit noise and its climate together.
DatasetSpec Seeded(DatasetSpec spec, uint64_t seed) {
  spec.seed = seed;
  spec.climate.seed = MixHash(seed, 0xC11Au);
  return spec;
}

// Compares the series against the point queries; reports the first
// mismatching cell and returns how many cells differ.
int64_t Mismatches(const DatasetSpec& spec, SimTime start, int hours) {
  SCOPED_TRACE(spec.name + " from " + FormatTime(start) + " for " +
               std::to_string(hours) + " h");
  const HourlyAmbient series = BuildHourlyAmbient(spec, start, hours);
  EXPECT_EQ(series.units(), spec.units);
  EXPECT_EQ(series.hours(), hours);
  weather::SyntheticWeather weather(spec.climate);
  int64_t mismatches = 0;
  bool reported = false;
  for (int u = 0; u < spec.units; ++u) {
    const AmbientModel model(&weather, spec.ambient,
                             MixHash(spec.seed, static_cast<uint64_t>(u)));
    for (int h = 0; h < hours; ++h) {
      const SimTime midpoint = series.TimeOfHour(h) + kSecondsPerHour / 2;
      const float temp = static_cast<float>(model.IndoorTempC(midpoint));
      const float light = static_cast<float>(model.IndoorLightPct(midpoint));
      const bool same =
          std::bit_cast<uint32_t>(series.temp(u, h)) ==
              std::bit_cast<uint32_t>(temp) &&
          std::bit_cast<uint32_t>(series.light(u, h)) ==
              std::bit_cast<uint32_t>(light);
      if (same) continue;
      ++mismatches;
      if (!reported) {
        reported = true;
        ADD_FAILURE() << "unit " << u << " hour " << h << ": series ("
                      << series.temp(u, h) << " C, " << series.light(u, h)
                      << "%) vs point queries (" << temp << " C, " << light
                      << "%)";
      }
    }
  }
  return mismatches;
}

TEST(AmbientSeriesOracleTest, EveryDatasetAndSeedFromAnAlignedStart) {
  for (const DatasetSpec& base : AllSpecs()) {
    for (uint64_t seed : {base.seed, uint64_t{1}, uint64_t{42},
                          uint64_t{0xDEADBEEF}}) {
      EXPECT_EQ(Mismatches(Seeded(base, seed), FromCivil(2014, 1, 1), 24), 0);
    }
  }
}

TEST(AmbientSeriesOracleTest, StartsPastTheHour) {
  // 17 minutes past puts each midpoint 47 minutes into its hour; 30 past
  // puts it exactly on the next hour boundary (blend weight 0).
  for (const DatasetSpec& base : AllSpecs()) {
    for (SimTime offset : {17 * kMinute, 30 * kMinute, 59 * kMinute}) {
      for (uint64_t seed : {base.seed, uint64_t{5}}) {
        const SimTime start = FromCivil(2015, 6, 3, 9) + offset;
        EXPECT_EQ(Mismatches(Seeded(base, seed), start, 25), 0);
      }
    }
  }
}

TEST(AmbientSeriesOracleTest, OneTwentyFourAndTwentyFiveHours) {
  for (const DatasetSpec& spec : AllSpecs()) {
    for (int hours : {1, 24, 25}) {
      EXPECT_EQ(Mismatches(spec, FromCivil(2014, 8, 14, 23, 17), hours), 0);
    }
  }
}

TEST(AmbientSeriesOracleTest, SpansAcrossYearAndMonthEnds) {
  // New Year's Eve into 2016, and the leap day into March: the month bias
  // and the weather's day index change mid-span.
  for (const DatasetSpec& spec : AllSpecs()) {
    for (SimTime offset : {SimTime{0}, 17 * kMinute, 30 * kMinute}) {
      EXPECT_EQ(
          Mismatches(spec, FromCivil(2015, 12, 31, 12) + offset, 25), 0);
      EXPECT_EQ(
          Mismatches(spec, FromCivil(2016, 2, 28, 6) + offset, 3 * 24), 0);
    }
  }
}

TEST(AmbientSeriesOracleTest, MoreThanAYearOnTheFlat) {
  const int hours = 366 * 24 + 7;
  EXPECT_EQ(Mismatches(FlatSpec(), FromCivil(2015, 9, 1, 4, 17), hours), 0);
}

TEST(AmbientSeriesOracleTest, FractionalThermalLag) {
  // 2.7 h and 1.2345 h (a lag that is not a whole number of seconds).
  for (double lag : {2.7, 1.2345}) {
    for (const DatasetSpec& base : AllSpecs()) {
      DatasetSpec spec = Seeded(base, 77);
      spec.ambient.thermal_lag_hours = lag;
      EXPECT_EQ(Mismatches(spec, FromCivil(2016, 2, 28, 22, 17), 30), 0);
    }
  }
}

}  // namespace
}  // namespace trace
}  // namespace imcf
