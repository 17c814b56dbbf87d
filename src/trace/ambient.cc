#include "trace/ambient.h"

#include <cmath>

#include "common/rng.h"
#include "common/units.h"

namespace imcf {
namespace trace {

namespace {

// Gaussian-ish deviate in units of stddev from a hash (sum of 4 uniforms).
double HashGaussian(uint64_t h) {
  double sum = 0.0;
  for (int i = 0; i < 4; ++i) {
    sum += static_cast<double>(MixHash(h, static_cast<uint64_t>(i)) >> 11) *
           0x1.0p-53;
  }
  return (sum - 2.0) / std::sqrt(4.0 / 12.0);
}

}  // namespace

AmbientModel::AmbientModel(const weather::WeatherService* weather,
                           AmbientModelOptions options, uint64_t unit_seed)
    : weather_(weather), options_(options), unit_seed_(unit_seed) {}

SimTime AmbientModel::LaggedTime(SimTime t) const {
  return t -
         static_cast<SimTime>(options_.thermal_lag_hours * kSecondsPerHour);
}

double AmbientModel::TempBaseC(const weather::WeatherSample& lagged,
                               SimTime t) const {
  const double envelope =
      options_.neutral_temp_c +
      options_.coupling *
          (lagged.outdoor_daily_mean_c - options_.neutral_temp_c) +
      options_.diurnal_coupling *
          (lagged.outdoor_temp_c - lagged.outdoor_daily_mean_c);
  const double bias =
      options_.monthly_bias_c[static_cast<size_t>(ToCivil(t).month - 1)];
  return envelope + options_.internal_gain_c + bias;
}

double AmbientModel::LightBasePct(const weather::WeatherSample& now) const {
  return 100.0 * options_.window_factor * now.daylight;
}

double AmbientModel::BlendWeight(SimTime t) {
  const double frac =
      static_cast<double>(t - HourIndex(t) * kSecondsPerHour) /
      kSecondsPerHour;
  return 0.5 - 0.5 * std::cos(M_PI * frac);
}

double AmbientModel::BoundaryDraw(uint64_t stream, int64_t hour) const {
  return HashGaussian(
      MixHash(unit_seed_ ^ stream, static_cast<uint64_t>(hour)));
}

double AmbientModel::TempC(double base, double blend, double a,
                           double b) const {
  return base + options_.temp_noise_c * Lerp(a, b, blend);
}

double AmbientModel::LightPct(double base, double blend, double a,
                              double b) const {
  return Clamp(base + options_.light_noise * Lerp(a, b, blend), 0.0, 100.0);
}

double AmbientModel::IndoorTempC(SimTime t) const {
  const int64_t hour = HourIndex(t);
  return TempC(TempBaseC(weather_->At(LaggedTime(t)), t), BlendWeight(t),
               BoundaryDraw(kTempStream, hour),
               BoundaryDraw(kTempStream, hour + 1));
}

double AmbientModel::IndoorLightPct(SimTime t) const {
  const int64_t hour = HourIndex(t);
  return LightPct(LightBasePct(weather_->At(t)), BlendWeight(t),
                  BoundaryDraw(kLightStream, hour),
                  BoundaryDraw(kLightStream, hour + 1));
}

bool AmbientModel::DoorOpen(SimTime t) const {
  // Sparse door events: each waking hour has an independent chance of one
  // 2-minute opening at a hash-determined offset.
  const int64_t hour = HourIndex(t);
  const int hour_of_day = static_cast<int>(MinuteOfDay(t) / 60);
  if (hour_of_day < 7 || hour_of_day > 22) return false;
  const uint64_t h =
      MixHash(unit_seed_ ^ 0xD00DULL, static_cast<uint64_t>(hour));
  const double p = static_cast<double>(h >> 11) * 0x1.0p-53;
  if (p > 0.15) return false;  // ~15% of waking hours see one opening
  const int offset_minutes = static_cast<int>(MixHash(h, 1) % 58);
  const int minute_in_hour = static_cast<int>((t / 60) % 60);
  return minute_in_hour >= offset_minutes && minute_in_hour < offset_minutes + 2;
}

}  // namespace trace
}  // namespace imcf
