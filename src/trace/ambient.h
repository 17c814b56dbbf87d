// Ambient (unconditioned) indoor environment model.
//
// This is the physical ground truth beneath the synthetic CASAS traces: what
// temperature and light a zone would exhibit *without* any IMCF actuation.
// The convenience error of a dropped rule is measured against these values,
// and HVAC energy grows with the setpoint-ambient gap, so this model is the
// main calibration surface of the reproduction (see DESIGN.md §1).
//
// Indoor temperature couples to the synthetic outdoor weather through a
// first-order envelope (thermal lag + damping + internal gains); indoor
// daylight is outdoor daylight through a window factor, plus small
// deterministic per-hour noise so traces look like sensor data rather than
// smooth curves.

#ifndef IMCF_TRACE_AMBIENT_H_
#define IMCF_TRACE_AMBIENT_H_

#include <array>
#include <cstdint>

#include "common/time.h"
#include "weather/weather.h"

namespace imcf {
namespace trace {

/// Envelope and gain parameters of one building unit.
struct AmbientModelOptions {
  double neutral_temp_c = 16.5;   ///< indoor temp when outdoor matches it
  double coupling = 0.55;         ///< fraction of seasonal deviation passed in
  /// Fraction of the day-night swing passed indoors. Thermal mass damps
  /// diurnal swings far more than seasonal ones, so this is much smaller
  /// than `coupling`.
  double diurnal_coupling = 0.30;
  double internal_gain_c = 2.0;   ///< occupants + appliances heat gain
  double thermal_lag_hours = 3.0; ///< envelope time shift of outdoor swings
  double window_factor = 0.62;    ///< indoor daylight / outdoor daylight
  double temp_noise_c = 0.35;     ///< per-hour sensor/process noise (stddev)
  double light_noise = 2.5;       ///< per-hour light noise (stddev, 0-100)
  /// Monthly indoor-temperature bias (January first, °C). Captures
  /// occupancy and solar-gain seasonality the first-order envelope misses;
  /// the dataset specs use it to calibrate per-month HVAC demand against
  /// the consumption profile of Table I (see EXPERIMENTS.md).
  std::array<double, 12> monthly_bias_c{};
};

/// Deterministic ambient model for one unit. Pure function of time, so the
/// simulator can sample it at any granularity without storing traces.
///
/// Every value splits by what it varies with. The weather sample, the
/// month's bias and the cosine blend weight depend only on the time and
/// the dataset (all units of a dataset share one climate and one set of
/// options); the hash noise drawn at each hour boundary depends on the
/// unit. The point queries and BuildHourlyAmbient (dataset.h) both combine
/// those parts through TempC / LightPct below, the one copy of the formula.
class AmbientModel {
 public:
  /// Hash streams of the two noise series (one draw per hour boundary).
  static constexpr uint64_t kTempStream = 0xA1B2ULL;
  static constexpr uint64_t kLightStream = 0xC3D4ULL;

  /// `unit_seed` differentiates units of a replicated dataset ("mixing up
  /// the readings" in the paper's dataset construction).
  AmbientModel(const weather::WeatherService* weather,
               AmbientModelOptions options, uint64_t unit_seed);

  /// Unconditioned indoor temperature at `t` (°C).
  double IndoorTempC(SimTime t) const;

  /// Indoor ambient light level at `t` (0-100 scale).
  double IndoorLightPct(SimTime t) const;

  /// Whether the unit's entrance door is open at `t` (sparse, short events
  /// during waking hours; used by the IFTTT door recipe).
  bool DoorOpen(SimTime t) const;

  const AmbientModelOptions& options() const { return options_; }

  // The parts the two queries are built from.

  /// The time whose weather the temperature envelope follows at `t`.
  SimTime LaggedTime(SimTime t) const;

  /// Temperature before the unit's noise: envelope of the lagged weather,
  /// internal gains and the bias of `t`'s month.
  double TempBaseC(const weather::WeatherSample& lagged, SimTime t) const;

  /// Light before the unit's noise: outdoor daylight through the window.
  double LightBasePct(const weather::WeatherSample& now) const;

  /// Weight of the later hour boundary's draw at `t`: a cosine blend that
  /// keeps the noise continuous across hour boundaries.
  static double BlendWeight(SimTime t);

  /// The unit's noise draw (in stddevs) of `stream` at the start of
  /// `hour` (an HourIndex). The draw at hour h+1 ends hour h's blend and
  /// starts hour h+1's.
  double BoundaryDraw(uint64_t stream, int64_t hour) const;

  /// Indoor temperature from its base, the blend weight and the draws at
  /// the start (`a`) and end (`b`) of the hour.
  double TempC(double base, double blend, double a, double b) const;

  /// Indoor light from its base, the blend weight and the boundary draws.
  double LightPct(double base, double blend, double a, double b) const;

 private:
  const weather::WeatherService* weather_;  // not owned
  AmbientModelOptions options_;
  uint64_t unit_seed_;
};

}  // namespace trace
}  // namespace imcf

#endif  // IMCF_TRACE_AMBIENT_H_
