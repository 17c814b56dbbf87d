#include "trace/dataset.h"

#include "common/rng.h"

namespace imcf {
namespace trace {

namespace {

// The evaluation residences are calibrated to the climate the ECP of
// Table I implies: a Mediterranean profile (the authors' institution is in
// Cyprus) — heavy January/December heating, an August cooling bump larger
// than July's, and near-idle Aprils and Octobers. A cold-winter profile
// cannot reproduce Table I's 5.5:1 January:April ratio together with the
// paper's 2-4% EP convenience error (see DESIGN.md §3 and EXPERIMENTS.md).
weather::ClimateOptions MediterraneanClimate(uint64_t seed) {
  weather::ClimateOptions climate;
  climate.seed = seed;
  climate.mean_temp_c = 17.5;
  climate.annual_amplitude_c = 11.0;
  climate.diurnal_amplitude_c = 6.0;
  climate.day_noise_c = 1.6;
  climate.cloudy_winter_prob = 0.80;
  climate.cloudy_summer_prob = 0.10;
  climate.min_day_length_h = 9.5;
  climate.max_day_length_h = 14.5;
  return climate;
}

// Shared envelope parameters; per-dataset deltas applied in the specs.
AmbientModelOptions ResidentialAmbient() {
  AmbientModelOptions ambient;
  ambient.neutral_temp_c = 16.5;
  ambient.coupling = 0.62;
  ambient.internal_gain_c = 2.0;
  ambient.thermal_lag_hours = 3.0;
  ambient.window_factor = 0.75;
  ambient.temp_noise_c = 0.35;
  ambient.light_noise = 2.5;
  // Solar-gain / occupancy seasonality on top of the first-order envelope,
  // calibrated so that monthly HVAC demand under the Table II rules tracks
  // the consumption profile of Table I (shoulder seasons are nearly
  // self-comfortable, as the tiny April/October ECP entries imply).
  ambient.monthly_bias_c = {0.5, 1.5, 5.0, 6.0, 4.0, 0.7,
                            -0.1, 0.7, 0.6, 2.6, 5.5, 4.3};
  return ambient;
}

}  // namespace

DatasetSpec FlatSpec() {
  DatasetSpec spec;
  spec.name = "flat";
  spec.units = 1;
  spec.area_m2 = 50.0;
  // 50 m² zone with a single split unit and a conventional (pre-LED)
  // lighting circuit — fixed-draw lights with no daylight sensing are a
  // large share of this flat's load, which is what gives the planner its
  // cheap daytime shedding headroom.
  spec.hvac.kw_per_degree = 0.085;
  spec.hvac.rated_power_kw = 2.5;
  spec.hvac.fan_kw = 0.12;
  spec.hvac.deadband_c = 3.0;
  spec.light.max_power_kw = 0.60;
  spec.ambient = ResidentialAmbient();
  spec.climate = MediterraneanClimate(/*seed=*/101);
  spec.budget_kwh = 11000.0;  // Table II "Energy Flat"
  spec.mrt_variation = 0.0;
  spec.seed = 7;
  return spec;
}

DatasetSpec HouseSpec() {
  DatasetSpec spec;
  spec.name = "house";
  spec.units = 4;
  spec.area_m2 = 200.0;
  // Four zones sharing interior walls: lighter per-zone HVAC load and
  // smaller lighting circuits than the detached flat.
  spec.hvac.kw_per_degree = 0.050;
  spec.hvac.rated_power_kw = 2.0;
  spec.hvac.fan_kw = 0.07;
  spec.hvac.deadband_c = 3.0;
  spec.light.max_power_kw = 0.35;
  spec.ambient = ResidentialAmbient();
  spec.ambient.coupling = 0.55;  // better envelope
  spec.climate = MediterraneanClimate(/*seed=*/211);
  spec.budget_kwh = 25500.0;  // Table II "Energy House"
  spec.mrt_variation = 0.5;
  spec.seed = 11;
  return spec;
}

DatasetSpec DormsSpec() {
  DatasetSpec spec;
  spec.name = "dorms";
  spec.units = 100;  // 50 apartments x 2 split units
  spec.area_m2 = 2000.0;
  // 10 m² dorm rooms: small split units and compact lighting.
  spec.hvac.kw_per_degree = 0.035;
  spec.hvac.rated_power_kw = 1.2;
  spec.hvac.fan_kw = 0.05;
  spec.hvac.deadband_c = 3.0;
  spec.light.max_power_kw = 0.25;
  spec.ambient = ResidentialAmbient();
  spec.ambient.coupling = 0.55;
  spec.climate = MediterraneanClimate(/*seed=*/307);
  spec.budget_kwh = 480000.0;  // Table II "Energy Dorms"
  spec.mrt_variation = 1.0;
  spec.seed = 13;
  return spec;
}

std::vector<DatasetSpec> AllSpecs() {
  return {FlatSpec(), HouseSpec(), DormsSpec()};
}

SimTime EvaluationStart() { return FromCivil(2014, 1, 1); }

int EvaluationHours() {
  // Three full years: 2014-01-01 .. 2016-12-31 (2016 is a leap year).
  return static_cast<int>((FromCivil(2017, 1, 1) - EvaluationStart()) /
                          kSecondsPerHour);
}

HourlyAmbient::HourlyAmbient(SimTime start, int hours, int units)
    : start_(start),
      hours_(hours),
      units_(units),
      temp_(static_cast<size_t>(hours) * static_cast<size_t>(units), 0.0f),
      light_(static_cast<size_t>(hours) * static_cast<size_t>(units), 0.0f) {}

HourlyAmbient BuildHourlyAmbient(const DatasetSpec& spec, SimTime start,
                                 int hours) {
  HourlyAmbient out(start, hours, spec.units);
  weather::SyntheticWeather weather(spec.climate);
  const size_t n = static_cast<size_t>(hours);

  // Per hour, shared by every unit: the noise-free bases (two weather
  // samples and the month's bias) and the blend weight at the midpoint.
  const AmbientModel shared(&weather, spec.ambient, /*unit_seed=*/0);
  std::vector<double> temp_base(n), light_base(n), blend(n);
  for (size_t h = 0; h < n; ++h) {
    const SimTime midpoint =
        out.TimeOfHour(static_cast<int>(h)) + kSecondsPerHour / 2;
    temp_base[h] =
        shared.TempBaseC(weather.At(shared.LaggedTime(midpoint)), midpoint);
    light_base[h] = shared.LightBasePct(weather.At(midpoint));
    blend[h] = AmbientModel::BlendWeight(midpoint);
  }

  // Per unit, one draw per hour boundary: hour h blends draws h and h+1.
  // Midpoints are an hour apart, so hour h's midpoint lies in hour
  // first_hour + h.
  const int64_t first_hour = HourIndex(start + kSecondsPerHour / 2);
  std::vector<double> temp_draw(n + 1), light_draw(n + 1);
  for (int u = 0; u < spec.units; ++u) {
    const AmbientModel model(&weather, spec.ambient,
                             MixHash(spec.seed, static_cast<uint64_t>(u)));
    for (size_t k = 0; k <= n; ++k) {
      const int64_t hour = first_hour + static_cast<int64_t>(k);
      temp_draw[k] = model.BoundaryDraw(AmbientModel::kTempStream, hour);
      light_draw[k] = model.BoundaryDraw(AmbientModel::kLightStream, hour);
    }
    for (size_t h = 0; h < n; ++h) {
      const int hi = static_cast<int>(h);
      out.set_temp(u, hi,
                   static_cast<float>(model.TempC(temp_base[h], blend[h],
                                                  temp_draw[h],
                                                  temp_draw[h + 1])));
      out.set_light(u, hi,
                    static_cast<float>(model.LightPct(light_base[h], blend[h],
                                                      light_draw[h],
                                                      light_draw[h + 1])));
    }
  }
  return out;
}

}  // namespace trace
}  // namespace imcf
