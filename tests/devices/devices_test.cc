#include "devices/device.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "devices/energy_model.h"

namespace imcf {
namespace devices {
namespace {

TEST(DeviceRegistryTest, AssignsDenseIds) {
  DeviceRegistry registry;
  const auto a = registry.Add("living_room_ac", DeviceKind::kHvac, 0,
                              "192.168.0.5");
  const auto b = registry.Add("living_room_light", DeviceKind::kLight, 0);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, 0u);
  EXPECT_EQ(*b, 1u);
  EXPECT_EQ(registry.size(), 2u);
}

TEST(DeviceRegistryTest, RejectsDuplicateNames) {
  DeviceRegistry registry;
  ASSERT_TRUE(registry.Add("ac", DeviceKind::kHvac, 0).ok());
  EXPECT_TRUE(
      registry.Add("ac", DeviceKind::kLight, 1).status().IsAlreadyExists());
}

TEST(DeviceRegistryTest, TwoHundredDevicesRefuseEveryDuplicate) {
  DeviceRegistry registry;
  std::vector<std::string> names;
  for (int i = 0; i < 200; ++i) {
    names.push_back(StrFormat("unit%02d_%s", i / 2, i % 2 ? "light" : "ac"));
    const DeviceKind kind = i % 2 ? DeviceKind::kLight : DeviceKind::kHvac;
    const auto id = registry.Add(names.back(), kind, i / 2,
                                 StrFormat("10.0.%d.%d", i / 2, 1 + i % 2));
    ASSERT_TRUE(id.ok()) << names.back();
    EXPECT_EQ(*id, static_cast<DeviceId>(i));
  }
  for (const std::string& name : names) {
    const Status refused = registry.Add(name, DeviceKind::kLight, 7).status();
    EXPECT_TRUE(refused.IsAlreadyExists()) << name;
    EXPECT_EQ(refused.message(), "device name taken: " + name);
  }
  ASSERT_EQ(registry.size(), 200u);
  for (size_t i = 0; i < names.size(); ++i) {
    const auto found = registry.FindByName(names[i]);
    ASSERT_TRUE(found.ok()) << names[i];
    EXPECT_EQ((*found)->id, static_cast<DeviceId>(i));
    EXPECT_EQ((*found)->name, names[i]);
  }
  EXPECT_EQ(registry.FindByName("unit100_ac").status().message(),
            "no device named: unit100_ac");
}

TEST(DeviceRegistryTest, LookupById) {
  DeviceRegistry registry;
  const DeviceId id = *registry.Add("ac", DeviceKind::kHvac, 3, "10.0.0.9");
  const auto thing = registry.Get(id);
  ASSERT_TRUE(thing.ok());
  EXPECT_EQ((*thing)->name, "ac");
  EXPECT_EQ((*thing)->unit, 3);
  EXPECT_EQ((*thing)->address, "10.0.0.9");
  EXPECT_TRUE(registry.Get(42).status().IsNotFound());
}

TEST(DeviceRegistryTest, StoresEachDeviceChannelHash) {
  DeviceRegistry registry;
  for (const std::string& name : std::vector<std::string>{
           "unit00_ac", "unit49_light", "", std::string(63, 'x'), "a:b#7"}) {
    ASSERT_TRUE(registry.Add(name, DeviceKind::kLight, 0).ok());
  }
  for (const Thing& thing : registry.things()) {
    EXPECT_EQ(thing.channel_hash, ChannelHash("device:" + thing.name))
        << thing.name;
  }
}

TEST(DeviceRegistryTest, LookupByName) {
  DeviceRegistry registry;
  (void)registry.Add("bedroom_light", DeviceKind::kLight, 1);
  EXPECT_TRUE(registry.FindByName("bedroom_light").ok());
  EXPECT_TRUE(registry.FindByName("nope").status().IsNotFound());
}

TEST(DeviceRegistryTest, FindByUnitAndKind) {
  DeviceRegistry registry;
  (void)registry.Add("u0_ac", DeviceKind::kHvac, 0);
  (void)registry.Add("u0_light", DeviceKind::kLight, 0);
  (void)registry.Add("u1_ac", DeviceKind::kHvac, 1);
  EXPECT_EQ(*registry.FindByUnitAndKind(0, DeviceKind::kLight), 1u);
  EXPECT_EQ(*registry.FindByUnitAndKind(1, DeviceKind::kHvac), 2u);
  EXPECT_TRUE(
      registry.FindByUnitAndKind(1, DeviceKind::kLight).status().IsNotFound());
}

TEST(DeviceRegistryTest, UnitCount) {
  DeviceRegistry registry;
  EXPECT_EQ(registry.UnitCount(), 0);
  (void)registry.Add("a", DeviceKind::kHvac, 0);
  (void)registry.Add("b", DeviceKind::kLight, 0);
  (void)registry.Add("c", DeviceKind::kHvac, 5);
  EXPECT_EQ(registry.UnitCount(), 2);
}

TEST(NamesTest, EnumsHaveStableNames) {
  EXPECT_STREQ(DeviceKindName(DeviceKind::kHvac), "hvac");
  EXPECT_STREQ(DeviceKindName(DeviceKind::kLight), "light");
  EXPECT_STREQ(CommandTypeName(CommandType::kSetTemperature),
               "Set Temperature");
  EXPECT_STREQ(CommandTypeName(CommandType::kSetLight), "Set Light");
  EXPECT_STREQ(CommandTypeName(CommandType::kTurnOff), "Turn Off");
}

TEST(HvacModelTest, FanOnlyInsideDeadband) {
  HvacModelOptions options;
  options.kw_per_degree = 0.1;
  options.fan_kw = 0.05;
  options.deadband_c = 2.0;
  HvacEnergyModel model(options);
  EXPECT_DOUBLE_EQ(model.PowerKw(22.0, 22.0), 0.05);
  EXPECT_DOUBLE_EQ(model.PowerKw(22.0, 20.5), 0.05);   // gap 1.5 < deadband
  EXPECT_DOUBLE_EQ(model.PowerKw(22.0, 19.5), 0.30);   // gap 2.5: fan + comp
}

TEST(HvacModelTest, SymmetricHeatingCooling) {
  HvacEnergyModel model;
  EXPECT_DOUBLE_EQ(model.PowerKw(22.0, 16.0), model.PowerKw(22.0, 28.0));
}

TEST(HvacModelTest, PowerGrowsWithGap) {
  HvacEnergyModel model;
  double prev = 0.0;
  for (double gap = 1.0; gap <= 15.0; gap += 1.0) {
    const double p = model.PowerKw(22.0, 22.0 - gap);
    EXPECT_GE(p, prev);
    prev = p;
  }
}

TEST(HvacModelTest, CompressorCappedAtRatedPower) {
  HvacModelOptions options;
  options.kw_per_degree = 0.5;
  options.rated_power_kw = 2.0;
  options.fan_kw = 0.1;
  HvacEnergyModel model(options);
  // Gap 10 would want 5 kW; cap at 2.0 plus fan.
  EXPECT_DOUBLE_EQ(model.PowerKw(25.0, 15.0), 2.1);
}

TEST(HvacModelTest, EnergyScalesWithHours) {
  HvacEnergyModel model;
  const double p = model.PowerKw(24.0, 14.0);
  EXPECT_DOUBLE_EQ(model.EnergyKwh(24.0, 14.0, 3.0), 3.0 * p);
  EXPECT_DOUBLE_EQ(model.EnergyKwh(24.0, 14.0, 0.0), 0.0);
}

TEST(LightModelTest, LinearInIntensity) {
  LightModelOptions options;
  options.max_power_kw = 0.6;
  LightEnergyModel model(options);
  EXPECT_DOUBLE_EQ(model.PowerKw(0.0), 0.0);
  EXPECT_DOUBLE_EQ(model.PowerKw(50.0), 0.3);
  EXPECT_DOUBLE_EQ(model.PowerKw(100.0), 0.6);
}

TEST(LightModelTest, ClampsIntensity) {
  LightEnergyModel model;
  EXPECT_DOUBLE_EQ(model.PowerKw(-10.0), 0.0);
  EXPECT_DOUBLE_EQ(model.PowerKw(150.0), model.PowerKw(100.0));
}

TEST(UnitModelsTest, CommandEnergyDispatch) {
  UnitEnergyModels models;
  models.hvac = HvacEnergyModel();
  models.light = LightEnergyModel();
  const double hvac_energy = models.CommandEnergyKwh(
      CommandType::kSetTemperature, 25.0, 15.0, 1.0);
  EXPECT_GT(hvac_energy, 0.0);
  const double light_energy =
      models.CommandEnergyKwh(CommandType::kSetLight, 40.0, 0.0, 2.0);
  EXPECT_DOUBLE_EQ(light_energy, 2.0 * models.light.PowerKw(40.0));
  EXPECT_DOUBLE_EQ(
      models.CommandEnergyKwh(CommandType::kTurnOff, 0.0, 15.0, 1.0), 0.0);
}

// Parameterised sweep: the paper's DoE rule of thumb — each extra degree of
// setpoint-ambient gap costs roughly a constant increment.
class HvacLinearity : public ::testing::TestWithParam<double> {};

TEST_P(HvacLinearity, MarginalCostPerDegreeConstant) {
  HvacEnergyModel model;
  const double gap = GetParam();
  const double p1 = model.PowerKw(22.0, 22.0 - gap);
  const double p2 = model.PowerKw(22.0, 22.0 - gap - 1.0);
  EXPECT_NEAR(p2 - p1, model.options().kw_per_degree, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Gaps, HvacLinearity,
                         ::testing::Values(1.0, 3.0, 5.0, 8.0, 12.0));

}  // namespace
}  // namespace devices
}  // namespace imcf
