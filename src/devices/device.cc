#include "devices/device.h"

#include <algorithm>
#include <set>

#include "common/rng.h"
#include "common/strings.h"

namespace imcf {
namespace devices {

const char* DeviceKindName(DeviceKind kind) {
  switch (kind) {
    case DeviceKind::kHvac:
      return "hvac";
    case DeviceKind::kLight:
      return "light";
  }
  return "?";
}

const char* CommandTypeName(CommandType type) {
  switch (type) {
    case CommandType::kSetTemperature:
      return "Set Temperature";
    case CommandType::kSetLight:
      return "Set Light";
    case CommandType::kTurnOff:
      return "Turn Off";
  }
  return "?";
}

Result<DeviceId> DeviceRegistry::Add(std::string name, DeviceKind kind,
                                     int unit, std::string address) {
  const auto [it, inserted] = ids_by_name_.try_emplace(
      name, static_cast<DeviceId>(things_.size()));
  if (!inserted) {
    return Status::AlreadyExists("device name taken: " + name);
  }
  Thing t;
  t.id = it->second;
  t.name = std::move(name);
  t.channel_hash = ChannelHash("device:", t.name);
  t.kind = kind;
  t.unit = unit;
  t.address = std::move(address);
  things_.push_back(std::move(t));
  return things_.back().id;
}

Result<const Thing*> DeviceRegistry::Get(DeviceId id) const {
  if (id >= things_.size()) {
    return Status::NotFound(StrFormat("no device with id %u", id));
  }
  return &things_[id];
}

Result<const Thing*> DeviceRegistry::FindByName(const std::string& name) const {
  const auto it = ids_by_name_.find(name);
  if (it == ids_by_name_.end()) {
    return Status::NotFound("no device named: " + name);
  }
  return &things_[it->second];
}

Result<DeviceId> DeviceRegistry::FindByUnitAndKind(int unit,
                                                   DeviceKind kind) const {
  for (const Thing& t : things_) {
    if (t.unit == unit && t.kind == kind) return t.id;
  }
  return Status::NotFound(StrFormat("no %s device in unit %d",
                                    DeviceKindName(kind), unit));
}

int DeviceRegistry::UnitCount() const {
  std::set<int> units;
  for (const Thing& t : things_) units.insert(t.unit);
  return static_cast<int>(units.size());
}

}  // namespace devices
}  // namespace imcf
