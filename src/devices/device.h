// Thing (device) model and registry.
//
// Mirrors openHAB's vocabulary, which the paper's Local Controller extends:
// a *Thing* is a physical IoT device reachable at a network address, exposing
// channels the controller actuates (an A/C split unit's power/setpoint, a
// luminaire's dimmer). Buildings are organised into *units* (a flat, one
// quarter of the house, one dorm apartment room) so that replicated datasets
// (House = flat x4, Dorms = 50 apartments) keep a device-per-unit structure.

#ifndef IMCF_DEVICES_DEVICE_H_
#define IMCF_DEVICES_DEVICE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/time.h"

namespace imcf {
namespace devices {

/// Dense device identifier assigned by the registry.
using DeviceId = uint32_t;

/// Kinds of actuatable devices IMCF manages in the evaluation.
enum class DeviceKind : uint8_t {
  kHvac = 0,   ///< heating/cooling split unit (Set Temperature)
  kLight = 1,  ///< dimmable luminaire (Set Light, 0-100%)
};

const char* DeviceKindName(DeviceKind kind);

/// A registered device.
struct Thing {
  DeviceId id = 0;
  std::string name;        ///< e.g. "living_room_ac"
  DeviceKind kind = DeviceKind::kHvac;
  int unit = 0;            ///< building unit (apartment / zone) index
  std::string address;     ///< e.g. "192.168.0.5" (used by the firewall)
  /// ChannelHash("device:" + name), stored at registration so the command
  /// bus's fault channel costs no string hash per delivery.
  uint64_t channel_hash = 0;
};

/// Registry of all Things in a smart space. Ids are dense and stable, so
/// per-device state can live in flat vectors.
class DeviceRegistry {
 public:
  /// Registers a device; returns its assigned id. Names must be unique.
  Result<DeviceId> Add(std::string name, DeviceKind kind, int unit,
                       std::string address = "");

  /// Looks up a device by id.
  Result<const Thing*> Get(DeviceId id) const;

  /// Looks up a device by name.
  Result<const Thing*> FindByName(const std::string& name) const;

  /// The device of `kind` in `unit`, if any (each unit has at most one HVAC
  /// and one light in the evaluation datasets).
  Result<DeviceId> FindByUnitAndKind(int unit, DeviceKind kind) const;

  const std::vector<Thing>& things() const { return things_; }
  size_t size() const { return things_.size(); }

  /// Number of distinct units that have at least one device.
  int UnitCount() const;

 private:
  std::vector<Thing> things_;
  /// Name -> id of every registered Thing (duplicate checks, FindByName).
  std::unordered_map<std::string, DeviceId> ids_by_name_;
};

/// Command types a meta-rule or IFTTT recipe can issue (Table II/III
/// "Action" column).
enum class CommandType : uint8_t {
  kSetTemperature = 0,  ///< HVAC setpoint in °C
  kSetLight = 1,        ///< light intensity in [0, 100]
  kTurnOff = 2,         ///< stop actuating (device falls back to ambient)
};

const char* CommandTypeName(CommandType type);

/// One actuation request flowing from the rule layer through the firewall to
/// a device.
struct ActuationCommand {
  DeviceId device = 0;
  CommandType type = CommandType::kSetTemperature;
  double value = 0.0;
  int rule_id = -1;       ///< originating meta-rule (-1: manual / IFTTT)
  SimTime time = 0;       ///< issue time
  std::string source;     ///< "mrt", "ifttt", "manual", ...
};

}  // namespace devices
}  // namespace imcf

#endif  // IMCF_DEVICES_DEVICE_H_
