#include "serve/tenant_table.h"

#include <utility>

#include "common/rng.h"

namespace imcf {
namespace serve {

namespace {
/// Initial capacity on first insert. Power of two, like every capacity.
constexpr size_t kInitialSlots = 16;
}  // namespace

size_t TenantTable::FindSlot(const TenantId& id) const {
  if (slots_.empty()) return SIZE_MAX;
  const uint64_t hash = ChannelHash(id);
  size_t index = static_cast<size_t>(hash) & mask_;
  size_t distance = 0;
  while (true) {
    const Slot& slot = slots_[index];
    if (!slot.used) return SIZE_MAX;
    // Robin-hood invariant: entries along a probe chain are ordered by
    // their own displacement. Once we have probed further than the
    // resident entry is displaced, the key cannot be further along.
    if (DistanceFromHome(slot.hash, index) < distance) return SIZE_MAX;
    if (slot.hash == hash && slot.key == id) return index;
    index = (index + 1) & mask_;
    ++distance;
  }
}

std::shared_ptr<Tenant> TenantTable::Find(const TenantId& id) const {
  const size_t index = FindSlot(id);
  return index == SIZE_MAX ? nullptr : slots_[index].value;
}

bool TenantTable::Contains(const TenantId& id) const {
  return FindSlot(id) != SIZE_MAX;
}

bool TenantTable::Insert(const TenantId& id, std::shared_ptr<Tenant> value) {
  if (slots_.empty() || (size_ + 1) * 8 > slots_.size() * 7) Grow();
  if (FindSlot(id) != SIZE_MAX) return false;

  Slot incoming;
  incoming.hash = ChannelHash(id);
  incoming.used = true;
  incoming.key = id;
  incoming.value = std::move(value);

  size_t index = static_cast<size_t>(incoming.hash) & mask_;
  size_t distance = 0;
  while (true) {
    Slot& slot = slots_[index];
    if (!slot.used) {
      slots_[index] = std::move(incoming);
      ++size_;
      return true;
    }
    // Steal from the rich: displace a resident entry that is closer to
    // its home than the incoming one is to its own, and carry the
    // displaced entry forward.
    const size_t resident = DistanceFromHome(slot.hash, index);
    if (resident < distance) {
      std::swap(slot, incoming);
      distance = resident;
    }
    index = (index + 1) & mask_;
    ++distance;
  }
}

bool TenantTable::Erase(const TenantId& id) {
  size_t index = FindSlot(id);
  if (index == SIZE_MAX) return false;
  // Backward-shift deletion: slide successors with non-zero displacement
  // one slot back, keeping every probe chain contiguous (no tombstones).
  while (true) {
    const size_t next = (index + 1) & mask_;
    Slot& next_slot = slots_[next];
    if (!next_slot.used || DistanceFromHome(next_slot.hash, next) == 0) {
      slots_[index] = Slot{};
      break;
    }
    slots_[index] = std::move(next_slot);
    index = next;
  }
  --size_;
  return true;
}

void TenantTable::Grow() {
  std::vector<Slot> old = std::move(slots_);
  const size_t new_capacity =
      old.empty() ? kInitialSlots : old.size() * 2;
  slots_.assign(new_capacity, Slot{});
  mask_ = new_capacity - 1;
  size_ = 0;
  for (Slot& slot : old) {
    if (!slot.used) continue;
    // Reinsert along the robin-hood probe; keys are unique by
    // construction, so skip the duplicate check.
    Slot incoming = std::move(slot);
    size_t index = static_cast<size_t>(incoming.hash) & mask_;
    size_t distance = 0;
    while (true) {
      Slot& target = slots_[index];
      if (!target.used) {
        slots_[index] = std::move(incoming);
        ++size_;
        break;
      }
      const size_t resident = DistanceFromHome(target.hash, index);
      if (resident < distance) {
        std::swap(target, incoming);
        distance = resident;
      }
      index = (index + 1) & mask_;
      ++distance;
    }
  }
}

}  // namespace serve
}  // namespace imcf
