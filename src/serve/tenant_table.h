// TenantTable: an open-addressing (robin-hood) hash table mapping
// TenantId -> shared_ptr<Tenant>, the per-shard tenant directory.
//
// The registry previously kept each shard's tenants in a std::map: every
// lookup chased red-black tree nodes and compared full id strings along
// the path — fine for hundreds of tenants, wrong for the ROADMAP's
// millions, where Find() sits on the admission path of every request.
// This table stores (hash, key, value) triples in one flat array probed
// linearly with robin-hood displacement:
//
//   - the probe sequence touches consecutive cache lines, not tree nodes;
//   - the cached 64-bit hash (ChannelHash — FNV-1a + avalanche,
//     platform-stable) filters out almost every non-matching slot before
//     any string comparison;
//   - robin-hood insertion ("steal from the rich") bounds the variance of
//     probe lengths, so worst-case lookups stay short even at high load;
//   - backward-shift deletion keeps probe chains contiguous without
//     tombstones, so a long-lived fleet with churn never degrades.
//
// Capacity is a power of two, grown at 7/8 load. Iteration order is
// unspecified (callers that need determinism sort, exactly as they did
// with std::map — see TenantRegistry::TenantIds).
//
// Not thread-safe: each registry shard guards its table with the shard
// mutex, unchanged from the std::map it replaces.

#ifndef IMCF_SERVE_TENANT_TABLE_H_
#define IMCF_SERVE_TENANT_TABLE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "serve/request.h"

namespace imcf {
namespace serve {

class Tenant;

class TenantTable {
 public:
  TenantTable() = default;

  TenantTable(const TenantTable&) = delete;
  TenantTable& operator=(const TenantTable&) = delete;
  TenantTable(TenantTable&&) = default;
  TenantTable& operator=(TenantTable&&) = default;

  /// The value for `id`, or nullptr when absent.
  std::shared_ptr<Tenant> Find(const TenantId& id) const;

  bool Contains(const TenantId& id) const;

  /// Inserts; returns false (and leaves the table unchanged) when the id
  /// is already present.
  bool Insert(const TenantId& id, std::shared_ptr<Tenant> value);

  /// Removes; returns false when the id was absent.
  bool Erase(const TenantId& id);

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Calls fn(id, value) for every entry, in unspecified order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.used) fn(slot.key, slot.value);
    }
  }

  /// Slots currently allocated (test/introspection surface).
  size_t capacity() const { return slots_.size(); }

 private:
  struct Slot {
    uint64_t hash = 0;
    bool used = false;
    TenantId key;
    std::shared_ptr<Tenant> value;
  };

  /// Probe distance of the entry in `index` from its home slot.
  size_t DistanceFromHome(uint64_t hash, size_t index) const {
    const size_t home = static_cast<size_t>(hash) & mask_;
    return (index - home) & mask_;
  }

  /// Index of `id`'s slot, or SIZE_MAX when absent.
  size_t FindSlot(const TenantId& id) const;

  void Grow();

  std::vector<Slot> slots_;
  size_t mask_ = 0;  ///< slots_.size() - 1 when non-empty
  size_t size_ = 0;
};

}  // namespace serve
}  // namespace imcf

#endif  // IMCF_SERVE_TENANT_TABLE_H_
