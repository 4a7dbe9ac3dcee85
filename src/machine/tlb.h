// Set-associative TLB with LRU replacement and VPID-style tags. Cached
// entries retain the leaf PTE so permission and protection-key checks are
// still evaluated on hits (as on real hardware: PKRU changes take effect
// without a TLB flush; PTE permission changes require one).
#ifndef MEMSENTRY_SRC_MACHINE_TLB_H_
#define MEMSENTRY_SRC_MACHINE_TLB_H_

#include <array>
#include <cstdint>
#include <optional>

#include "src/base/status.h"
#include "src/base/types.h"

namespace memsentry::machine {

struct TlbStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t flushes = 0;

  double HitRate() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

class Tlb {
 public:
  static constexpr int kSets = 64;
  static constexpr int kWays = 8;

  struct Entry {
    bool valid = false;
    uint16_t vpid = 0;
    uint64_t vpn = 0;   // virtual page number
    uint64_t pte = 0;   // cached leaf PTE (frame + permission bits + pkey)
    uint64_t lru = 0;   // higher == more recently used
  };

  // Looks up a virtual page; bumps LRU and stats on hit.
  std::optional<uint64_t> Lookup(VirtAddr virt, uint16_t vpid);
  // Like Lookup, but exposes the entry that served the hit (first match in
  // way order) so the MMU grant cache can replay the exact hit bookkeeping.
  Entry* LookupEntry(VirtAddr virt, uint16_t vpid);
  // Non-perturbing lookup for coherence audits: no LRU bump, no stats.
  std::optional<uint64_t> Peek(VirtAddr virt, uint16_t vpid) const;
  // Non-perturbing entry lookup (first match in way order, as Lookup would
  // find it); used by the fast-path differential oracle.
  const Entry* PeekEntry(VirtAddr virt, uint16_t vpid) const;
  Entry* Insert(VirtAddr virt, uint16_t vpid, uint64_t pte);
  // Invalidates one page across all VPIDs (invlpg).
  void InvalidatePage(VirtAddr virt);
  // Flushes everything (mov cr3 without PCID) or one VPID.
  void FlushVpid(uint16_t vpid);
  void FlushAll();

  // Replays exactly what Lookup does on a hit of `entry`. The grant cache
  // calls this instead of re-scanning the set, keeping LRU order and hit
  // counts bit-identical to the reference path.
  void RecordHit(Entry* entry) {
    entry->lru = ++tick_;
    ++stats_.hits;
  }

  // Monotonic mutation counter: bumped by every Insert, InvalidatePage,
  // FlushAll and FlushVpid. Version equality proves the TLB arrays are
  // unchanged since a grant was minted, so the slow path's first-match
  // Lookup would still land on the same entry with the same PTE — the
  // coherence invariant behind the MMU grant cache. Stats resets and LRU
  // bumps deliberately do not count: they never change which entry a
  // lookup matches.
  uint64_t version() const { return version_; }

  const TlbStats& stats() const { return stats_; }
  void ResetStats() { stats_ = TlbStats{}; }

  // Non-perturbing occupancy scans for multi-tenant experiments: how many
  // valid entries a given address space holds, and how many distinct address
  // spaces are resident. No LRU bumps, no stats, no version change — safe to
  // call mid-run without breaking bit-identity.
  int OccupancyForVpid(uint16_t vpid) const;
  int CountResidentVpids() const;

 private:
  static int SetIndex(uint64_t vpn) { return static_cast<int>(vpn & (kSets - 1)); }

  std::array<std::array<Entry, kWays>, kSets> sets_{};
  uint64_t tick_ = 0;
  uint64_t version_ = 0;
  TlbStats stats_;
};

}  // namespace memsentry::machine

#endif  // MEMSENTRY_SRC_MACHINE_TLB_H_
