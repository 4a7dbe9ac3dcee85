// The MMU ties together page tables, TLB, data cache, protection keys and an
// optional second-level (EPT) translation. Every simulated data access goes
// through Access(); permission and pkey checks are evaluated on every access
// (including TLB hits) exactly as on real hardware, so PKRU updates take
// effect immediately while PTE changes require a TLB invalidation.
#ifndef MEMSENTRY_SRC_MACHINE_MMU_H_
#define MEMSENTRY_SRC_MACHINE_MMU_H_

#include <cstdint>
#include <vector>

#include "src/base/fastpath.h"
#include "src/base/types.h"
#include "src/machine/cache.h"
#include "src/machine/cost_model.h"
#include "src/machine/fault.h"
#include "src/machine/page_table.h"
#include "src/machine/phys_mem.h"
#include "src/machine/registers.h"
#include "src/machine/tlb.h"

namespace memsentry::machine {

// Second-level address translation (implemented by vmx::Ept). Guest-physical
// frames produced by the guest page tables are translated again; pages absent
// from the active EPT raise EPT violations.
class SecondLevelTranslation {
 public:
  virtual ~SecondLevelTranslation() = default;

  // Translates a guest-physical address for the given access type.
  virtual FaultOr<PhysAddr> TranslateGuestPhys(GuestPhysAddr gpa, AccessType access) = 0;

  // Extra page-walk memory touches a nested walk costs on a TLB miss.
  virtual int ExtraWalkLevels() const = 0;

  // Mixed into TLB tags: switching EPTs (vmfunc) must not require a flush,
  // which real hardware achieves with per-EPTP TLB tagging. Non-virtual on
  // purpose — the grant probe reads it on every memory access, so it must
  // stay a plain inline load; implementations publish tag changes through
  // SetAsidTag (vmx does so on every EPT switch).
  uint16_t AsidTag() const { return asid_tag_; }

 protected:
  void SetAsidTag(uint16_t tag) { asid_tag_ = tag; }

 private:
  uint16_t asid_tag_ = 0;
};

struct AccessResult {
  PhysAddr phys = 0;
  Cycles cycles = 0;  // translation cost + exposed data latency
  CacheLevel level = CacheLevel::kL1;
  bool tlb_hit = true;
};

struct MmuStats {
  uint64_t accesses = 0;
  uint64_t faults = 0;
  uint64_t walk_memory_touches = 0;
};

// Hit/miss counters for the translation grant cache (the fast path in front
// of Access()). Observability only: the counters never feed modeled cycles.
struct GrantStats {
  uint64_t hits = 0;
  uint64_t misses = 0;

  double HitRate() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

class Mmu {
 public:
  Mmu(PhysicalMemory* pmem, const CostModel* cost);

  Mmu(const Mmu&) = delete;
  Mmu& operator=(const Mmu&) = delete;

  void SetPageTable(PageTable* pt) {
    page_table_ = pt;
    tlb_.FlushAll();
  }
  PageTable* page_table() const { return page_table_; }

  void SetSecondLevel(SecondLevelTranslation* second) { second_ = second; }
  SecondLevelTranslation* second_level() const { return second_; }

  void SetVpid(uint16_t vpid) { vpid_ = vpid; }

  // Translates + prices one access. `pkru` is the current thread's PKRU.
  // A grant hit is answered inline by GrantHit(); everything that misses
  // falls into the out-of-line slow path. The interpreter hoists the mode
  // lookup out of its dispatch loop and uses the explicit-mode overload;
  // everyone else pays the (relaxed atomic) load per access.
  FaultOr<AccessResult> Access(VirtAddr va, AccessType access, const Pkru& pkru) {
    return Access(va, access, pkru, base::GetFastPathMode());
  }

  FaultOr<AccessResult> Access(VirtAddr va, AccessType access, const Pkru& pkru,
                               base::FastPathMode mode) {
    if (mode == base::FastPathMode::kOff) {
      return AccessSlow(va, access, pkru, /*fill_grant=*/false);
    }
    GrantedAccess granted;
    if (GrantHit(va, access, pkru, mode, &granted)) {
      AccessResult result;
      result.phys = granted.phys;
      result.level = granted.level;
      if (access == AccessType::kRead) {
        result.cycles += cost_->LoadCost(result.level);
      }
      return result;
    }
    ++grant_stats_.misses;
    return AccessSlow(va, access, pkru, /*fill_grant=*/true);
  }

  // What a grant hit resolved: the physical address and the cache level
  // that served it. A read costs cost.LoadCost(level); a write costs 0.
  struct GrantedAccess {
    PhysAddr phys = 0;
    CacheLevel level = CacheLevel::kL1;
  };

  // The grant-hit path of Access() (mode kOn or kCheck), and its only copy.
  // On a hit it replays the slow path's observable effects exactly: the
  // grant hit and access counts, the TLB hit bookkeeping (LRU bump and hit
  // counter), and the stateful data-cache touch that prices the access. It
  // then fills *out and returns true. On a miss it changes nothing and
  // returns false: the caller goes through Access(), which probes again and
  // counts the miss. The interpreter calls this directly on every load and
  // store, so it is forced inline.
  [[gnu::always_inline]] bool GrantHit(VirtAddr va, AccessType access, const Pkru& pkru,
                                       base::FastPathMode mode, GrantedAccess* out) {
    // Non-canonical addresses can never match (grants are only minted for
    // successful accesses), so the probe needs no range check.
    const uint64_t vpn = PageNumber(va);
    Grant& grant = grants_[GrantIndex(vpn, access)];
    if (grant.vpn != vpn || grant.access != static_cast<uint8_t>(access) ||
        grant.pkru != pkru.value || grant.tlb_version != tlb_.version() ||
        grant.asid != EffectiveAsid()) {
      return false;
    }
    if (mode == base::FastPathMode::kCheck) {
      CheckGrant(grant, va, access, pkru);
    }
    ++grant_stats_.hits;
    ++stats_.accesses;
    tlb_.RecordHit(grant.entry);
    out->phys = (grant.pte & kPteFrameMask) | PageOffset(va);
    out->level = dcache_.Access(out->phys);
    return true;
  }

  // Data helpers on top of Access(). 64-bit accesses must not cross a page.
  FaultOr<uint64_t> Read64(VirtAddr va, const Pkru& pkru, Cycles* cycles) {
    return Read64(va, pkru, cycles, base::GetFastPathMode());
  }

  FaultOr<uint64_t> Read64(VirtAddr va, const Pkru& pkru, Cycles* cycles,
                           base::FastPathMode mode) {
    auto access = Access(va, AccessType::kRead, pkru, mode);
    if (!access.ok()) {
      return access.fault();
    }
    if (cycles != nullptr) {
      *cycles += access.value().cycles;
    }
    return pmem_->Read64(access.value().phys);
  }

  FaultOr<bool> Write64(VirtAddr va, uint64_t value, const Pkru& pkru, Cycles* cycles) {
    return Write64(va, value, pkru, cycles, base::GetFastPathMode());
  }

  FaultOr<bool> Write64(VirtAddr va, uint64_t value, const Pkru& pkru, Cycles* cycles,
                        base::FastPathMode mode) {
    auto access = Access(va, AccessType::kWrite, pkru, mode);
    if (!access.ok()) {
      return access.fault();
    }
    if (cycles != nullptr) {
      *cycles += access.value().cycles;
    }
    pmem_->Write64(access.value().phys, value);
    return true;
  }

  // Arbitrary-length buffer access, split at page boundaries.
  FaultOr<bool> ReadBytes(VirtAddr va, void* out, uint64_t size, const Pkru& pkru,
                          Cycles* cycles);
  FaultOr<bool> WriteBytes(VirtAddr va, const void* in, uint64_t size, const Pkru& pkru,
                           Cycles* cycles);

  // TLB maintenance (invlpg / mov cr3).
  void InvalidatePage(VirtAddr va) { tlb_.InvalidatePage(va); }
  void FlushTlb() { tlb_.FlushAll(); }

  // The tag translations are inserted under right now (vpid ⊕ active-EPT
  // tag). Public so fault injection and coherence audits can address the
  // exact TLB entries the current translation mode would hit.
  uint16_t EffectiveAsid() const {
    return static_cast<uint16_t>(vpid_ ^ (second_ != nullptr ? second_->AsidTag() << 8 : 0));
  }

  Tlb& tlb() { return tlb_; }
  CacheHierarchy& dcache() { return dcache_; }
  PhysicalMemory& pmem() { return *pmem_; }
  const MmuStats& stats() const { return stats_; }
  const GrantStats& grant_stats() const { return grant_stats_; }
  void ResetStats() {
    stats_ = MmuStats{};
    grant_stats_ = GrantStats{};
    tlb_.ResetStats();
    dcache_.ResetStats();
  }

 private:
  // One memoized Access() verdict: the cached leaf PTE (frame + permission
  // bits, post-EPT splice) of a prior *successful* access, plus everything
  // that proves the verdict is still current. A grant hits only when
  //   * the (vpn, asid, access-kind) key matches,
  //   * the live PKRU value equals the one the verdict was computed under
  //     (covers wrpkru and direct PKRU desync writes alike: same pte + same
  //     pkru => same permission outcome, matching real hardware's "PKRU
  //     changes need no TLB flush" semantics), and
  //   * the TLB version is unchanged, which proves the slow path's
  //     first-match Lookup would hit `entry` with `pte` exactly as it did
  //     when the grant was minted (every Insert/InvalidatePage/Flush* —
  //     including every FaultInjector site that touches translation state —
  //     bumps the version and thereby drops all grants).
  // A hit replays the slow path's observable effects (see GrantHit) so all
  // modeled results stay bit-identical.
  struct Grant {
    uint64_t vpn = ~uint64_t{0};
    uint64_t pte = 0;
    uint64_t tlb_version = 0;
    Tlb::Entry* entry = nullptr;
    uint32_t pkru = 0;
    uint16_t asid = 0;
    uint8_t access = 0;
  };

  static constexpr uint64_t kGrantSlots = 1024;  // direct-mapped, power of two
  static uint64_t GrantIndex(uint64_t vpn, AccessType access) {
    return (vpn * 3 + static_cast<uint64_t>(access)) & (kGrantSlots - 1);
  }

  // The pre-fast-path Access() body; fills the grant slot on success when
  // `fill_grant` (the fast path is enabled).
  FaultOr<AccessResult> AccessSlow(VirtAddr va, AccessType access, const Pkru& pkru,
                                   bool fill_grant);
  // kCheck lockstep oracle: re-derives the slow path's lookup and permission
  // verdict for a hitting grant and aborts the process on divergence.
  void CheckGrant(const Grant& grant, VirtAddr va, AccessType access, const Pkru& pkru) const;

  PhysicalMemory* pmem_;
  const CostModel* cost_;
  PageTable* page_table_ = nullptr;
  SecondLevelTranslation* second_ = nullptr;
  uint16_t vpid_ = 0;
  Tlb tlb_;
  CacheHierarchy dcache_;
  MmuStats stats_;
  GrantStats grant_stats_;
  std::vector<Grant> grants_ = std::vector<Grant>(kGrantSlots);
};

}  // namespace memsentry::machine

#endif  // MEMSENTRY_SRC_MACHINE_MMU_H_
