// A simulated process: guest page table, MMU state, register file, memory
// layout, optional Dune virtualization, optional SGX enclave, and the
// registry of safe regions that the isolation techniques configure.
#ifndef MEMSENTRY_SRC_SIM_PROCESS_H_
#define MEMSENTRY_SRC_SIM_PROCESS_H_

#include <array>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/aes/aes128.h"
#include "src/base/fastpath.h"
#include "src/base/status.h"
#include "src/base/types.h"
#include "src/dune/dune.h"
#include "src/machine/mmu.h"
#include "src/machine/page_table.h"
#include "src/machine/registers.h"
#include "src/sgx/enclave.h"
#include "src/sim/machine.h"

namespace memsentry::sim {

// Canonical layout for simulated programs. Everything the program touches in
// normal operation sits below the 64 TiB partition split; safe regions for
// address-based techniques sit above it (paper Section 5.4).
inline constexpr VirtAddr kWorkingSetBase = 0x100000000000ULL;   // 16 TiB
inline constexpr VirtAddr kHeapBase = 0x200000000000ULL;         // 32 TiB
inline constexpr VirtAddr kStackTop = 0x300000000000ULL;         // 48 TiB (grows down)
inline constexpr VirtAddr kTableBase = 0x280000000000ULL;        // 40 TiB (dispatch tables)
inline constexpr VirtAddr kSafeRegionBase = 0x480000000000ULL;   // 72 TiB (sensitive side)

// Host-only memo of a crypt region's AES-CTR keystream, together with the
// exact schedule and nonce it was generated from (see Process::CryptToggle).
// Never serialized.
struct CryptKeystream {
  aes::KeySchedule keys{};
  uint64_t nonce = 0;
  std::vector<uint8_t> bytes;  // the keystream's first bytes.size() bytes
};

// A registered safe region plus per-technique state.
struct SafeRegion {
  std::string name;
  VirtAddr base = 0;
  uint64_t size = 0;

  uint8_t pkey = 0;       // MPK: protection key tagging the region's pages
  int ept_index = -1;     // VMFUNC: EPT that privately maps the region
  bool crypt = false;     // crypt: encrypted at rest
  bool encrypted_now = false;
  uint64_t nonce = 0;
  aes::KeySchedule enc_keys{};  // conceptually parked in ymm8..15 upper halves
  uint64_t enc_key_digest = 0;  // FNV of enc_keys+nonce at Prepare; audits compare
  bool mprotected = false;      // mprotect baseline: currently inaccessible
  // Host-only, allocated at the first toggle that reuses keystreams.
  std::unique_ptr<CryptKeystream> keystream;

  bool Contains(VirtAddr a) const { return a >= base && a < base + size; }
};

class Process {
 public:
  explicit Process(Machine* machine);

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  // Switches the process into a Dune VM. Must be called before any mapping;
  // all subsequent mappings go through guest-physical memory and the EPTs.
  Status EnableDune();
  bool dune_enabled() const { return dune_ != nullptr; }
  dune::DuneVm* dune() { return dune_.get(); }

  // Maps `pages` fresh zeroed pages at `base`. Fails with AlreadyExists,
  // changing nothing, when any page in the range is already mapped.
  Status MapRange(VirtAddr base, uint64_t pages, machine::PageFlags flags);
  Status Unmap(VirtAddr base, uint64_t pages);
  bool IsMapped(VirtAddr va) const { return page_table_.IsMapped(PageAlignDown(va)); }

  // Mapped-range bookkeeping (what the kernel's VMA list would know). The
  // allocation-oracle attack exercises mmap-style placement against this.
  struct Mapping {
    VirtAddr base = 0;
    uint64_t pages = 0;
  };
  const std::vector<Mapping>& mappings() const { return mappings_; }
  // Lowest free run of `pages` pages within [lo, hi), mmap-bottom-up style.
  std::optional<VirtAddr> FindFreeRun(VirtAddr lo, VirtAddr hi, uint64_t pages) const;
  // mmap-style reservation: inserts a VMA without populating page tables
  // (as real mmap does; our simulated programs never demand-fault it). The
  // allocation-oracle attack uses this for its huge probe fills.
  Status ReserveRange(VirtAddr base, uint64_t pages);
  Status ReleaseRange(VirtAddr base, uint64_t pages);

  // Sets up the default stack and maps it.
  Status SetupStack(uint64_t pages = 64);

  // --- Safe regions ---
  // Stored in a deque so the SafeRegion*/SafeRegion& handles we give out
  // (AddSafeRegion, FindSafeRegion, SafeRegionAllocator::Alloc) stay valid
  // when later regions are added.
  //
  // Lookup is on the interpreter's hottest path (every recorded load/store
  // consults InSafeRegion), so it goes through a base-sorted index with a
  // one-entry last-hit cache instead of a linear scan. Regions must be
  // disjoint (SafeRegionAllocator carves non-overlapping ranges); bases are
  // fixed at AddSafeRegion time, while sizes may grow afterwards (the crypt
  // size sweep does) — the index only orders by base and reads sizes live,
  // so size mutation stays safe.
  SafeRegion& AddSafeRegion(const std::string& name, VirtAddr base, uint64_t size);
  std::deque<SafeRegion>& safe_regions() { return safe_regions_; }
  const std::deque<SafeRegion>& safe_regions() const { return safe_regions_; }
  SafeRegion* FindSafeRegion(VirtAddr base);
  bool InSafeRegion(VirtAddr va) const { return LookupSafeRegion(va) != nullptr; }

  // --- Raw (setup/debug) access, bypassing every protection ---
  StatusOr<PhysAddr> TranslateRaw(VirtAddr va) const;
  StatusOr<uint64_t> Peek64(VirtAddr va) const;
  Status Poke64(VirtAddr va, uint64_t value);
  Status PokeBytes(VirtAddr va, const void* data, uint64_t size);
  Status PeekBytes(VirtAddr va, void* out, uint64_t size) const;

  // The crypt technique's domain switch: XORs the first `size` bytes of
  // `region` with its AES-CTR keystream (one op both encrypts and decrypts)
  // and flips region.encrypted_now. Every page is translated before any byte
  // changes, so an unmapped page returns its error with the region intact.
  // kOff computes fresh AES through a staging copy (the reference path).
  // kOn XORs in place from the region's keystream memo, reused only when its
  // schedule and nonce equal the region's live ones in full and it is at
  // least `size` bytes long; anything else (a clobbered round key, a new
  // nonce, a longer toggle) regenerates it. kCheck also recomputes a reused keystream and aborts, naming the
  // region, on divergence.
  Status CryptToggle(SafeRegion& region, uint64_t size) {
    return CryptToggle(region, size, base::GetFastPathMode());
  }
  Status CryptToggle(SafeRegion& region, uint64_t size, base::FastPathMode mode);

  // --- Accessors ---
  Machine& machine() { return *machine_; }
  const Machine& machine() const { return *machine_; }
  machine::Mmu& mmu() { return mmu_; }
  machine::PageTable& page_table() { return page_table_; }
  machine::RegisterFile& regs() { return regs_; }
  const machine::RegisterFile& regs() const { return regs_; }

  void SetEnclave(std::unique_ptr<sgx::Enclave> enclave) { enclave_ = std::move(enclave); }
  sgx::Enclave* enclave() { return enclave_.get(); }

  // crypt technique: reserving ymm upper halves slows vector-heavy code.
  void SetYmmReserved(bool reserved) { ymm_reserved_ = reserved; }
  bool ymm_reserved() const { return ymm_reserved_; }

  // MPX: the in-memory bound-table value bndN reloads from after a legacy
  // branch reset bound registers (BNDPRESERVE off). Set by MpxTechnique.
  void SetBndReload(int reg, const machine::BoundRegister& bounds) {
    bnd_reload_[reg] = bounds;
  }
  const std::optional<machine::BoundRegister>& bnd_reload(int reg) const {
    return bnd_reload_[reg];
  }

  using SyscallHandler = std::function<uint64_t(uint64_t nr, uint64_t a0, uint64_t a1)>;
  void SetSyscallHandler(SyscallHandler handler) { syscall_ = std::move(handler); }
  uint64_t DispatchSyscall(uint64_t nr, uint64_t a0, uint64_t a1);

 private:
  // Binary search over the base-sorted index (last-hit cache first); exact
  // under the disjoint-regions invariant documented at AddSafeRegion.
  SafeRegion* LookupSafeRegion(VirtAddr va) const;

  Machine* machine_;
  machine::PageTable page_table_;
  machine::Mmu mmu_;
  machine::RegisterFile regs_;
  std::unique_ptr<dune::DuneVm> dune_;
  std::unique_ptr<sgx::Enclave> enclave_;
  std::deque<SafeRegion> safe_regions_;
  // Pointers into safe_regions_ (deque ⇒ stable), ordered by base.
  std::vector<SafeRegion*> region_index_;
  mutable SafeRegion* last_region_hit_ = nullptr;
  bool ymm_reserved_ = false;
  std::array<std::optional<machine::BoundRegister>, machine::kNumBnds> bnd_reload_{};
  SyscallHandler syscall_;
  std::vector<Mapping> mappings_;
};

}  // namespace memsentry::sim

#endif  // MEMSENTRY_SRC_SIM_PROCESS_H_
