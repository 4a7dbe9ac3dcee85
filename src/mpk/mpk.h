// Intel MPK user-space surface: wrpkru/rdpkru plus a small key allocator
// mirroring the Linux pkey_alloc/pkey_free/pkey_mprotect API. The actual
// permission enforcement happens in the MMU on every access (src/machine/mmu),
// reading the PKRU from the register file and the key from the leaf PTE.
#ifndef MEMSENTRY_SRC_MPK_MPK_H_
#define MEMSENTRY_SRC_MPK_MPK_H_

#include <bitset>
#include <cstdint>

#include "src/base/status.h"
#include "src/base/types.h"
#include "src/machine/page_table.h"
#include "src/machine/registers.h"

namespace memsentry::mpk {

inline constexpr int kNumKeys = 16;  // 4 PTE bits

// wrpkru: writes the 32-bit PKRU. Architecturally requires ecx=edx=0 and
// clobbers nothing, but it is *serializing with respect to memory accesses* —
// the executor charges CostModel::wrpkru when it runs one. Returns the old
// value for convenience.
uint32_t WritePkru(machine::RegisterFile& regs, uint32_t value);
uint32_t ReadPkru(const machine::RegisterFile& regs);

// Kernel-side key management (pkey_alloc / pkey_free / pkey_mprotect).
class KeyAllocator {
 public:
  KeyAllocator() { in_use_.set(0); }  // key 0 is the implicit default domain

  StatusOr<uint8_t> Alloc();
  Status Free(uint8_t key);
  bool InUse(uint8_t key) const { return key < kNumKeys && in_use_.test(key); }

 private:
  std::bitset<kNumKeys> in_use_;
};

// Tags `pages` pages starting at `start` with `key` (pkey_mprotect). The
// caller must flush the relevant TLB entries afterwards, as the kernel does.
Status TagRange(machine::PageTable& pt, VirtAddr start, uint64_t pages, uint8_t key);

// Convenience PKRU masks for a two-domain split: everything except `key`
// accessible (the technique's "closed" state denies both read and write to
// `key`; "write-closed" denies only writes for integrity-only protection).
uint32_t ClosedPkru(uint8_t key, bool deny_reads);
inline constexpr uint32_t kOpenPkru = 0;

}  // namespace memsentry::mpk

#endif  // MEMSENTRY_SRC_MPK_MPK_H_
