// A tiny kernel for simulated processes: the syscall surface the isolation
// techniques and defenses interact with — mmap/munmap/mprotect (the slow
// baseline's toggle path), pkey_alloc/pkey_free/pkey_mprotect (the Linux MPK
// API), brk-style heap growth, and a write-like sink. Installed as the
// process's syscall handler; under Dune the same calls arrive as hypercalls,
// exactly as the paper's modified Dune forwards them.
#ifndef MEMSENTRY_SRC_SIM_KERNEL_H_
#define MEMSENTRY_SRC_SIM_KERNEL_H_

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/mpk/mpk.h"
#include "src/sim/process.h"

namespace memsentry::sim {

// Syscall numbers (stable ABI for simulated programs).
enum class Sysno : uint64_t {
  kNop = 0,
  kWrite = 1,         // a0 = value to "write"; returns bytes (8)
  kMmap = 9,          // a0 = hint (0 = kernel chooses), a1 = length; returns base
  kMprotect = 10,     // a0 = page-aligned addr, a1 = prot (kProtNone/kProtRw)
  kMunmap = 11,       // a0 = addr, a1 = length
  kBrk = 12,          // a0 = new break (0 = query); returns break
  kPkeyMprotect = 329,  // a0 = addr, a1 = packed(len_pages << 8 | pkey)
  kPkeyAlloc = 330,   // returns key or -errno
  kPkeyFree = 331,    // a0 = key
};

inline constexpr uint64_t kProtNone = 0;
inline constexpr uint64_t kProtRw = 3;
// Executable protections (prot bit 2, as in PROT_EXEC). The mmap-policy
// defense (src/defenses/mmap_policy.h) exists to police transitions into
// these states; the kernel itself applies them verbatim.
inline constexpr uint64_t kProtExec = 4;
inline constexpr uint64_t kProtRx = 5;
inline constexpr uint64_t kProtRwx = 7;

// Base of the kernel-chosen mmap area (between heap and stack). Exposed so
// mmap-policy layers can randomize placements within the same area.
inline constexpr VirtAddr kMmapAreaBase = 0x240000000000ULL;  // 36 TiB

// Raw-syscall error convention: failures return -errno as an unsigned 64-bit
// value, exactly like the Linux syscall ABI before libc's errno translation.
// Anything in the top 4096 values of the space is an error.
enum class Errno : uint64_t {
  kEPERM = 1,
  kENOMEM = 12,
  kEACCES = 13,
  kEBUSY = 16,
  kEEXIST = 17,
  kEINVAL = 22,
  kENOSPC = 28,
  kENOSYS = 38,
};

const char* ErrnoName(Errno err);

// An installed mmap-policy layer (e.g. defenses::MmapPolicy). Consulted by
// the kernel on the memory-management syscalls. Like the syscall handler, it
// is session state: never owned by the kernel.
class MmapPolicyHook {
 public:
  virtual ~MmapPolicyHook() = default;

  // Runs before kMmap/kMprotect/kMunmap execute. Returning an errno refuses
  // the call without mutating anything; nullopt lets it proceed.
  virtual std::optional<Errno> FilterSyscall(Sysno nr, uint64_t a0, uint64_t a1) = 0;

  // Placement override for hint==0 mmaps (ASLR entropy enforcement).
  // nullopt falls back to the kernel's linear cursor.
  virtual std::optional<VirtAddr> ChoosePlacement(uint64_t pages) = 0;

  // Runs after kMmap successfully maps [base, base + pages) — the
  // poison-on-alloc hook.
  virtual void OnMapped(VirtAddr base, uint64_t pages) = 0;
};

inline constexpr uint64_t SysErr(Errno err) {
  return static_cast<uint64_t>(-static_cast<int64_t>(static_cast<uint64_t>(err)));
}
inline constexpr bool IsSysError(uint64_t rv) { return rv > ~uint64_t{4095}; }
// Only meaningful when IsSysError(rv).
inline constexpr Errno SysErrnoOf(uint64_t rv) { return static_cast<Errno>(~rv + 1); }

class Kernel {
 public:
  explicit Kernel(Process* process);

  // Installs the syscall handler on the process.
  void Install();

  uint64_t Dispatch(uint64_t nr, uint64_t a0, uint64_t a1);

  // Attaches/detaches the mmap-policy layer (nullptr detaches). Session
  // state, like the syscall handler: not owned, not serialized.
  void SetMmapPolicy(MmapPolicyHook* policy) { policy_ = policy; }
  MmapPolicyHook* mmap_policy() const { return policy_; }

  // Fault injection: arms the next `count` calls of syscall `nr` to fail
  // with -err before executing (the campaign engine's ENOMEM/ENOSPC/EACCES
  // sites). Deterministic: fires on dispatch order, never on wall clock.
  void InjectSyscallFailure(Sysno nr, Errno err, int count = 1);
  uint64_t injected_failures() const { return injected_failures_; }

  // Scheduler integration: the scheduler announces which tenant (ASID) is on
  // the CPU before running its timeslice, so syscall accounting can be
  // attributed per tenant. ASID 0 is "kernel/no tenant" and is the default.
  void SetCurrentAsid(uint16_t asid) { current_asid_ = asid; }
  uint16_t current_asid() const { return current_asid_; }
  // Syscalls dispatched while `asid` was current (0 for never-seen ASIDs).
  uint64_t asid_syscalls(uint16_t asid) const {
    return asid < asid_syscalls_.size() ? asid_syscalls_[asid] : 0;
  }
  uint64_t total_syscalls() const { return total_syscalls_; }

  // Bookkeeping the tests inspect.
  uint64_t mmap_calls() const { return mmap_calls_; }
  uint64_t mprotect_calls() const { return mprotect_calls_; }
  uint64_t write_sink() const { return write_sink_; }
  VirtAddr current_brk() const { return brk_; }
  mpk::KeyAllocator& key_allocator() { return keys_; }
  // Pages currently tagged with `key` via pkey_mprotect (pkey_free of a key
  // with a nonzero count is refused with EBUSY — stricter than Linux, which
  // silently leaves stale tags behind; the simulator treats that as a bug).
  uint64_t tagged_pages(uint8_t key) const {
    return key < mpk::kNumKeys ? tag_counts_[key] : 0;
  }

 private:
  uint64_t DoMmap(VirtAddr hint, uint64_t length);
  uint64_t DoMprotect(VirtAddr addr, uint64_t prot);
  uint64_t DoMunmap(VirtAddr addr, uint64_t length);
  uint64_t DoBrk(VirtAddr new_brk);
  uint64_t DoPkeyMprotect(VirtAddr addr, uint64_t packed);
  uint64_t DoPkeyFree(uint8_t key);

  // Returns true (and the armed errno) when an injected failure consumes
  // this dispatch of `nr`.
  bool ConsumeInjected(uint64_t nr, Errno* err);

  struct ArmedFailure {
    uint64_t nr = 0;
    Errno err = Errno::kEINVAL;
    int remaining = 0;
  };

  Process* process_;
  MmapPolicyHook* policy_ = nullptr;
  mpk::KeyAllocator keys_;
  VirtAddr mmap_cursor_;  // kernel-chosen placements grow up from here
  VirtAddr brk_;
  uint64_t mmap_calls_ = 0;
  uint64_t mprotect_calls_ = 0;
  uint64_t write_sink_ = 0;
  uint64_t injected_failures_ = 0;
  std::array<uint64_t, mpk::kNumKeys> tag_counts_{};
  std::vector<ArmedFailure> armed_;
  uint16_t current_asid_ = 0;
  uint64_t total_syscalls_ = 0;
  std::vector<uint64_t> asid_syscalls_;  // grown on demand, indexed by ASID
};

}  // namespace memsentry::sim

#endif  // MEMSENTRY_SRC_SIM_KERNEL_H_
