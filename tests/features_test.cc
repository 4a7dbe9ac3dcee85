// Tests for the per-feature substrates: MPX, MPK, SGX, VMX/EPT, Dune.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "src/dune/dune.h"
#include "src/machine/phys_mem.h"
#include "src/mpk/mpk.h"
#include "src/mpx/mpx.h"
#include "src/sgx/enclave.h"
#include "src/sim/process.h"
#include "src/vmx/ept.h"

namespace memsentry {
namespace {

using machine::AccessType;
using machine::FaultType;

// ---- MPX ----

TEST(MpxTest, SingleUpperBoundCheck) {
  const auto bnd = mpx::MakeBounds(0, kPartitionSplit);
  EXPECT_FALSE(mpx::CheckUpper(bnd, 0).has_value());
  EXPECT_FALSE(mpx::CheckUpper(bnd, kPartitionSplit - 1).has_value());
  auto fault = mpx::CheckUpper(bnd, kPartitionSplit);
  ASSERT_TRUE(fault.has_value());
  EXPECT_EQ(fault->type, FaultType::kBoundRange);
}

TEST(MpxTest, LowerBoundCheck) {
  const auto bnd = mpx::MakeBounds(0x1000, 0x1000);
  EXPECT_TRUE(mpx::CheckLower(bnd, 0xfff).has_value());
  EXPECT_FALSE(mpx::CheckLower(bnd, 0x1000).has_value());
}

TEST(MpxTest, InitStatePermitsEverything) {
  machine::BoundRegister init;
  EXPECT_FALSE(mpx::CheckUpper(init, ~uint64_t{0}).has_value());
  EXPECT_FALSE(mpx::CheckLower(init, 0).has_value());
}

TEST(MpxTest, BndPreserveControlsLegacyBranchReset) {
  machine::RegisterFile regs;
  regs.bnd[0] = mpx::MakeBounds(0, kPartitionSplit);
  regs.bnd_preserve = true;
  EXPECT_FALSE(mpx::OnLegacyBranch(regs));
  EXPECT_EQ(regs.bnd[0].upper, kPartitionSplit - 1);
  regs.bnd_preserve = false;
  EXPECT_TRUE(mpx::OnLegacyBranch(regs));
  EXPECT_EQ(regs.bnd[0].upper, ~uint64_t{0});  // INIT
}

TEST(MpxTest, BoundTableSpill) {
  mpx::BoundTable table;
  EXPECT_FALSE(table.Load(0x1000).has_value());
  table.Store(0x1000, mpx::MakeBounds(0x2000, 0x100));
  auto loaded = table.Load(0x1000);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->lower, 0x2000u);
  EXPECT_EQ(loaded->upper, 0x20ffu);
}

// ---- MPK ----

TEST(MpkTest, PkruBitLayout) {
  machine::Pkru pkru;
  pkru.SetAccessDisable(3, true);
  pkru.SetWriteDisable(5, true);
  EXPECT_EQ(pkru.value, (1u << 6) | (1u << 11));
  EXPECT_TRUE(pkru.AccessDisabled(3));
  EXPECT_FALSE(pkru.AccessDisabled(5));
  EXPECT_TRUE(pkru.WriteDisabled(5));
  pkru.SetAccessDisable(3, false);
  EXPECT_EQ(pkru.value, 1u << 11);
}

TEST(MpkTest, KeyAllocatorSkipsKeyZeroAndExhausts) {
  mpk::KeyAllocator alloc;
  for (int i = 1; i < mpk::kNumKeys; ++i) {
    auto key = alloc.Alloc();
    ASSERT_TRUE(key.ok());
    EXPECT_EQ(key.value(), i);
  }
  EXPECT_FALSE(alloc.Alloc().ok());
  ASSERT_TRUE(alloc.Free(7).ok());
  auto again = alloc.Alloc();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value(), 7);
}

TEST(MpkTest, FreeRejectsKeyZeroAndUnallocated) {
  mpk::KeyAllocator alloc;
  EXPECT_FALSE(alloc.Free(0).ok());
  EXPECT_FALSE(alloc.Free(9).ok());
}

TEST(MpkTest, WritePkruReturnsOldValue) {
  machine::RegisterFile regs;
  EXPECT_EQ(mpk::WritePkru(regs, 0xc), 0u);
  EXPECT_EQ(mpk::ReadPkru(regs), 0xcu);
  EXPECT_EQ(mpk::WritePkru(regs, 0), 0xcu);
}

TEST(MpkTest, ClosedPkruModes) {
  // Integrity only: reads stay possible.
  machine::Pkru integrity{mpk::ClosedPkru(2, /*deny_reads=*/false)};
  EXPECT_FALSE(integrity.AccessDisabled(2));
  EXPECT_TRUE(integrity.WriteDisabled(2));
  machine::Pkru confidential{mpk::ClosedPkru(2, /*deny_reads=*/true)};
  EXPECT_TRUE(confidential.AccessDisabled(2));
}

// ---- SGX ----

TEST(SgxTest, LifecycleEnforced) {
  sgx::Enclave enclave(0x10000, 4);
  EXPECT_FALSE(enclave.Finalize().ok());  // no pages yet
  ASSERT_TRUE(enclave.AddPage(0x10000).ok());
  ASSERT_TRUE(enclave.AddPage(0x11000).ok());
  EXPECT_FALSE(enclave.AddPage(0x10000).ok());  // duplicate
  EXPECT_FALSE(enclave.AddPage(0x15000).ok());  // outside reservation
  ASSERT_TRUE(enclave.RegisterEntry(0, 0x10000).ok());
  ASSERT_TRUE(enclave.Finalize().ok());
  EXPECT_FALSE(enclave.AddPage(0x12000).ok());  // SGX1: fixed after EINIT
  EXPECT_FALSE(enclave.Finalize().ok());
}

TEST(SgxTest, AccessRules) {
  sgx::Enclave enclave(0x10000, 4);
  ASSERT_TRUE(enclave.AddPage(0x10000).ok());
  ASSERT_TRUE(enclave.RegisterEntry(1, 0x10080).ok());
  ASSERT_TRUE(enclave.Finalize().ok());
  EXPECT_FALSE(enclave.AccessAllowed(0x10008));  // outside -> enclave page blocked
  EXPECT_TRUE(enclave.AccessAllowed(0x99000));   // non-enclave memory fine
  auto target = enclave.Enter(1);
  ASSERT_TRUE(target.ok());
  EXPECT_EQ(target.value(), 0x10080u);
  EXPECT_TRUE(enclave.AccessAllowed(0x10008));  // inside -> allowed
  ASSERT_TRUE(enclave.Exit().ok());
  EXPECT_FALSE(enclave.AccessAllowed(0x10008));
}

TEST(SgxTest, InvalidTransitionsFault) {
  sgx::Enclave enclave(0x10000, 2);
  ASSERT_TRUE(enclave.AddPage(0x10000).ok());
  ASSERT_TRUE(enclave.RegisterEntry(0, 0x10000).ok());
  EXPECT_FALSE(enclave.Enter(0).ok());  // not finalized
  ASSERT_TRUE(enclave.Finalize().ok());
  EXPECT_FALSE(enclave.Exit().ok());     // not inside
  EXPECT_FALSE(enclave.Enter(9).ok());   // unknown entry point
  ASSERT_TRUE(enclave.Enter(0).ok());
  EXPECT_FALSE(enclave.Enter(0).ok());   // no nesting
}

TEST(SgxTest, OcallSuspendsEnclaveAccess) {
  sgx::Enclave enclave(0x10000, 2);
  ASSERT_TRUE(enclave.AddPage(0x10000).ok());
  ASSERT_TRUE(enclave.RegisterEntry(0, 0x10000).ok());
  ASSERT_TRUE(enclave.Finalize().ok());
  ASSERT_TRUE(enclave.Enter(0).ok());
  ASSERT_TRUE(enclave.Ocall().ok());
  EXPECT_FALSE(enclave.AccessAllowed(0x10000));  // untrusted code during OCALL
  ASSERT_TRUE(enclave.OcallReturn().ok());
  EXPECT_TRUE(enclave.AccessAllowed(0x10000));
}

// ---- VMX / EPT ----

TEST(VmxTest, EptTranslatesAndFaults) {
  machine::PhysicalMemory pmem(1 << 14);
  vmx::Ept ept(&pmem);
  ASSERT_TRUE(ept.Map(0x5000, 0x9000).ok());
  auto ok = ept.Translate(0x5123, AccessType::kRead);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 0x9123u);
  auto missing = ept.Translate(0x6000, AccessType::kRead);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.fault().type, FaultType::kEptViolation);
}

TEST(VmxTest, EptWritePermission) {
  machine::PhysicalMemory pmem(1 << 14);
  vmx::Ept ept(&pmem);
  ASSERT_TRUE(ept.Map(0x5000, 0x9000, vmx::EptPerms{.read = true, .write = false}).ok());
  EXPECT_TRUE(ept.Translate(0x5000, AccessType::kRead).ok());
  EXPECT_FALSE(ept.Translate(0x5000, AccessType::kWrite).ok());
}

TEST(VmxTest, VmFuncSwitchesActiveEpt) {
  machine::PhysicalMemory pmem(1 << 14);
  vmx::VmxContext vmx(&pmem);
  ASSERT_TRUE(vmx.CreateEpt().ok());
  ASSERT_TRUE(vmx.CreateEpt().ok());
  ASSERT_TRUE(vmx.ept(0).Map(0x5000, 0x9000).ok());
  // Secret page only in EPT 1.
  ASSERT_TRUE(vmx.ept(1).Map(0x5000, 0x9000).ok());
  ASSERT_TRUE(vmx.ept(1).Map(0x6000, 0xa000).ok());

  EXPECT_FALSE(vmx.TranslateGuestPhys(0x6000, AccessType::kRead).ok());
  ASSERT_TRUE(vmx.VmFunc(0, 1).ok());
  EXPECT_TRUE(vmx.TranslateGuestPhys(0x6000, AccessType::kRead).ok());
  EXPECT_EQ(vmx.AsidTag(), 2);  // per-EPTP TLB tagging
  ASSERT_TRUE(vmx.VmFunc(0, 0).ok());
  EXPECT_FALSE(vmx.TranslateGuestPhys(0x6000, AccessType::kRead).ok());
}

TEST(VmxTest, VmFuncInvalidLeafOrIndexExits) {
  machine::PhysicalMemory pmem(1 << 14);
  vmx::VmxContext vmx(&pmem);
  ASSERT_TRUE(vmx.CreateEpt().ok());
  EXPECT_FALSE(vmx.VmFunc(1, 0).ok());  // only leaf 0 exists
  EXPECT_FALSE(vmx.VmFunc(0, 5).ok());  // index out of range
}

TEST(VmxTest, VmCallDispatchesToHypervisor) {
  machine::PhysicalMemory pmem(1 << 14);
  vmx::VmxContext vmx(&pmem);
  EXPECT_FALSE(vmx.VmCall(1, 0, 0, 0).ok());  // no handler -> exit
  vmx.SetHypercallHandler([](uint64_t nr, uint64_t a0, uint64_t, uint64_t) {
    return nr * 100 + a0;
  });
  auto r = vmx.VmCall(7, 3, 0, 0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 703u);
}

// ---- Dune ----

TEST(DuneTest, GuestFramesMappedInAllEpts) {
  machine::PhysicalMemory pmem(1 << 16);
  dune::DuneVm vm(&pmem);
  auto gpa = vm.AllocGuestFrame();
  ASSERT_TRUE(gpa.ok());
  auto idx = vm.CreateEpt();
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(idx.value(), 1);
  // Frame visible through both EPTs.
  EXPECT_TRUE(vm.vmx().ept(0).IsMapped(gpa.value()));
  EXPECT_TRUE(vm.vmx().ept(1).IsMapped(gpa.value()));
}

TEST(DuneTest, MarkPrivateRemovesFromOtherEpts) {
  machine::PhysicalMemory pmem(1 << 16);
  dune::DuneVm vm(&pmem);
  auto gpa = vm.AllocGuestFrame();
  ASSERT_TRUE(gpa.ok());
  auto idx = vm.CreateEpt();
  ASSERT_TRUE(idx.ok());
  ASSERT_TRUE(vm.MarkPrivate(gpa.value(), 1, idx.value()).ok());
  EXPECT_FALSE(vm.vmx().ept(0).IsMapped(gpa.value()));
  EXPECT_TRUE(vm.vmx().ept(1).IsMapped(gpa.value()));
  // Later frames stay shared.
  auto gpa2 = vm.AllocGuestFrame();
  ASSERT_TRUE(gpa2.ok());
  EXPECT_TRUE(vm.vmx().ept(0).IsMapped(gpa2.value()));
  EXPECT_TRUE(vm.vmx().ept(1).IsMapped(gpa2.value()));
}

TEST(DuneTest, MarkPrivateHypercall) {
  machine::PhysicalMemory pmem(1 << 16);
  dune::DuneVm vm(&pmem);
  auto gpa = vm.AllocGuestFrame();
  ASSERT_TRUE(gpa.ok());
  auto idx = vm.CreateEpt();
  ASSERT_TRUE(idx.ok());
  auto rc = vm.vmx().VmCall(dune::kHcMarkPrivate, gpa.value(), 1,
                            static_cast<uint64_t>(idx.value()));
  ASSERT_TRUE(rc.ok());
  EXPECT_EQ(rc.value(), 0u);
  EXPECT_FALSE(vm.vmx().ept(0).IsMapped(gpa.value()));
  EXPECT_EQ(vm.hypercall_count(), 1u);
}

TEST(DuneTest, SyscallHypercallRoutesToHandler) {
  machine::PhysicalMemory pmem(1 << 16);
  dune::DuneVm vm(&pmem);
  vm.SetSyscallHandler([](uint64_t nr, uint64_t a0, uint64_t) { return nr + a0; });
  auto rc = vm.vmx().VmCall(dune::kHcSyscall, 40, 2, 0);
  ASSERT_TRUE(rc.ok());
  EXPECT_EQ(rc.value(), 42u);
}

TEST(DuneTest, HostFrameLookup) {
  machine::PhysicalMemory pmem(1 << 16);
  dune::DuneVm vm(&pmem);
  auto gpa = vm.AllocGuestFrame();
  ASSERT_TRUE(gpa.ok());
  auto host = vm.HostFrame(gpa.value() + 0x24);
  ASSERT_TRUE(host.ok());
  EXPECT_EQ(PageOffset(host.value()), 0x24u);
  EXPECT_FALSE(vm.HostFrame(0xffff000).ok());
}

// ---- Process::MapRange ----

// What a mapping can change: the frame count, the recorded mappings, and
// per page of a window the leaf PTE (absent slot: nullopt) and, under
// Dune, where every EPT sends a present page's guest frame.
struct AddressSpaceImage {
  uint64_t frames = 0;
  std::vector<std::pair<VirtAddr, uint64_t>> mappings;
  std::vector<std::optional<uint64_t>> ptes;
  std::vector<std::optional<PhysAddr>> ept_hosts;

  bool operator==(const AddressSpaceImage&) const = default;
};

AddressSpaceImage Image(sim::Process& process, VirtAddr lo, uint64_t pages) {
  AddressSpaceImage image;
  image.frames = process.machine().pmem.allocated_frames();
  for (const auto& m : process.mappings()) {
    image.mappings.emplace_back(m.base, m.pages);
  }
  for (uint64_t p = 0; p < pages; ++p) {
    auto pte = process.page_table().ReadPte(lo + p * kPageSize);
    image.ptes.push_back(pte.ok() ? std::optional<uint64_t>(pte.value()) : std::nullopt);
    if (process.dune_enabled() && pte.ok() && (pte.value() & machine::kPtePresent) != 0) {
      const GuestPhysAddr gpa = pte.value() & machine::kPteFrameMask;
      for (int i = 0; i < process.dune()->vmx().ept_count(); ++i) {
        auto host = process.dune()->vmx().ept(i).Translate(gpa, AccessType::kRead);
        image.ept_hosts.push_back(host.ok() ? std::optional<PhysAddr>(host.value())
                                            : std::nullopt);
      }
    }
  }
  return image;
}

class ProcessMapRangeTest : public ::testing::TestWithParam<bool> {};

INSTANTIATE_TEST_SUITE_P(DuneOffOn, ProcessMapRangeTest, ::testing::Values(false, true),
                         [](const auto& info) { return info.param ? "Dune" : "Native"; });

TEST_P(ProcessMapRangeTest, OverlappingRangeFailsWithoutSideEffects) {
  sim::Machine machine;
  sim::Process process(&machine);
  if (GetParam()) {
    ASSERT_TRUE(process.EnableDune().ok());
  }
  // Pages 510..521 of a leaf-table-aligned window: the mapping crosses a
  // leaf-table boundary.
  const VirtAddr window = 0x100000000000ULL;
  const VirtAddr base = window + 510 * kPageSize;
  ASSERT_TRUE(process.MapRange(base, 12, machine::PageFlags::Data()).ok());
  if (GetParam()) {
    ASSERT_TRUE(process.dune()->CreateEpt().ok());  // a second EPT to keep equal
  }
  const AddressSpaceImage before = Image(process, window, 1024);
  // Ranges whose first, middle or last page is mapped, one that starts
  // before the mapping in a fresh leaf table, and one covering it.
  const struct {
    uint64_t first_page;
    uint64_t pages;
  } overlaps[] = {{510, 4}, {500, 20}, {520, 40}, {0, 511}, {400, 300}};
  for (const auto& o : overlaps) {
    const Status status = process.MapRange(window + o.first_page * kPageSize, o.pages,
                                           machine::PageFlags::Data());
    EXPECT_EQ(status.code(), StatusCode::kAlreadyExists) << o.first_page << "+" << o.pages;
    EXPECT_TRUE(Image(process, window, 1024) == before) << o.first_page << "+" << o.pages;
  }
  // A free run next to the mapping still maps, and FindFreeRun never hands
  // out the mapped pages.
  ASSERT_TRUE(process.MapRange(window + 522 * kPageSize, 3, machine::PageFlags::Data()).ok());
  const auto run = process.FindFreeRun(window + 500 * kPageSize, window + 1024 * kPageSize, 50);
  ASSERT_TRUE(run.has_value());
  EXPECT_EQ(*run, window + 525 * kPageSize);
}

// The ranged Dune path against an AllocGuestFrame + guest Map loop on a
// second machine: the same frame numbers, guest PTEs and EPT entries, and
// physical memory equal word for word (so every table sits in the same
// frame), for ranges crossing guest and EPT leaf tables, with one and with
// two EPTs.
TEST(ProcessMapRangeDuneTest, MatchesPerPageGuestFrameLoop) {
  sim::Machine ranged_machine;
  sim::Machine looped_machine;
  sim::Process ranged(&ranged_machine);
  sim::Process looped(&looped_machine);
  ASSERT_TRUE(ranged.EnableDune().ok());
  ASSERT_TRUE(looped.EnableDune().ok());
  const VirtAddr window = 0x200000000000ULL - 600 * kPageSize;  // crosses a PD boundary
  const auto map_both = [&](uint64_t first_page, uint64_t pages) {
    const VirtAddr base = window + first_page * kPageSize;
    ASSERT_TRUE(ranged.MapRange(base, pages, machine::PageFlags::Data()).ok());
    for (uint64_t p = 0; p < pages; ++p) {
      auto gpa = looped.dune()->AllocGuestFrame();
      ASSERT_TRUE(gpa.ok());
      ASSERT_TRUE(looped.page_table()
                      .Map(base + p * kPageSize, gpa.value(), machine::PageFlags::Data())
                      .ok());
    }
  };
  map_both(0, 700);
  ASSERT_TRUE(ranged.dune()->CreateEpt().ok());
  ASSERT_TRUE(looped.dune()->CreateEpt().ok());
  map_both(700, 530);
  map_both(1300, 1);
  AddressSpaceImage a = Image(ranged, window, 1400);
  AddressSpaceImage b = Image(looped, window, 1400);
  a.mappings.clear();  // the loop records no mappings
  EXPECT_EQ(a.frames, b.frames);
  EXPECT_TRUE(a.ptes == b.ptes);
  EXPECT_TRUE(a.ept_hosts == b.ept_hosts);
  EXPECT_EQ(a.ept_hosts.size(), 2u * 1231u);
  ASSERT_EQ(ranged_machine.pmem.allocated_frames(), looped_machine.pmem.allocated_frames());
  for (uint64_t f = 1; f <= ranged_machine.pmem.allocated_frames(); ++f) {
    for (uint64_t off = 0; off < kPageSize; off += 8) {
      const PhysAddr addr = (f << kPageShift) + off;
      ASSERT_EQ(ranged_machine.pmem.Read64(addr), looped_machine.pmem.Read64(addr))
          << "frame " << f << " offset " << off;
    }
  }
}

}  // namespace
}  // namespace memsentry
