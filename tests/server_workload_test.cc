// Multi-tenant server workload: bit-identical results across all three
// fastpath modes, per-ASID TLB/grant-cache behavior across context
// switches, per-tenant isolation, and kernel syscall attribution.
#include "src/workloads/server.h"

#include <gtest/gtest.h>

#include "src/base/fastpath.h"
#include "src/machine/fault.h"
#include "src/mpk/mpk.h"

namespace memsentry::workloads {
namespace {

ServerConfig SmallConfig(ServerTechnique technique) {
  ServerConfig config;
  config.tenants = 25;  // enough to force MPK key multiplexing (> 15)
  config.technique = technique;
  config.requests_per_tenant = 4;
  return config;
}

class FastPathModeGuard {
 public:
  FastPathModeGuard() : saved_(base::GetFastPathMode()) {}
  ~FastPathModeGuard() { base::SetFastPathMode(saved_); }

 private:
  base::FastPathMode saved_;
};

// The determinism contract in one assertion per field: identical config =>
// identical modeled results, for every fastpath mode. The digest covers
// per-tenant busy cycles, completions, per-ASID syscall counts, the full
// latency vector and the TLB stats, so equality here is equality of all of
// those at once.
TEST(ServerWorkloadDeterminismTest, BitIdenticalAcrossFastPathModes) {
  FastPathModeGuard guard;
  for (ServerTechnique technique : AllServerTechniques()) {
    base::SetFastPathMode(base::FastPathMode::kOn);
    const ServerResult on = RunServerWorkload(SmallConfig(technique));
    base::SetFastPathMode(base::FastPathMode::kOff);
    const ServerResult off = RunServerWorkload(SmallConfig(technique));
    base::SetFastPathMode(base::FastPathMode::kCheck);
    const ServerResult check = RunServerWorkload(SmallConfig(technique));
    for (const ServerResult* other : {&off, &check}) {
      EXPECT_EQ(on.digest, other->digest) << ServerTechniqueName(technique);
      EXPECT_EQ(on.requests, other->requests);
      EXPECT_EQ(on.faults, other->faults);
      EXPECT_EQ(on.total_cycles, other->total_cycles);
      EXPECT_EQ(on.p50_latency, other->p50_latency);
      EXPECT_EQ(on.p99_latency, other->p99_latency);
      EXPECT_EQ(on.p999_latency, other->p999_latency);
      EXPECT_EQ(on.tlb_hit_rate, other->tlb_hit_rate);
      EXPECT_EQ(on.context_switches, other->context_switches);
      EXPECT_EQ(on.preemptions, other->preemptions);
      EXPECT_EQ(on.syscalls, other->syscalls);
    }
    EXPECT_EQ(on.faults, 0u) << ServerTechniqueName(technique);
  }
}

// Context switches retarget the ASID without flushing: with several tenants
// resident the TLB must hold entries for multiple VPIDs at once, and the
// per-VPID occupancy scan must account for every valid entry.
TEST(ServerWorkloadTest, AsidTaggedTlbKeepsTenantsResident) {
  ServerConfig config = SmallConfig(ServerTechnique::kMpk);
  ServerEngine engine(config);
  ASSERT_TRUE(engine.Setup().ok());
  const ServerResult result = engine.Run();
  EXPECT_EQ(result.faults, 0u);
  EXPECT_GT(result.resident_vpids, 1);
  auto& tlb = engine.process().mmu().tlb();
  EXPECT_EQ(tlb.CountResidentVpids(), result.resident_vpids);
  int total = 0;
  for (int t = 0; t < config.tenants; ++t) {
    total += tlb.OccupancyForVpid(engine.TenantAsid(t));
  }
  EXPECT_GT(total, 0);
  EXPECT_LE(total, machine::Tlb::kSets * machine::Tlb::kWays);
}

// The kernel attributes syscalls to the tenant that was on the CPU: setup
// syscalls land on ASID 0, request syscalls on the issuing tenant, and the
// per-ASID ledger must add up exactly.
TEST(ServerWorkloadTest, KernelAttributesSyscallsPerAsid) {
  ServerConfig config = SmallConfig(ServerTechnique::kMpk);
  ServerEngine engine(config);
  ASSERT_TRUE(engine.Setup().ok());
  const uint64_t setup_syscalls = engine.kernel().total_syscalls();
  EXPECT_EQ(engine.kernel().asid_syscalls(0), setup_syscalls);
  const ServerResult result = engine.Run();
  // Per request: 1 setup nop + io_syscalls writes + 1 teardown nop.
  const uint64_t per_request = 2 + static_cast<uint64_t>(config.io_syscalls_per_request);
  uint64_t attributed = 0;
  for (int t = 0; t < config.tenants; ++t) {
    const uint64_t count = engine.kernel().asid_syscalls(engine.TenantAsid(t));
    EXPECT_EQ(count, per_request * static_cast<uint64_t>(config.requests_per_tenant));
    attributed += count;
  }
  EXPECT_EQ(engine.kernel().total_syscalls(), setup_syscalls + attributed);
  EXPECT_EQ(result.syscalls, setup_syscalls + attributed);
}

// MPK: the steady state (every key closed) must not reach any tenant's
// secret — including the attacker's own — and keys are genuinely
// multiplexed beyond 15 tenants.
TEST(ServerIsolationTest, MpkAtRestBlocksCrossTenantReads) {
  ServerConfig config = SmallConfig(ServerTechnique::kMpk);
  ServerEngine engine(config);
  ASSERT_TRUE(engine.Setup().ok());
  auto cross = engine.ProbeCrossTenantRead(0, 7);
  ASSERT_FALSE(cross.ok());
  EXPECT_EQ(cross.fault().type, machine::FaultType::kPkeyAccessDisabled);
  // Key multiplexing beyond the 15 usable keys (Table 3's domain limit).
  EXPECT_EQ(engine.TenantKey(0), engine.TenantKey(15));
  EXPECT_NE(engine.TenantKey(0), engine.TenantKey(1));
  // An opened tenant reads its own secret but still not a different-key
  // tenant's.
  Cycles cycles = 0;
  auto own = engine.process().mmu().Read64(engine.TenantSecretBase(3), engine.OpenPkru(3),
                                           &cycles);
  EXPECT_TRUE(own.ok());
  auto other = engine.process().mmu().Read64(engine.TenantSecretBase(4), engine.OpenPkru(3),
                                             &cycles);
  ASSERT_FALSE(other.ok());
  EXPECT_EQ(other.fault().type, machine::FaultType::kPkeyAccessDisabled);
}

TEST(ServerIsolationTest, MprotectAtRestBlocksReads) {
  ServerConfig config = SmallConfig(ServerTechnique::kMprotect);
  ServerEngine engine(config);
  ASSERT_TRUE(engine.Setup().ok());
  auto probe = engine.ProbeCrossTenantRead(1, 2);
  EXPECT_FALSE(probe.ok());
}

// crypt: the same seed under info-hide leaves tenant 0's secret readable in
// the clear; under crypt the at-rest bytes must differ (encrypted), and a
// full run must leave every region re-encrypted.
TEST(ServerIsolationTest, CryptRegionsAreEncryptedAtRest) {
  ServerConfig clear_config = SmallConfig(ServerTechnique::kInfoHide);
  clear_config.tenants = 1;
  ServerEngine clear(clear_config);
  ASSERT_TRUE(clear.Setup().ok());
  ServerConfig crypt_config = SmallConfig(ServerTechnique::kCrypt);
  crypt_config.tenants = 1;
  ServerEngine crypt(crypt_config);
  ASSERT_TRUE(crypt.Setup().ok());
  // Same secret stream (same seed, same draws for tenant 0's fill).
  const auto plain = clear.process().Peek64(clear.TenantSecretBase(0));
  const auto cipher = crypt.process().Peek64(crypt.TenantSecretBase(0));
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(cipher.ok());
  EXPECT_NE(plain.value(), cipher.value());
  const ServerResult result = crypt.Run();
  EXPECT_EQ(result.faults, 0u);
  for (const auto& region : crypt.process().safe_regions()) {
    EXPECT_TRUE(region.encrypted_now);
  }
}

// Every technique serves every request without a single fault, at a scale
// that exercises preemption and multi-ASID TLB pressure.
TEST(ServerWorkloadTest, AllTechniquesServeAllRequestsFaultFree) {
  for (ServerTechnique technique : AllServerTechniques()) {
    const ServerConfig config = SmallConfig(technique);
    const ServerResult result = RunServerWorkload(config);
    EXPECT_EQ(result.requests,
              static_cast<uint64_t>(config.tenants) *
                  static_cast<uint64_t>(config.requests_per_tenant))
        << ServerTechniqueName(technique);
    EXPECT_EQ(result.faults, 0u) << ServerTechniqueName(technique);
    EXPECT_GT(result.requests_per_sec, 0.0);
    EXPECT_GE(result.p99_latency, result.p50_latency);
    EXPECT_GE(result.p999_latency, result.p99_latency);
  }
}

// The slow techniques must actually cost more: the whole point of the
// workload is turning per-transition costs into tail latency.
TEST(ServerWorkloadTest, TechniqueCostsOrderTailLatency) {
  auto p99 = [](ServerTechnique technique) {
    return RunServerWorkload(SmallConfig(technique)).p99_latency;
  };
  const Cycles info_hide = p99(ServerTechnique::kInfoHide);
  const Cycles mpk = p99(ServerTechnique::kMpk);
  const Cycles mprotect = p99(ServerTechnique::kMprotect);
  EXPECT_GT(mprotect, mpk);
  EXPECT_GT(mpk, info_hide);
}

}  // namespace
}  // namespace memsentry::workloads
