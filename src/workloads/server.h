// Request-driven multi-tenant server workload: N tenants (1 → 10,000), each
// with its own safe region, ASID and protection technique, multiplexed on one
// simulated CPU by sim::Scheduler. This is the paper's deployment story — a
// long-lived server guarding per-client session secrets (ERIM's
// nginx/OpenSSL scenario) — turned into a measured workload: a seeded
// open-loop generator issues requests whose mix models connection setup, a
// crypto handshake that touches the tenant's safe region (real AES-128 via
// src/aes), syscall-heavy I/O through sim::Kernel, and teardown.
//
// Determinism contract: a run is a pure function of ServerConfig. Arrivals
// are drawn from seeded per-tenant streams over a technique-independent
// horizon (so latency differences between techniques are technique-induced,
// never load-induced), the scheduler is deterministic, and every modeled
// cycle flows through the same MMU/CostModel paths as the rest of the
// simulator — bit-identical across engine worker counts and fastpath modes.
#ifndef MEMSENTRY_SRC_WORKLOADS_SERVER_H_
#define MEMSENTRY_SRC_WORKLOADS_SERVER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/ir/module.h"
#include "src/machine/registers.h"
#include "src/sim/decoded.h"
#include "src/sim/kernel.h"
#include "src/sim/process.h"
#include "src/sim/scheduler.h"

namespace memsentry::workloads {

// The protection techniques the server can deploy per tenant. VMFUNC is
// deliberately absent: one EPT per tenant caps out at the 512-entry EPTP
// list (Table 3), far short of 10k tenants — the sweep documents that limit
// by construction instead of modeling around it.
enum class ServerTechnique {
  kInfoHide,   // hidden-address baseline: plain accesses, secrecy only
  kMpk,        // per-tenant pkey, multiplexed over the 15 usable keys
  kCrypt,      // per-tenant AES key schedule, region encrypted at rest
  kSfi,        // address-masking cost on every safe access
  kMprotect,   // PROT_NONE at rest, mprotect open/close per handshake
};

const char* ServerTechniqueName(ServerTechnique technique);
// All five, in sweep order.
std::vector<ServerTechnique> AllServerTechniques();

struct ServerConfig {
  int tenants = 100;
  ServerTechnique technique = ServerTechnique::kMpk;
  uint64_t seed = 0x5e9f3a1cULL;
  int requests_per_tenant = 8;
  uint64_t safe_region_bytes = 64;   // per-tenant session secret
  int io_syscalls_per_request = 6;
  // Offered load as a fraction of nominal single-tenant capacity; the
  // arrival horizon scales with total requests so the generator stays
  // open-loop (arrivals never wait for completions).
  double offered_load = 0.8;
  sim::SchedulerConfig sched;
};

struct ServerResult {
  uint64_t requests = 0;
  uint64_t faults = 0;            // must be 0: a fault mid-request is a bug
  Cycles total_cycles = 0;        // scheduler clock when the last request completed
  double requests_per_sec = 0.0;  // at the calibrated 4 GHz nominal clock
  Cycles p50_latency = 0;         // arrival -> completion, includes queueing
  Cycles p99_latency = 0;
  Cycles p999_latency = 0;
  double tlb_hit_rate = 0.0;
  double grant_hit_rate = 0.0;
  uint64_t context_switches = 0;
  uint64_t preemptions = 0;
  uint64_t syscalls = 0;
  int resident_vpids = 0;         // distinct ASIDs in the TLB at end of run
  // FNV-1a over per-tenant busy cycles, completions and syscall counts plus
  // the full latency vector — the bit-identity probe the determinism tests
  // and the --check-determinism runner mode compare.
  uint64_t digest = 0;
};

// The engine behind RunServerWorkload, exposed so tests can set up the
// tenant population and probe isolation without running the full schedule.
class ServerEngine {
 public:
  explicit ServerEngine(const ServerConfig& config);

  // Maps every tenant's scratch page and safe region, fills the secrets,
  // applies the technique's at-rest protection, installs the kernel.
  Status Setup();

  // Runs the open-loop request schedule to completion. Requires Setup().
  ServerResult Run();

  sim::Process& process() { return process_; }
  sim::Kernel& kernel() { return kernel_; }
  int tenants() const { return config_.tenants; }

  // ASID 0 is the kernel/idle context; tenants are 1-based.
  uint16_t TenantAsid(int tenant) const { return static_cast<uint16_t>(tenant + 1); }
  VirtAddr TenantSecretBase(int tenant) const;
  VirtAddr TenantScratchBase(int tenant) const;
  // MPK: the (multiplexed) protection key guarding this tenant's region.
  // With more than 15 tenants, keys repeat — the documented hardware limit.
  uint8_t TenantKey(int tenant) const;

  // The PKRU a tenant's steady state runs under (MPK: every multiplexed key
  // closed) and the PKRU its handshake opens (only its own key enabled).
  machine::Pkru AtRestPkru() const;
  machine::Pkru OpenPkru(int tenant) const;

  // Isolation probe for tests: attempts an MMU read of `victim`'s secret
  // from `attacker`'s steady state (at-rest PKRU, attacker's ASID).
  machine::FaultOr<uint64_t> ProbeCrossTenantRead(int attacker, int victim);

  // The technique's request-path µop stream, shared across every tenant
  // (and across engines of the same technique) through the process-wide
  // sim::DecodeCache. Built and validated during Setup().
  const ir::Module& request_module() const { return request_module_; }
  const std::shared_ptr<const sim::DecodedModule>& decoded_request() const {
    return decoded_request_;
  }

 private:
  Cycles RunPhase(uint16_t tenant, uint64_t seq, int phase, bool* done);
  Cycles OpenRegion(int tenant);   // technique-specific open, returns cycles
  Cycles CloseRegion(int tenant);  // technique-specific close
  // One priced MMU access; faults are counted, not fatal.
  Cycles TouchRead(VirtAddr va);
  Cycles TouchWrite(VirtAddr va, uint64_t value);
  // Builds request_module_, has every tenant draw the decoded stream from
  // the shared cache (one lowering per technique suite-wide), and proves
  // the lowering executes by running it on a scratch machine. Digest-
  // neutral: the engine's own machine state is never touched.
  Status BuildSharedRequestStream();

  ServerConfig config_;
  sim::Machine machine_;
  sim::Process process_;
  sim::Kernel kernel_;
  bool setup_done_ = false;
  uint64_t faults_ = 0;
  std::vector<uint8_t> tenant_keys_;            // MPK multiplexed key per tenant
  ir::Module request_module_;
  std::shared_ptr<const sim::DecodedModule> decoded_request_;
};

ServerResult RunServerWorkload(const ServerConfig& config);

}  // namespace memsentry::workloads

#endif  // MEMSENTRY_SRC_WORKLOADS_SERVER_H_
