// A deterministic preemptive scheduler for multi-tenant simulations: per-ASID
// run queues, a round-robin ready list, preemption quanta and modeled
// context-switch costs. The paper's deployment story is a long-lived server
// multiplexing many protected tenants; this is the piece of `sim` that turns
// per-transition costs (wrpkru/vmfunc/mprotect) into end-to-end request
// latency under contention, and that exercises the per-ASID TLB/grant-cache
// coherence added in PR 4 (SetVpid on switch, no flush).
//
// Everything is in modeled cycles and driven purely by submitted arrivals —
// no wall clock, no host randomness — so a run is bit-identical for a given
// submission set regardless of host load or `--jobs`.
#ifndef MEMSENTRY_SRC_SIM_SCHEDULER_H_
#define MEMSENTRY_SRC_SIM_SCHEDULER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "src/base/types.h"

namespace memsentry::sim {

struct SchedulerConfig {
  // Preemption quantum in modeled cycles. Phases are the atomic unit of
  // execution: a phase that overruns the quantum finishes, then the tenant is
  // preempted (the simulator's analogue of returning to the kernel at the
  // next safe point).
  Cycles quantum = 50'000;
  // Direct cost of a context switch (register save/restore, kernel entry and
  // exit, scheduler bookkeeping) charged whenever the CPU changes tenant.
  // A per-handoff scheduler parameter rather than a per-instruction price,
  // so it lives here and not in machine::CostModel.
  // The *indirect* cost (cold TLB/grant-cache for the incoming ASID) is not a
  // constant at all — it emerges from the ASID-tagged MMU state.
  Cycles context_switch_cycles = 3'000;
};

struct SchedulerStats {
  uint64_t context_switches = 0;  // tenant-to-tenant CPU handoffs
  uint64_t preemptions = 0;       // quantum expiries with runnable work left
  uint64_t idle_jumps = 0;        // clock fast-forwards to the next arrival
  Cycles switch_cycles = 0;       // total direct switch cost
  Cycles busy_cycles = 0;         // total cycles spent running phases
};

struct CompletedRequest {
  uint16_t tenant = 0;
  uint64_t seq = 0;       // submitter's request id, opaque to the scheduler
  Cycles arrival = 0;
  Cycles completion = 0;  // latency = completion - arrival (includes queueing)
};

class Scheduler {
 public:
  // Runs one phase of tenant `tenant`'s request `seq`. Returns the modeled
  // cycles the phase consumed; sets *done to true when the request has no
  // further phases. Phase indices count up from 0 per request.
  using PhaseRunner =
      std::function<Cycles(uint16_t tenant, uint64_t seq, int phase, bool* done)>;
  // Invoked on every context switch with the incoming tenant, before its
  // timeslice runs. The owner uses this to retarget the MMU's ASID
  // (mmu().SetVpid) and the kernel's syscall attribution.
  using SwitchHook = std::function<void(uint16_t tenant)>;

  Scheduler(const SchedulerConfig& config, uint16_t num_tenants);

  // Registers a request arriving at `arrival` modeled cycles for `tenant`.
  // All submissions must precede Run. Ties are served in submission order.
  void Submit(uint16_t tenant, uint64_t seq, Cycles arrival);

  void SetSwitchHook(SwitchHook hook) { switch_hook_ = std::move(hook); }

  // Runs every submitted request to completion and returns them in
  // completion order. Deterministic: round-robin over a FIFO ready list,
  // arrivals admitted in (arrival, submission-order) order.
  std::vector<CompletedRequest> Run(const PhaseRunner& runner);

  const SchedulerStats& stats() const { return stats_; }
  Cycles clock() const { return clock_; }
  // Per-tenant cycles spent running phases (the fairness ledger).
  Cycles tenant_busy_cycles(uint16_t tenant) const {
    return tenant < tenants_.size() ? tenants_[tenant].busy_cycles : 0;
  }
  uint64_t tenant_completed(uint16_t tenant) const {
    return tenant < tenants_.size() ? tenants_[tenant].completed : 0;
  }

 private:
  struct Pending {
    Cycles arrival = 0;
    uint16_t tenant = 0;
    uint64_t seq = 0;
  };
  struct Active {
    uint64_t seq = 0;
    Cycles arrival = 0;
    int phase = 0;
  };
  struct Tenant {
    std::deque<Active> run_queue;  // this ASID's runnable requests, FIFO
    bool in_ready = false;
    Cycles busy_cycles = 0;
    uint64_t completed = 0;
  };

  // Moves every pending arrival with arrival <= clock_ onto its tenant's run
  // queue and readies the tenant.
  void AdmitUpTo(Cycles now);
  void MakeReady(uint16_t tenant);

  SchedulerConfig config_;
  std::vector<Tenant> tenants_;
  std::vector<Pending> pending_;   // sorted stably by arrival before running
  size_t admit_cursor_ = 0;
  std::deque<uint16_t> ready_;     // round-robin order; each tenant at most once
  SwitchHook switch_hook_;
  SchedulerStats stats_;
  Cycles clock_ = 0;
  // Sentinel: no tenant has run yet (first dispatch is still a switch).
  static constexpr uint32_t kNoTenant = ~uint32_t{0};
  uint32_t current_ = kNoTenant;
};

}  // namespace memsentry::sim

#endif  // MEMSENTRY_SRC_SIM_SCHEDULER_H_
