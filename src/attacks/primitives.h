// The paper's threat model (Section 2.3): the attacker holds an arbitrary
// read and write primitive inside the vulnerable (instrumented) process.
// Technique::AttackerRead/Write give those primitives their architectural
// semantics — an SFI'd process masks the attacker's pointer, MPX bound-checks
// it, a closed MPK/EPT/enclave domain faults, crypt yields ciphertext.
#ifndef MEMSENTRY_SRC_ATTACKS_PRIMITIVES_H_
#define MEMSENTRY_SRC_ATTACKS_PRIMITIVES_H_

#include "src/core/technique.h"
#include "src/sim/process.h"

namespace memsentry::attacks {

class ArbitraryRw {
 public:
  ArbitraryRw(sim::Process* process, core::Technique* technique)
      : process_(process), technique_(technique) {}

  machine::FaultOr<uint64_t> Read(VirtAddr va) { return technique_->AttackerRead(*process_, va); }
  machine::FaultOr<bool> Write(VirtAddr va, uint64_t value) {
    return technique_->AttackerWrite(*process_, va, value);
  }

  // Crash-resistant probe (Gawlik et al.): reads survive faults — the
  // attacker learns whether the access succeeded without terminating.
  struct ProbeResult {
    bool mapped_and_accessible = false;
    uint64_t value = 0;
  };
  ProbeResult Probe(VirtAddr va) {
    auto r = Read(va);
    if (r.ok()) {
      return ProbeResult{true, r.value()};
    }
    return ProbeResult{};
  }

 private:
  sim::Process* process_;
  core::Technique* technique_;
};

}  // namespace memsentry::attacks

#endif  // MEMSENTRY_SRC_ATTACKS_PRIMITIVES_H_
