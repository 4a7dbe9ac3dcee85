// Intel SGX enclave model: a finalized, fixed-size compartment of code+data
// reachable only through pre-registered ECALL entry points. Captures the
// properties the paper evaluates (Section 3.1): enclave memory is
// inaccessible from outside, mappings are fixed after finalization, no new
// memory can be added, and crossings cost thousands of cycles.
#ifndef MEMSENTRY_SRC_SGX_ENCLAVE_H_
#define MEMSENTRY_SRC_SGX_ENCLAVE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/base/status.h"
#include "src/base/types.h"
#include "src/machine/fault.h"

namespace memsentry::sgx {

class Enclave {
 public:
  // ECREATE: reserves the enclave's virtual range. Pages and entry points are
  // added before EINIT finalizes the enclave.
  Enclave(VirtAddr base, uint64_t max_pages) : base_(base), max_pages_(max_pages) {}

  // EADD: commits one page inside the reserved range.
  Status AddPage(VirtAddr va);
  // Registers an ECALL entry point (index -> code address inside the enclave).
  Status RegisterEntry(uint32_t entry_id, VirtAddr target);
  // EINIT: after this, AddPage fails — SGX1 mappings are immutable.
  Status Finalize();
  bool finalized() const { return finalized_; }

  VirtAddr base() const { return base_; }
  uint64_t committed_pages() const { return committed_pages_.size(); }
  bool Contains(VirtAddr va) const;

  // EENTER via a registered entry point; returns the code address to jump to.
  machine::FaultOr<VirtAddr> Enter(uint32_t entry_id);
  // EEXIT back to untrusted code.
  machine::FaultOr<bool> Exit();
  // OCALL: temporarily leaves the enclave (nestable once) to run untrusted
  // code, then OcallReturn re-enters.
  machine::FaultOr<bool> Ocall();
  machine::FaultOr<bool> OcallReturn();

  bool inside() const { return inside_ && !in_ocall_; }

  // Memory rule enforced by the executor on every data access: enclave pages
  // are untouchable from outside (real SGX gives abort-page semantics; we
  // fault so tests observe the denial deterministically).
  bool AccessAllowed(VirtAddr va) const { return !Contains(va) || inside(); }

 private:
  VirtAddr base_;
  uint64_t max_pages_;
  std::vector<uint64_t> committed_pages_;  // page indices relative to base_
  std::unordered_map<uint32_t, VirtAddr> entries_;
  bool finalized_ = false;
  bool inside_ = false;
  bool in_ocall_ = false;
};

}  // namespace memsentry::sgx

#endif  // MEMSENTRY_SRC_SGX_ENCLAVE_H_
