#include "src/sgx/enclave.h"

#include <algorithm>

namespace memsentry::sgx {

Status Enclave::AddPage(VirtAddr va) {
  if (finalized_) {
    return FailedPrecondition("SGX1: cannot add pages after EINIT");
  }
  if (PageOffset(va) != 0) {
    return InvalidArgument("enclave pages must be page-aligned");
  }
  if (va < base_ || PageNumber(va - base_) >= max_pages_) {
    return OutOfRange("page outside the enclave's reserved range");
  }
  const uint64_t index = PageNumber(va - base_);
  if (std::find(committed_pages_.begin(), committed_pages_.end(), index) !=
      committed_pages_.end()) {
    return AlreadyExists("enclave page already committed");
  }
  committed_pages_.push_back(index);
  return OkStatus();
}

Status Enclave::RegisterEntry(uint32_t entry_id, VirtAddr target) {
  if (finalized_) {
    return FailedPrecondition("entry points are fixed at EINIT");
  }
  if (!Contains(target) && committed_pages_.empty()) {
    return InvalidArgument("entry target outside enclave");
  }
  entries_[entry_id] = target;
  return OkStatus();
}

Status Enclave::Finalize() {
  if (finalized_) {
    return FailedPrecondition("already finalized");
  }
  if (committed_pages_.empty()) {
    return FailedPrecondition("enclave has no pages");
  }
  finalized_ = true;
  return OkStatus();
}

bool Enclave::Contains(VirtAddr va) const {
  if (va < base_) {
    return false;
  }
  const uint64_t index = PageNumber(va - base_);
  return std::find(committed_pages_.begin(), committed_pages_.end(), index) !=
         committed_pages_.end();
}

machine::FaultOr<VirtAddr> Enclave::Enter(uint32_t entry_id) {
  if (!finalized_ || inside_) {
    return machine::Fault{machine::FaultType::kEnclaveExit, base_,
                          machine::AccessType::kExecute};
  }
  auto it = entries_.find(entry_id);
  if (it == entries_.end()) {
    return machine::Fault{machine::FaultType::kEnclaveExit, entry_id,
                          machine::AccessType::kExecute};
  }
  inside_ = true;
  return it->second;
}

machine::FaultOr<bool> Enclave::Exit() {
  if (!inside_ || in_ocall_) {
    return machine::Fault{machine::FaultType::kEnclaveExit, base_,
                          machine::AccessType::kExecute};
  }
  inside_ = false;
  return true;
}

machine::FaultOr<bool> Enclave::Ocall() {
  if (!inside_ || in_ocall_) {
    return machine::Fault{machine::FaultType::kEnclaveExit, base_,
                          machine::AccessType::kExecute};
  }
  in_ocall_ = true;
  return true;
}

machine::FaultOr<bool> Enclave::OcallReturn() {
  if (!in_ocall_) {
    return machine::Fault{machine::FaultType::kEnclaveExit, base_,
                          machine::AccessType::kExecute};
  }
  in_ocall_ = false;
  return true;
}

}  // namespace memsentry::sgx
