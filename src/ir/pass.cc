#include "src/ir/pass.h"

#include "src/ir/verifier.h"

namespace memsentry::ir {

Status PassManager::Run(Module& module) {
  if (!module.verified()) {
    MEMSENTRY_RETURN_IF_ERROR(Verify(module));
    module.MarkVerified();
  }
  for (auto& pass : passes_) {
    MEMSENTRY_RETURN_IF_ERROR(pass->Run(module));
    module.Touch();  // invalidate any cached decoded form
    Status verified = Verify(module);
    if (!verified.ok()) {
      return InternalError("pass " + pass->name() + " broke the module: " + verified.ToString());
    }
    module.MarkVerified();
    executed_.push_back(pass->name());
  }
  return OkStatus();
}

}  // namespace memsentry::ir
