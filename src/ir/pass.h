// Pass framework: the MemSentry isolation passes and the defense passes are
// ModulePasses scheduled by a PassManager, mirroring the paper's "run the
// MemSentry pass after the defense pass" workflow (Section 3, Figure 1).
#ifndef MEMSENTRY_SRC_IR_PASS_H_
#define MEMSENTRY_SRC_IR_PASS_H_

#include <memory>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/ir/module.h"

namespace memsentry::ir {

class ModulePass {
 public:
  virtual ~ModulePass() = default;
  virtual std::string name() const = 0;
  virtual Status Run(Module& module) = 0;
};

class PassManager {
 public:
  void Add(std::unique_ptr<ModulePass> pass) { passes_.push_back(std::move(pass)); }

  // Runs every pass in order; verifies the module after each one. The
  // module is verified before the first pass unless it was already verified
  // at its current version (Module::verified()).
  Status Run(Module& module);

  const std::vector<std::string>& executed() const { return executed_; }

 private:
  std::vector<std::unique_ptr<ModulePass>> passes_;
  std::vector<std::string> executed_;
};

}  // namespace memsentry::ir

#endif  // MEMSENTRY_SRC_IR_PASS_H_
