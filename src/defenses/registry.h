// The paper's Table 1: a survey of defense systems that depend on memory
// isolation — what they protect against, whether their isolation is
// probabilistic (information hiding) or deterministic, and where they insert
// code. Used by the table1_defenses suite workload and the advisor examples.
#ifndef MEMSENTRY_SRC_DEFENSES_REGISTRY_H_
#define MEMSENTRY_SRC_DEFENSES_REGISTRY_H_

#include <span>
#include <string>

namespace memsentry::defenses {

struct DefenseInfo {
  std::string name;
  bool vuln_read = false;    // the safe region must not be readable
  bool vuln_write = false;   // the safe region must not be writable
  bool probabilistic = false;
  bool deterministic = false;
  std::string instrumentation_points;
};

std::span<const DefenseInfo> SurveyedDefenses();

const DefenseInfo* FindDefense(const std::string& name);

// Runtime defenses implemented in this repo and attachable to a simulated
// process. Deliberately a separate table from the paper's Table 1 survey
// (which is pinned row-for-row by the table1_defenses fidelity bench).
struct RuntimeDefenseInfo {
  std::string name;
  std::string header;   // where the implementation lives
  std::string summary;  // one-line description of the enforcement
};

std::span<const RuntimeDefenseInfo> RuntimeDefenses();

const RuntimeDefenseInfo* FindRuntimeDefense(const std::string& name);

}  // namespace memsentry::defenses

#endif  // MEMSENTRY_SRC_DEFENSES_REGISTRY_H_
