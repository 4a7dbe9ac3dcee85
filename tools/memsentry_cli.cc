// memsentry — command-line front end for the framework.
//
//   memsentry run <workload> [--quick] [--instructions=N] [--jobs=N]
//                 [--json=PATH] [--bundle-root=DIR] [workload flags]
//                                        run one suite workload (a paper
//                                        table or figure) and print it
//   memsentry attack [--region-bytes N]           run the attack matrix
//   memsentry advise --events F --bytes N [--year Y] [--mpk] [--no-hypervisor]
//   memsentry dump --benchmark 403.gcc --technique mpx [--defense shadowstack]
//                                                  show instrumented IR
//   memsentry replay <crash-bundle-dir>  deterministically re-execute the
//                                        failing cell a crash bundle recorded
//   memsentry replay-campaign <bundle-dir|spec.json>  re-execute a generated
//                                        attack campaign bit-for-bit
//   memsentry serve --socket PATH [--jobs N] [--quiet]
//                                        resident CampaignEngine behind a
//                                        local UNIX socket: submit/status/
//                                        cancel/wait any suite workload or
//                                        run_cell one cell without paying a
//                                        process per run
//   memsentry request --socket PATH 'JSON'  client half of serve: one
//                                        request line in, the response out
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/attacks/campaign_gen.h"
#include "src/attacks/fault_campaign.h"
#include "src/attacks/harness.h"
#include "src/base/crash_handler.h"
#include "src/base/fastpath.h"
#include "src/base/json.h"
#include "src/core/advisor.h"
#include "src/eval/figures.h"
#include "src/eval/serve.h"
#include "src/ir/printer.h"
#include "src/suite/workloads.h"
#include "src/workloads/spec_profiles.h"

namespace memsentry {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: memsentry_cli <run | attack | advise | dump | replay | ...> [options]\n"
               "  run WORKLOAD [--quick] [--instructions=N] [--jobs=N] [--json=PATH]\n"
               "      [--bundle-root=DIR] [--seed=N] [--campaigns=N] [--policy=off]\n"
               "      [--skip-audit] [--step-budget=N] [--allow-escapes] [--force-crash=T/S]\n"
               "                      run one registered suite workload through the\n"
               "                      campaign engine, print its tables, and write its\n"
               "                      report to --json\n"
               "  attack [--region-bytes N]\n"
               "  advise [--events F] [--bytes N] [--year Y] [--mpk] [--no-hypervisor]\n"
               "  dump [--benchmark NAME] [--technique sfi|mpx|mpk|vmfunc|crypt|sgx|mprotect|\n"
               "       info-hiding] [--defense shadowstack|none] [--lines N]\n"
               "  replay BUNDLE_DIR   re-execute the cell a crash bundle recorded\n"
               "  replay-campaign BUNDLE_DIR   re-execute a generated attack campaign\n"
               "                      from its bundle (or a bare campaign-spec JSON file)\n"
               "  serve --socket PATH [--jobs N] [--quiet]\n"
               "                      resident campaign engine behind a local UNIX socket\n"
               "                      (newline-delimited JSON: ping|workloads|submit|status|\n"
               "                      cancel|wait|run_cell|shutdown)\n"
               "  request --socket PATH 'JSON'   send one request to a running serve\n"
               "                      instance and print the response (exit 0 iff ok)\n");
  return 2;
}

// Parses a decimal count with nothing after it into *out; `min` rejects 0
// where it means nothing.
bool ParseCount(const char* text, uint64_t min, uint64_t* out) {
  if (text == nullptr || *text < '0' || *text > '9') {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  *out = std::strtoull(text, &end, 10);
  return errno == 0 && *end == '\0' && *out >= min;
}

// The largest --jobs `run` and `serve` accept (0 = hardware_concurrency).
constexpr uint64_t kMaxJobs = 1024;

// Parses one flag's value (the argument after it); false when malformed.
using Setter = std::function<bool(const char* value)>;

Setter Count(uint64_t* out, uint64_t min = 0, uint64_t max = UINT64_MAX) {
  return [=](const char* v) { return ParseCount(v, min, out) && *out <= max; };
}

Setter Text(std::string* out) {
  return [=](const char* v) {
    *out = v;
    return true;
  };
}

// The space-separated parsing of every command but `run`: `values` are the
// flags that take the next argument, `switches` the flags that set a bool.
// An unknown flag, a flag without its value, a malformed value, or a
// positional argument where `positional` is null prints the argument and
// returns false (the caller exits 2) rather than running with defaults.
bool ParseFlags(const char* command, int argc, char** argv,
                const std::map<std::string, Setter>& values,
                const std::map<std::string, bool*>& switches = {},
                std::vector<std::string>* positional = nullptr) {
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto flag = values.find(arg);
    const char* value = flag != values.end() && i + 1 < argc ? argv[i + 1] : nullptr;
    bool ok = false;
    if (const auto on = switches.find(arg); on != switches.end()) {
      *on->second = true;
      ok = true;
    } else if (flag != values.end()) {
      ok = value != nullptr && *value != '\0' && flag->second(value);
      i += ok ? 1 : 0;
    } else if (positional != nullptr && arg.rfind('-', 0) != 0) {
      positional->push_back(arg);
      ok = true;
    }
    if (!ok) {
      std::fprintf(stderr, "%s: unknown or malformed argument: %s%s%s\n", command, arg.c_str(),
                   value != nullptr ? " " : "", value != nullptr ? value : "");
      return false;
    }
  }
  return true;
}

// `run <workload>`: one registered suite workload through a CampaignEngine
// of --jobs workers. Assembly prints the workload's tables; --json writes
// the single-workload report (schema 1: binary, instructions, wall_seconds,
// metrics + host trailer). Crashes and escapes land as replayable bundles
// under --bundle-root, after trimming earlier bundles to the retention caps.
int RunWorkload(int argc, char** argv) {
  const eval::WorkloadRegistry& registry = suite::SuiteRegistry();
  const std::string name = argc > 0 ? argv[0] : "";
  const eval::Workload* workload = registry.Find(name);
  if (workload == nullptr) {
    std::fprintf(stderr, "run: unknown workload '%s'; registered workloads:\n", name.c_str());
    for (const eval::Workload& w : registry.workloads()) {
      std::fprintf(stderr, "  %s\n", w.name.c_str());
    }
    return 2;
  }

  eval::WorkloadOptions options;
  options.print = true;
  int jobs = 0;  // 0 = hardware_concurrency
  std::string json_path;
  std::string bundle_root = "crash_bundles";
  std::vector<std::string> bad;
  for (const std::string& arg : eval::ParseWorkloadArgs(argc, argv, options)) {
    const size_t eq = arg.find('=');
    const std::string flag = arg.substr(0, eq);
    const char* value = eq == std::string::npos ? nullptr : arg.c_str() + eq + 1;
    uint64_t n = 0;
    if (flag == "--json" && value != nullptr && *value != '\0') {
      json_path = value;
    } else if (flag == "--bundle-root" && value != nullptr && *value != '\0') {
      bundle_root = value;
    } else if (flag == "--instructions" && ParseCount(value, 1, &n)) {
      options.experiment.target_instructions = n;
    } else if (flag == "--jobs" && ParseCount(value, 0, &n) && n <= kMaxJobs) {
      jobs = static_cast<int>(n);
    } else {
      bad.push_back(arg);
    }
  }
  if (!bad.empty()) {
    for (const std::string& arg : bad) {
      std::fprintf(stderr, "run: unknown or malformed argument: %s\n", arg.c_str());
    }
    return Usage();
  }

  // The run configuration, recorded in crash-bundle manifests so a replay
  // can reconstruct the exact cell.
  json::Value config = json::Value::Object();
  config.Set("instructions", options.experiment.target_instructions);
  config.Set("jobs", jobs);
  config.Set("fastpath", base::FastPathModeName(base::GetFastPathMode()));
  options.extra["config_json"] = config.Dump(0);

  // Retention first: bundles from earlier runs are trimmed to the caps,
  // anything stamped from this instant on is protected. Then any crash
  // produces a bundle for the cell running on the failing thread.
  const base::CrashGcStats gc = base::CollectCrashBundles(
      bundle_root, base::CrashBundleCaps{}, static_cast<int64_t>(std::time(nullptr)));
  if (gc.bundles_removed > 0) {
    std::fprintf(stderr, "[%s] crash-bundle gc: removed %zu stale bundle(s) (%llu bytes)\n",
                 name.c_str(), gc.bundles_removed,
                 static_cast<unsigned long long>(gc.bytes_removed));
  }
  base::CrashContext process;
  process.binary = name;
  process.seed = options.experiment.seed;
  process.config_json = options.extra["config_json"];
  base::InstallCrashHandler(bundle_root, process);

  eval::EngineOptions engine_options;
  engine_options.jobs = jobs;
  eval::CampaignEngine engine(&registry, engine_options);
  // A cell that throws is reported by the engine and fails the job (status 1).
  const eval::JobReport* job = engine.Wait(engine.Submit(name, options));
  std::fflush(stdout);
  if (json_path.empty()) {
    return job->status;
  }
  json::Value metrics = job->report.metrics();
  eval::AddHostTrailer(*job, metrics);
  json::Value doc = json::Value::Object();
  doc.Set("schema", 1);
  doc.Set("binary", name);
  doc.Set("instructions", options.experiment.target_instructions);
  doc.Set("wall_seconds", job->wall_seconds);
  doc.Set("metrics", std::move(metrics));
  // Atomic write: a crash mid-report leaves no torn JSON behind.
  if (Status s = json::WriteFileAtomic(json_path, doc); !s.ok()) {
    std::fprintf(stderr, "run: %s\n", s.ToString().c_str());
    return 1;
  }
  return job->status;
}

int RunAttack(int argc, char** argv) {
  uint64_t bytes = 4096;
  if (!ParseFlags("attack", argc, argv, {{"--region-bytes", Count(&bytes, 1)}})) {
    return Usage();
  }
  for (const auto& r : attacks::RunAttackMatrix(bytes)) {
    std::printf("%-12s located=%-3s probes=%-4llu read=%-10s write=%-10s %s\n",
                core::TechniqueKindName(r.technique), r.region_located ? "yes" : "no",
                static_cast<unsigned long long>(r.locate_probes),
                attacks::OutcomeName(r.read_outcome), attacks::OutcomeName(r.write_outcome),
                r.detail.c_str());
  }
  return 0;
}

int RunAdvise(int argc, char** argv) {
  core::ScenarioSpec spec;
  spec.events_per_kinstr = 1.0;
  uint64_t year = static_cast<uint64_t>(spec.cpu_year);
  bool no_hypervisor = false;
  if (!ParseFlags("advise", argc, argv,
                  {{"--events",
                    [&](const char* v) {
                      char* end = nullptr;
                      spec.events_per_kinstr = std::strtod(v, &end);
                      return *end == '\0' && std::isfinite(spec.events_per_kinstr) &&
                             spec.events_per_kinstr >= 0;
                    }},
                   {"--bytes", Count(&spec.region_bytes, 1)},
                   {"--year", Count(&year, 1, 9999)}},
                  {{"--mpk", &spec.mpk_available}, {"--no-hypervisor", &no_hypervisor}})) {
    return Usage();
  }
  spec.cpu_year = static_cast<int>(year);
  spec.hypervisor_ok = !no_hypervisor;
  const core::Recommendation rec = core::Advise(spec);
  std::printf("recommendation: %s\n", core::TechniqueKindName(rec.primary));
  for (auto alt : rec.alternatives) {
    std::printf("alternative:    %s\n", core::TechniqueKindName(alt));
  }
  std::printf("rationale:      %s\n", rec.rationale.c_str());
  return 0;
}

// A technique by its lower-cased name (sfi, mpx, mpk, vmfunc, crypt, sgx,
// mprotect, info-hiding).
bool ParseTechnique(const std::string& name, core::TechniqueKind* out) {
  for (int k = 0; k < core::kNumTechniques; ++k) {
    const auto kind = static_cast<core::TechniqueKind>(k);
    std::string lower = core::TechniqueKindName(kind);
    for (char& c : lower) {
      c = static_cast<char>(std::tolower(c));
    }
    if (lower == name) {
      *out = kind;
      return true;
    }
  }
  return false;
}

int RunDump(int argc, char** argv) {
  const workloads::SpecProfile* profile = workloads::FindProfile("403.gcc");
  core::TechniqueKind kind = core::TechniqueKind::kMpx;
  eval::Defense defense = eval::Defense::kShadowStack;
  uint64_t lines = 60;
  if (!ParseFlags("dump", argc, argv,
                  {{"--benchmark",
                    [&](const char* v) {
                      profile = workloads::FindProfile(v);
                      return profile != nullptr;
                    }},
                   {"--technique", [&](const char* v) { return ParseTechnique(v, &kind); }},
                   {"--defense",
                    [&](const char* v) {
                      const std::string name = v;
                      defense = name == "none" ? eval::Defense::kNone : eval::Defense::kShadowStack;
                      return name == "none" || name == "shadowstack";
                    }},
                   {"--lines", Count(&lines)}})) {
    return Usage();
  }
  eval::CellRecipe recipe = eval::ExperimentRecipe(*profile, kind, defense);
  recipe.region_bytes = 4096;
  recipe.target_instructions = 2'000;  // a small module for reading
  const eval::PreparedCell cell = eval::PrepareCell(recipe);
  if (!cell.status.ok()) {
    std::fprintf(stderr, "protect failed: %s\n", cell.status.ToString().c_str());
    return 1;
  }
  const std::string text = ir::ToString(cell.module);
  uint64_t printed = 0;
  size_t pos = 0;
  while (printed < lines && pos < text.size()) {
    const size_t end = text.find('\n', pos);
    std::printf("%.*s\n", static_cast<int>(end - pos), text.c_str() + pos);
    pos = end + 1;
    ++printed;
  }
  if (pos < text.size()) {
    std::printf("... (%zu more lines)\n", std::count(text.begin() + pos, text.end(), '\n'));
  }
  return 0;
}

// `replay-campaign <bundle-or-spec>`: deterministically re-execute a
// generated attack campaign. Campaigns are pure functions of their serialized
// (spec, config), so the replay runs the exact step list — including shrunk
// minimal reproducers — and compares the outcome against the bundle's
// expectation: 0 when it reproduces, 1 when it diverges.
int ReplayCampaignSpec(const json::Value& replay) {
  auto parsed = attacks::CampaignFromJson(replay);
  if (!parsed.ok()) {
    std::fprintf(stderr, "replay-campaign: %s\n", parsed.status().ToString().c_str());
    return 2;
  }
  std::printf("replay-campaign: %s seed 0x%llx, %zu steps (policy %s, audit %s, budget %llu)\n",
              core::TechniqueKindName(parsed->spec.technique),
              static_cast<unsigned long long>(parsed->spec.seed), parsed->spec.steps.size(),
              parsed->config.mmap_policy ? "on" : "off",
              parsed->config.runtime_audit ? "on" : "off",
              static_cast<unsigned long long>(parsed->config.step_budget));
  for (const auto& step : parsed->spec.steps) {
    std::printf("  step %s a=0x%llx b=0x%llx c=0x%llx\n", attacks::StepKindName(step.kind),
                static_cast<unsigned long long>(step.a),
                static_cast<unsigned long long>(step.b),
                static_cast<unsigned long long>(step.c));
  }
  const attacks::CampaignResult result = attacks::RunCampaign(parsed->spec, parsed->config);
  std::printf("replay-campaign: outcome %s (steps %llu, budget %llu, probes %llu, "
              "repairs %d, quarantines %d, downgrades %d)\n",
              attacks::CampaignOutcomeName(result.outcome),
              static_cast<unsigned long long>(result.steps_run),
              static_cast<unsigned long long>(result.budget_used),
              static_cast<unsigned long long>(result.probes), result.repairs,
              result.quarantines, result.downgrades);
  if (!result.note.empty()) {
    std::printf("replay-campaign: detail: %s\n", result.note.c_str());
  }
  if (!replay.StringOr("expected", "").empty()) {
    if (result.outcome == parsed->expected) {
      std::printf("replay-campaign: reproduced the recorded outcome (%s)\n",
                  attacks::CampaignOutcomeName(parsed->expected));
      return 0;
    }
    std::fprintf(stderr, "replay-campaign: outcome diverged: bundle recorded %s, replay got %s\n",
                 attacks::CampaignOutcomeName(parsed->expected),
                 attacks::CampaignOutcomeName(result.outcome));
    return 1;
  }
  return 0;
}

// `serve` — bind the suite registry's workloads behind a local UNIX socket.
// The engine outlives every request, so repeated submissions share one warm
// decode cache and run memo; src/eval/serve.h documents the wire protocol.
// The flags are strict and space-separated: anything but `--socket PATH`,
// `--jobs N` and `--quiet` exits 2 and names the argument rather than
// serving with defaults.
int RunServe(int argc, char** argv) {
  eval::ServeOptions options;
  options.registry = &suite::SuiteRegistry();
  uint64_t jobs = 0;
  if (!ParseFlags("serve", argc, argv,
                  {{"--socket", Text(&options.socket_path)}, {"--jobs", Count(&jobs, 0, kMaxJobs)}},
                  {{"--quiet", &options.quiet}})) {
    return Usage();
  }
  options.jobs = static_cast<int>(jobs);
  if (options.socket_path.empty()) {
    std::fprintf(stderr, "serve: --socket PATH is required\n");
    return Usage();
  }
  return eval::ServeLoop(options);
}

// `request` — the client half of `serve`: send one JSON request line to a
// running server and print the response line. Exit 0 only when the server
// answered {"ok":true}, so shell smoke tests can chain requests with `&&`.
int RunRequest(int argc, char** argv) {
  std::string socket_path;
  std::vector<std::string> raw;
  if (!ParseFlags("request", argc, argv, {{"--socket", Text(&socket_path)}}, {}, &raw)) {
    return Usage();
  }
  if (socket_path.empty() || raw.size() != 1) {
    std::fprintf(stderr, "request: usage: request --socket PATH 'JSON'\n");
    return Usage();
  }
  auto request = json::Parse(raw[0]);
  if (!request.ok()) {
    std::fprintf(stderr, "request: not valid JSON: %s\n", request.status().ToString().c_str());
    return 2;
  }
  auto response = eval::ServeRequest(socket_path, request.value());
  if (!response.ok()) {
    std::fprintf(stderr, "request: %s\n", response.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", response->Dump(0).c_str());
  return response->BoolOr("ok", false) ? 0 : 1;
}

int RunReplayCampaign(int argc, char** argv) {
  if (argc < 1) {
    return Usage();
  }
  const std::string path = argv[0];
  // Accept a crash-bundle directory (manifest.json holds the replay spec)
  // or a bare campaign-spec JSON file.
  if (auto manifest = json::ParseFile(path + "/manifest.json"); manifest.ok()) {
    const json::Value* replay = manifest->Find("replay");
    if (replay == nullptr || !replay->is_object()) {
      std::fprintf(stderr, "replay-campaign: bundle has no replay spec (cell \"%s\")\n",
                   manifest->StringOr("cell", "?").c_str());
      return 2;
    }
    return ReplayCampaignSpec(*replay);
  }
  auto spec = json::ParseFile(path);
  if (!spec.ok()) {
    std::fprintf(stderr, "replay-campaign: %s is neither a bundle dir nor a spec file (%s)\n",
                 path.c_str(), spec.status().ToString().c_str());
    return 2;
  }
  return ReplayCampaignSpec(*spec);
}

// `replay <bundle>`: parse the bundle's manifest.json and deterministically
// re-execute the cell it recorded. Fault-campaign cells derive all their
// randomness from (seed, technique, site), so the replay is bit-for-bit the
// original run:
//   - forced-crash bundles re-run with the same force_crash hook and abort
//     at the same point (exit mirrors the original SIGABRT death);
//   - escape bundles re-run the cell and compare the outcome against the
//     manifest's expected outcome: 0 when it reproduces, 1 when it doesn't.
int RunReplay(int argc, char** argv) {
  if (argc < 1) {
    return Usage();
  }
  const std::string bundle = argv[0];
  auto manifest = json::ParseFile(bundle + "/manifest.json");
  if (!manifest.ok()) {
    std::fprintf(stderr, "replay: %s\n", manifest.status().ToString().c_str());
    return 2;
  }
  const json::Value* replay = manifest->Find("replay");
  if (replay == nullptr || !replay->is_object()) {
    std::fprintf(stderr, "replay: bundle has no replay spec (cell \"%s\", reason \"%s\")\n",
                 manifest->StringOr("cell", "?").c_str(),
                 manifest->StringOr("reason", "?").c_str());
    return 2;
  }
  const std::string kind = replay->StringOr("kind", "");
  if (kind == "attack_campaign") {
    return ReplayCampaignSpec(*replay);
  }
  if (kind != "fault_cell") {
    std::fprintf(stderr, "replay: unsupported replay kind \"%s\"\n", kind.c_str());
    return 2;
  }

  const std::string technique = replay->StringOr("technique", "");
  const std::string site = replay->StringOr("site", "");
  attacks::FaultCampaignOptions options;
  options.seed = static_cast<uint64_t>(replay->NumberOr("seed", 0));
  options.force_crash = replay->StringOr("force_crash", "");
  const std::string expected = replay->StringOr("expected", "");

  // Resolve the cell by its names against the matrix — the names in the
  // manifest are exactly the names the matrix prints, so an unknown pair
  // means a stale or hand-edited bundle.
  for (const auto& [cell_kind, cell_site] : attacks::FaultMatrixCells()) {
    if (technique != core::TechniqueKindName(cell_kind) ||
        site != sim::FaultSiteName(cell_site)) {
      continue;
    }
    std::printf("replay: cell %s/%s seed 0x%llx%s\n", technique.c_str(), site.c_str(),
                static_cast<unsigned long long>(options.seed),
                options.force_crash.empty() ? "" : " (forced crash armed)");
    // A forced-crash replay aborts inside RunFaultCell, reproducing the
    // original death; control only returns here for surviving cells.
    const attacks::FaultCellResult cell = attacks::RunFaultCell(cell_kind, cell_site, options);
    std::printf("replay: outcome %s (repairs %d, quarantines %d, downgrades %d)\n",
                attacks::ContainmentName(cell.outcome), cell.repairs, cell.quarantines,
                cell.downgrades);
    if (!cell.detail.empty()) {
      std::printf("replay: detail: %s\n", cell.detail.c_str());
    }
    if (!expected.empty()) {
      if (expected == attacks::ContainmentName(cell.outcome)) {
        std::printf("replay: reproduced the recorded outcome (%s)\n", expected.c_str());
        return 0;
      }
      std::fprintf(stderr, "replay: outcome diverged: bundle recorded %s, replay got %s\n",
                   expected.c_str(), attacks::ContainmentName(cell.outcome));
      return 1;
    }
    return 0;
  }
  std::fprintf(stderr, "replay: unknown fault-matrix cell %s/%s\n", technique.c_str(),
               site.c_str());
  return 2;
}

}  // namespace
}  // namespace memsentry

int main(int argc, char** argv) {
  using namespace memsentry;
  if (argc < 2) {
    return Usage();
  }
  const std::string command = argv[1];
  if (command == "run") {
    return RunWorkload(argc - 2, argv + 2);
  }
  if (command == "attack") {
    return RunAttack(argc - 2, argv + 2);
  }
  if (command == "advise") {
    return RunAdvise(argc - 2, argv + 2);
  }
  if (command == "dump") {
    return RunDump(argc - 2, argv + 2);
  }
  if (command == "replay") {
    return RunReplay(argc - 2, argv + 2);
  }
  if (command == "replay-campaign") {
    return RunReplayCampaign(argc - 2, argv + 2);
  }
  if (command == "serve") {
    return RunServe(argc - 2, argv + 2);
  }
  if (command == "request") {
    return RunRequest(argc - 2, argv + 2);
  }
  return Usage();
}
