#include "src/workloads/server.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "src/base/rng.h"
#include "src/ir/builder.h"
#include "src/mpk/mpk.h"
#include "src/sim/decode_cache.h"
#include "src/sim/executor.h"

namespace memsentry::workloads {
namespace {

using sim::Kernel;
using sim::Sysno;

// Nominal modeled cost of one request, used only to scale the arrival
// horizon. Deliberately technique-independent: every technique faces the
// same arrival schedule, so latency differences are purely technique-induced.
inline constexpr double kNominalRequestCycles = 3000.0;
// The cost model is calibrated against a 4 GHz part (Table 4); requests/sec
// reports modeled throughput at that nominal clock.
inline constexpr double kNominalHz = 4e9;

// Request phases, in order. Phases are the scheduler's atomic unit.
inline constexpr int kPhaseSetup = 0;
inline constexpr int kPhaseHandshake = 1;
inline constexpr int kPhaseIo = 2;
inline constexpr int kPhaseTeardown = 3;

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Stateless per-(tenant, request) nonce so phase execution never consumes a
// shared RNG stream — interleaving order can't perturb anything.
uint64_t RequestNonce(uint64_t seed, uint16_t tenant, uint64_t seq) {
  return SplitMix(seed ^ SplitMix(tenant + 1) ^ SplitMix(seq ^ 0xd6e8feb866cc9c21ULL));
}

struct Fnv {
  uint64_t h = 0xcbf29ce484222325ULL;
  void Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  void MixCycles(Cycles c) { Mix(std::bit_cast<uint64_t>(static_cast<double>(c))); }
};

Cycles NearestRank(const std::vector<Cycles>& sorted, double p) {
  if (sorted.empty()) {
    return 0;
  }
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(sorted.size())));
  rank = std::max<size_t>(1, std::min(rank, sorted.size()));
  return sorted[rank - 1];
}

}  // namespace

const char* ServerTechniqueName(ServerTechnique technique) {
  switch (technique) {
    case ServerTechnique::kInfoHide: return "info-hide";
    case ServerTechnique::kMpk: return "mpk";
    case ServerTechnique::kCrypt: return "crypt";
    case ServerTechnique::kSfi: return "sfi";
    case ServerTechnique::kMprotect: return "mprotect";
  }
  return "?";
}

std::vector<ServerTechnique> AllServerTechniques() {
  return {ServerTechnique::kInfoHide, ServerTechnique::kMpk, ServerTechnique::kCrypt,
          ServerTechnique::kSfi, ServerTechnique::kMprotect};
}

ServerEngine::ServerEngine(const ServerConfig& config)
    : config_(config), process_(&machine_), kernel_(&process_) {}

VirtAddr ServerEngine::TenantSecretBase(int tenant) const {
  return sim::kSafeRegionBase + static_cast<uint64_t>(tenant) * kPageSize;
}

VirtAddr ServerEngine::TenantScratchBase(int tenant) const {
  return sim::kWorkingSetBase + static_cast<uint64_t>(tenant) * kPageSize;
}

uint8_t ServerEngine::TenantKey(int tenant) const {
  return tenant < static_cast<int>(tenant_keys_.size()) ? tenant_keys_[tenant] : 0;
}

machine::Pkru ServerEngine::AtRestPkru() const {
  machine::Pkru pkru{};
  if (config_.technique == ServerTechnique::kMpk) {
    // Every usable key closed: the server's steady state can reach no
    // tenant's secret. With >15 tenants keys are multiplexed, so "closed"
    // necessarily means closed for whole key-sharing cohorts at once.
    for (uint8_t key = 1; key < mpk::kNumKeys; ++key) {
      pkru.SetAccessDisable(key, true);
      pkru.SetWriteDisable(key, true);
    }
  }
  return pkru;
}

machine::Pkru ServerEngine::OpenPkru(int tenant) const {
  machine::Pkru pkru = AtRestPkru();
  if (config_.technique == ServerTechnique::kMpk) {
    pkru.SetAccessDisable(TenantKey(tenant), false);
    pkru.SetWriteDisable(TenantKey(tenant), false);
  }
  return pkru;
}

Status ServerEngine::Setup() {
  const int n = config_.tenants;
  if (n <= 0 || n > 60000) {  // ASIDs are uint16_t; 0 is reserved
    return InvalidArgument("tenant count out of range");
  }
  if (config_.safe_region_bytes == 0 || config_.safe_region_bytes > kPageSize) {
    return InvalidArgument("safe_region_bytes must be in (0, page]");
  }
  MEMSENTRY_RETURN_IF_ERROR(process_.SetupStack());
  kernel_.Install();

  tenant_keys_.assign(static_cast<size_t>(n), 0);
  std::vector<uint8_t> key_pool;
  if (config_.technique == ServerTechnique::kMpk) {
    // Allocate the 15 usable keys once through the real pkey_alloc surface;
    // tenants beyond 15 share keys round-robin (the libmpk-style
    // virtualization story: hardware has 16 keys, deployments have more
    // domains).
    for (int i = 1; i < mpk::kNumKeys; ++i) {
      const uint64_t rv = kernel_.Dispatch(static_cast<uint64_t>(Sysno::kPkeyAlloc), 0, 0);
      if (sim::IsSysError(rv)) {
        return InternalError("pkey_alloc failed during setup");
      }
      key_pool.push_back(static_cast<uint8_t>(rv));
    }
  }

  Rng secrets(config_.seed ^ 0xa11ce5c0ff3eULL);
  for (int t = 0; t < n; ++t) {
    const VirtAddr scratch = TenantScratchBase(t);
    const VirtAddr base = TenantSecretBase(t);
    MEMSENTRY_RETURN_IF_ERROR(process_.MapRange(scratch, 1, machine::PageFlags::Data()));
    MEMSENTRY_RETURN_IF_ERROR(process_.MapRange(base, 1, machine::PageFlags::Data()));
    sim::SafeRegion& region =
        process_.AddSafeRegion("tenant" + std::to_string(t), base, config_.safe_region_bytes);
    for (uint64_t off = 0; off + 8 <= config_.safe_region_bytes; off += 8) {
      MEMSENTRY_RETURN_IF_ERROR(process_.Poke64(base + off, secrets.Next()));
    }
    switch (config_.technique) {
      case ServerTechnique::kMpk: {
        const uint8_t key = key_pool[static_cast<size_t>(t) % key_pool.size()];
        tenant_keys_[static_cast<size_t>(t)] = key;
        const uint64_t packed = (uint64_t{1} << 8) | key;
        const uint64_t rv =
            kernel_.Dispatch(static_cast<uint64_t>(Sysno::kPkeyMprotect), base, packed);
        if (sim::IsSysError(rv)) {
          return InternalError("pkey_mprotect failed during setup");
        }
        region.pkey = key;
        break;
      }
      case ServerTechnique::kCrypt: {
        aes::Block key_block{};
        for (int i = 0; i < 2; ++i) {
          const uint64_t word = secrets.Next();
          std::memcpy(key_block.data() + 8 * i, &word, 8);
        }
        region.enc_keys = aes::ExpandKey(key_block);
        region.nonce = secrets.Next();
        region.crypt = true;
        MEMSENTRY_RETURN_IF_ERROR(process_.CryptToggle(region, config_.safe_region_bytes));
        break;
      }
      case ServerTechnique::kMprotect: {
        const uint64_t rv =
            kernel_.Dispatch(static_cast<uint64_t>(Sysno::kMprotect), base, sim::kProtNone);
        if (sim::IsSysError(rv)) {
          return InternalError("mprotect failed during setup");
        }
        region.mprotected = true;
        break;
      }
      case ServerTechnique::kSfi:
      case ServerTechnique::kInfoHide:
        break;
    }
  }
  process_.regs().pkru = AtRestPkru();
  MEMSENTRY_RETURN_IF_ERROR(BuildSharedRequestStream());
  setup_done_ = true;
  return OkStatus();
}

namespace {

// One connection's request path (setup / handshake / io / teardown) as a
// straight-line IR stream, with the technique's per-access story inlined:
// SFI masks every pointer, MPK brackets the handshake in wrpkru, mprotect
// opens and closes the safe regions, crypt pays AES vector rounds. Content
// depends only on the technique, so every engine of one technique keys the
// same DecodeCache entry no matter its tenant count.
ir::Module BuildRequestModule(ServerTechnique technique) {
  using machine::Gpr;
  ir::Module m;
  ir::Builder b(&m);
  b.CreateFunction("request");
  const VirtAddr scratch = sim::kWorkingSetBase;  // tenant-0 scratch page

  auto mask = [&](Gpr reg) {
    if (technique == ServerTechnique::kSfi) {
      b.AndImm(reg, ~uint64_t{0}).flags |= ir::kFlagInstrumentation;
    }
  };

  // Setup: parse the connection, stash session state, one accept syscall.
  // The scratch base lives in r12 — syscalls overwrite rax with their
  // return value.
  b.MovImm(Gpr::kR12, scratch);
  b.MovImm(Gpr::kRbx, 0x5e9f);
  mask(Gpr::kR12);
  b.Store(Gpr::kR12, Gpr::kRbx);
  b.Load(Gpr::kRcx, Gpr::kR12);
  b.Syscall(static_cast<uint64_t>(Sysno::kNop));

  // Handshake: open the safe region, touch the secret, do the AES work.
  ir::Instr open;
  ir::Instr close;
  switch (technique) {
    case ServerTechnique::kMpk:
      open.op = ir::Opcode::kWrpkru;
      open.imm = 0;  // all keys open
      close.op = ir::Opcode::kWrpkru;
      close.imm = 0xfffffffc;  // every key but 0 closed, as at rest
      break;
    case ServerTechnique::kMprotect:
      open.op = ir::Opcode::kMprotect;
      open.imm = 1;
      close.op = ir::Opcode::kMprotect;
      close.imm = 0;
      break;
    default:
      open.op = ir::Opcode::kNop;
      close.op = ir::Opcode::kNop;
      break;
  }
  b.Emit(open);
  b.Lea(Gpr::kRdx, Gpr::kR12, 16);
  mask(Gpr::kRdx);
  b.Load(Gpr::kRsi, Gpr::kRdx);
  const int aes_rounds = technique == ServerTechnique::kCrypt ? 22 : 11;
  for (int i = 0; i < aes_rounds; ++i) {
    b.VecOp(i & 3);
  }
  b.AluRR(Gpr::kRsi, Gpr::kRcx, /*xor*/ 2);
  b.Store(Gpr::kRdx, Gpr::kRsi);
  b.Emit(close);

  // IO: two write()-heavy rounds, then teardown and halt.
  for (int i = 0; i < 2; ++i) {
    b.Load(Gpr::kRdi, Gpr::kR12);
    b.AddImm(Gpr::kRdi, 1);
    b.Syscall(static_cast<uint64_t>(Sysno::kWrite));
  }
  b.MovImm(Gpr::kRbx, 0);
  b.Store(Gpr::kR12, Gpr::kRbx);
  b.Syscall(static_cast<uint64_t>(Sysno::kNop));
  b.Halt();
  return m;
}

}  // namespace

Status ServerEngine::BuildSharedRequestStream() {
  request_module_ = BuildRequestModule(config_.technique);
  // Every tenant draws its decoded stream from the shared cache: the first
  // draw anywhere in the suite lowers, every other tenant (and every other
  // engine of this technique) hits.
  for (int t = 0; t < config_.tenants; ++t) {
    decoded_request_ = sim::DecodeCache::Global().Get(request_module_, process_);
  }
  // One bounded run on a scratch machine proves the shared lowering
  // actually executes the request path; the engine's own machine state (and
  // therefore every modeled digest) is untouched.
  sim::Machine scratch_machine;
  sim::Process scratch(&scratch_machine);
  MEMSENTRY_RETURN_IF_ERROR(scratch.SetupStack());
  sim::Kernel scratch_kernel(&scratch);
  scratch_kernel.Install();
  MEMSENTRY_RETURN_IF_ERROR(
      scratch.MapRange(sim::kWorkingSetBase, 1, machine::PageFlags::Data()));
  // Deliberately no SetDecoded: the executor draws from the cache itself
  // (one more deterministic hit), keeping the suite-wide hit count
  // independent of cell scheduling.
  sim::Executor executor(&scratch, &request_module_);
  sim::RunConfig run_config;
  run_config.max_instructions = 4096;
  const sim::RunResult r = executor.Run(run_config);
  if (r.fault.has_value() || !r.halted) {
    char detail[96] = {0};
    if (r.fault.has_value()) {
      std::snprintf(detail, sizeof(detail), "faulted: %s @ 0x%llx after %llu instrs",
                    machine::FaultTypeName(r.fault->type),
                    static_cast<unsigned long long>(r.fault->address),
                    static_cast<unsigned long long>(r.instructions));
    }
    std::string why = r.fault.has_value() ? std::string(detail) : std::string("did not halt");
    return InternalError("shared request stream failed its validation run (" + why + ")");
  }
  return OkStatus();
}

Cycles ServerEngine::TouchRead(VirtAddr va) {
  Cycles cycles = machine_.cost.load_slot;
  auto read = process_.mmu().Read64(va, process_.regs().pkru, &cycles);
  if (!read.ok()) {
    ++faults_;
  }
  return cycles;
}

Cycles ServerEngine::TouchWrite(VirtAddr va, uint64_t value) {
  Cycles cycles = machine_.cost.store_slot;
  auto write = process_.mmu().Write64(va, value, process_.regs().pkru, &cycles);
  if (!write.ok()) {
    ++faults_;
  }
  return cycles;
}

Cycles ServerEngine::OpenRegion(int tenant) {
  const machine::CostModel& cost = machine_.cost;
  switch (config_.technique) {
    case ServerTechnique::kInfoHide:
    case ServerTechnique::kSfi:
      return 0;  // SFI pays per access, info-hide pays nothing
    case ServerTechnique::kMpk:
      process_.regs().pkru = OpenPkru(tenant);
      return cost.wrpkru;
    case ServerTechnique::kMprotect: {
      (void)kernel_.Dispatch(static_cast<uint64_t>(Sysno::kMprotect), TenantSecretBase(tenant),
                             sim::kProtRw);
      return cost.mprotect_call;
    }
    case ServerTechnique::kCrypt: {
      // Genuinely decrypt in place (keys conceptually live in ymm uppers);
      // one CTR pass is ~11 AES rounds per block plus the key extraction.
      sim::SafeRegion& region = process_.safe_regions()[static_cast<size_t>(tenant)];
      (void)process_.CryptToggle(region, config_.safe_region_bytes);
      const double blocks =
          std::ceil(static_cast<double>(config_.safe_region_bytes) / aes::kBlockSize);
      return blocks * cost.aes_round * 11.0 + cost.ymm_to_xmm_all_keys;
    }
  }
  return 0;
}

Cycles ServerEngine::CloseRegion(int tenant) {
  const machine::CostModel& cost = machine_.cost;
  switch (config_.technique) {
    case ServerTechnique::kInfoHide:
    case ServerTechnique::kSfi:
      return 0;
    case ServerTechnique::kMpk:
      process_.regs().pkru = AtRestPkru();
      return cost.wrpkru + cost.mpk_clobber_spills;
    case ServerTechnique::kMprotect: {
      (void)kernel_.Dispatch(static_cast<uint64_t>(Sysno::kMprotect), TenantSecretBase(tenant),
                             sim::kProtNone);
      return cost.mprotect_call;
    }
    case ServerTechnique::kCrypt: {
      sim::SafeRegion& region = process_.safe_regions()[static_cast<size_t>(tenant)];
      (void)process_.CryptToggle(region, config_.safe_region_bytes);
      const double blocks =
          std::ceil(static_cast<double>(config_.safe_region_bytes) / aes::kBlockSize);
      return blocks * cost.aes_round * 11.0 + cost.ymm_to_xmm_all_keys;
    }
  }
  return 0;
}

Cycles ServerEngine::RunPhase(uint16_t tenant, uint64_t seq, int phase, bool* done) {
  const machine::CostModel& cost = machine_.cost;
  const VirtAddr scratch = TenantScratchBase(tenant);
  const uint64_t nonce = RequestNonce(config_.seed, tenant, seq);
  Cycles cycles = 0;
  switch (phase) {
    case kPhaseSetup: {
      // Accept the connection: parse, allocate session state, one syscall.
      cycles += 16 * cost.alu_slot;
      cycles += TouchWrite(scratch, nonce);
      cycles += TouchWrite(scratch + 8, seq);
      cycles += TouchRead(scratch);
      (void)kernel_.Dispatch(static_cast<uint64_t>(Sysno::kNop), 0, 0);
      cycles += cost.syscall;
      break;
    }
    case kPhaseHandshake: {
      // Open the safe region, derive a session key from the tenant secret,
      // encrypt the client challenge with real AES-128, close the region.
      cycles += OpenRegion(tenant);
      const VirtAddr secret = TenantSecretBase(tenant);
      uint64_t s0 = 0;
      uint64_t s1 = 0;
      {
        Cycles access = 0;
        auto r0 = process_.mmu().Read64(secret, process_.regs().pkru, &access);
        auto r1 = process_.mmu().Read64(secret + 8, process_.regs().pkru, &access);
        cycles += access + 2 * cost.load_slot;
        if (r0.ok()) {
          s0 = r0.value();
        } else {
          ++faults_;
        }
        if (r1.ok()) {
          s1 = r1.value();
        } else {
          ++faults_;
        }
      }
      if (config_.technique == ServerTechnique::kSfi) {
        // Address-masked loads: the mask `and` feeds the load address.
        cycles += 2 * (cost.sfi_and_slot + cost.sfi_and_dep_latency);
      }
      aes::Block session_key{};
      std::memcpy(session_key.data(), &s0, 8);
      std::memcpy(session_key.data() + 8, &s1, 8);
      const aes::KeySchedule schedule = aes::ExpandKey(session_key);
      aes::Block challenge{};
      std::memcpy(challenge.data(), &nonce, 8);
      const uint64_t nonce2 = SplitMix(nonce);
      std::memcpy(challenge.data() + 8, &nonce2, 8);
      const aes::Block response = aes::EncryptBlock(challenge, schedule);
      cycles += cost.aes_keygen10 + cost.aes_round * 11.0;
      uint64_t out0 = 0;
      uint64_t out1 = 0;
      std::memcpy(&out0, response.data(), 8);
      std::memcpy(&out1, response.data() + 8, 8);
      cycles += TouchWrite(scratch + 16, out0);
      cycles += TouchWrite(scratch + 24, out1);
      cycles += CloseRegion(tenant);
      break;
    }
    case kPhaseIo: {
      // Serve the response: write()-heavy I/O through the kernel.
      for (int i = 0; i < config_.io_syscalls_per_request; ++i) {
        cycles += TouchRead(scratch + 16);
        cycles += 8 * cost.alu_slot;
        (void)kernel_.Dispatch(static_cast<uint64_t>(Sysno::kWrite),
                               nonce ^ static_cast<uint64_t>(i), 0);
        cycles += cost.syscall;
      }
      break;
    }
    case kPhaseTeardown:
    default: {
      // Tear the connection down and release session state.
      cycles += 8 * cost.alu_slot;
      cycles += TouchWrite(scratch, 0);
      (void)kernel_.Dispatch(static_cast<uint64_t>(Sysno::kNop), 0, 0);
      cycles += cost.syscall;
      *done = true;
      break;
    }
  }
  return cycles;
}

ServerResult ServerEngine::Run() {
  MEMSENTRY_CONTRACT_CHECK(setup_done_, "ServerEngine::Run before Setup");
  const int n = config_.tenants;
  sim::Scheduler scheduler(config_.sched, static_cast<uint16_t>(n));
  const uint64_t total_requests =
      static_cast<uint64_t>(n) * static_cast<uint64_t>(config_.requests_per_tenant);
  const double horizon =
      static_cast<double>(total_requests) * kNominalRequestCycles / config_.offered_load;

  // Open-loop arrivals: per-tenant seeded uniform draws over the shared
  // horizon, submitted in arrival order per tenant (the scheduler's per-ASID
  // queues are FIFO).
  for (int t = 0; t < n; ++t) {
    Rng arrivals(config_.seed ^ (0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(t + 1)));
    std::vector<Cycles> when;
    when.reserve(static_cast<size_t>(config_.requests_per_tenant));
    for (int r = 0; r < config_.requests_per_tenant; ++r) {
      when.push_back(arrivals.NextDouble() * horizon);
    }
    std::sort(when.begin(), when.end());
    for (int r = 0; r < config_.requests_per_tenant; ++r) {
      scheduler.Submit(static_cast<uint16_t>(t), static_cast<uint64_t>(r),
                       when[static_cast<size_t>(r)]);
    }
  }

  // The context switch retargets the MMU's address space (no flush: PR 4's
  // ASID-tagged TLB and grant cache carry each tenant's warm state) and the
  // kernel's syscall attribution.
  scheduler.SetSwitchHook([this](uint16_t tenant) {
    process_.mmu().SetVpid(TenantAsid(tenant));
    kernel_.SetCurrentAsid(TenantAsid(tenant));
  });

  auto completed = scheduler.Run([this](uint16_t tenant, uint64_t seq, int phase, bool* done) {
    return RunPhase(tenant, seq, phase, done);
  });

  ServerResult result;
  result.requests = completed.size();
  result.faults = faults_;
  result.total_cycles = scheduler.clock();
  result.requests_per_sec =
      result.total_cycles > 0
          ? static_cast<double>(result.requests) / (result.total_cycles / kNominalHz)
          : 0.0;
  std::vector<Cycles> latencies;
  latencies.reserve(completed.size());
  for (const sim::CompletedRequest& request : completed) {
    latencies.push_back(request.completion - request.arrival);
  }
  std::sort(latencies.begin(), latencies.end());
  result.p50_latency = NearestRank(latencies, 0.50);
  result.p99_latency = NearestRank(latencies, 0.99);
  result.p999_latency = NearestRank(latencies, 0.999);
  result.tlb_hit_rate = process_.mmu().tlb().stats().HitRate();
  result.grant_hit_rate = process_.mmu().grant_stats().HitRate();
  result.context_switches = scheduler.stats().context_switches;
  result.preemptions = scheduler.stats().preemptions;
  result.syscalls = kernel_.total_syscalls();
  result.resident_vpids = process_.mmu().tlb().CountResidentVpids();

  Fnv digest;
  for (int t = 0; t < n; ++t) {
    digest.MixCycles(scheduler.tenant_busy_cycles(static_cast<uint16_t>(t)));
    digest.Mix(scheduler.tenant_completed(static_cast<uint16_t>(t)));
    digest.Mix(kernel_.asid_syscalls(TenantAsid(t)));
  }
  for (Cycles latency : latencies) {
    digest.MixCycles(latency);
  }
  // Grant-cache hit/miss counters are deliberately absent: with the fast
  // path off the cache is never consulted, so its counters differ across
  // modes by design (they are observability-only and never feed cycles).
  digest.Mix(process_.mmu().tlb().stats().hits);
  digest.Mix(process_.mmu().tlb().stats().misses);
  digest.Mix(result.faults);
  result.digest = digest.h;
  return result;
}

machine::FaultOr<uint64_t> ServerEngine::ProbeCrossTenantRead(int attacker, int victim) {
  process_.mmu().SetVpid(TenantAsid(attacker));
  Cycles cycles = 0;
  return process_.mmu().Read64(TenantSecretBase(victim), AtRestPkru(), &cycles);
}

ServerResult RunServerWorkload(const ServerConfig& config) {
  ServerEngine engine(config);
  const Status setup = engine.Setup();
  if (!setup.ok()) {
    std::fprintf(stderr, "server workload setup: %s\n", setup.message().c_str());
  }
  MEMSENTRY_CONTRACT_CHECK(setup.ok(), "server workload setup failed");
  return engine.Run();
}

}  // namespace memsentry::workloads
