#include "src/attacks/victim.h"

#include <cstring>
#include <string>
#include <utility>

#include "src/aes/aes128.h"

namespace memsentry::attacks {

uint64_t VictimSeed(uint64_t seed, core::TechniqueKind kind, const std::string& label) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : std::string(core::TechniqueKindName(kind)) + "/" + label) {
    h = (h ^ static_cast<uint8_t>(c)) * 0x100000001b3ULL;
  }
  return seed ^ h;
}

Victim::Victim(core::TechniqueKind kind, std::vector<core::TechniqueKind> fallbacks)
    : process_(&machine_),
      kernel_(&process_),
      memsentry_(&process_, [&] {
        core::MemSentryConfig config;
        config.technique = kind;
        config.fallbacks = std::move(fallbacks);
        return config;
      }()) {
  if (kind == core::TechniqueKind::kVmfunc) {
    (void)process_.EnableDune();
  }
  (void)process_.SetupStack();
  (void)process_.MapRange(sim::kWorkingSetBase, 16, machine::PageFlags::Data());
  kernel_.Install();
}

Status Victim::AllocSecrets(uint64_t region_bytes, int count) {
  for (int i = 0; i < count; ++i) {
    auto region = memsentry_.allocator().Alloc(
        i == 0 ? std::string("secret") : "secret-" + std::to_string(i), region_bytes);
    MEMSENTRY_RETURN_IF_ERROR(region.status());
    (void)process_.Poke64(region.value()->base, kSecret);
    regions_.push_back(region.value());
  }
  return OkStatus();
}

void Victim::Audit(int& repairs, int& quarantines) {
  for (const auto& issue : technique().AuditProtection(process_)) {
    ++(issue.repaired ? repairs : quarantines);
  }
}

WriteVerdict Victim::JudgeWrite(VirtAddr va, uint64_t value) {
  if (!process_.InSafeRegion(va)) {
    return WriteVerdict::kMissed;  // attacker-reachable memory: no victim damage
  }
  if (memsentry_.active_technique() == core::TechniqueKind::kCrypt) {
    for (sim::SafeRegion* region : regions_) {
      // The decrypted word must lie inside the region; a write straddling
      // its end is judged on raw memory like any other.
      if (!region->Contains(va) || va - region->base + sizeof(uint64_t) > region->size) {
        continue;
      }
      std::vector<uint8_t> bytes(region->size);
      if (!process_.PeekBytes(region->base, bytes.data(), region->size).ok()) {
        return WriteVerdict::kMissed;
      }
      aes::CryptRegion(bytes, region->enc_keys, region->nonce);
      uint64_t decrypted = 0;
      std::memcpy(&decrypted, bytes.data() + (va - region->base), sizeof(decrypted));
      return decrypted == value ? WriteVerdict::kDecrypted : WriteVerdict::kGarbled;
    }
  }
  auto now = process_.Peek64(va);
  return now.ok() && now.value() == value ? WriteVerdict::kLanded : WriteVerdict::kMissed;
}

}  // namespace memsentry::attacks
