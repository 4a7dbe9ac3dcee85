// Cross-commit pin of the adversarial results. attack_matrix, fault_matrix
// and attack_campaigns all attack one victim (src/attacks/victim.h), so a
// change to its set-up order, its secret or its write verdict would move
// all three at once. This test pins, as FNV-1a digests, every attack-matrix
// row, every fault-matrix cell at the default campaign seed and at
// 20170423, and every campaign of the default-size suite (125 per
// technique) at the default suite seed. The pinned values were recorded
// before the three harnesses shared a victim; any drift is a behavioural
// change, not noise. A mismatch prints an `observed {...}` line to paste
// over its entry after an intended change.
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>

#include <gtest/gtest.h>

#include "src/attacks/campaign_gen.h"
#include "src/attacks/fault_campaign.h"
#include "src/attacks/harness.h"

namespace memsentry {
namespace {

// FNV-1a over the bytes of each field, with a separator after every field.
class Digest {
 public:
  Digest& Add(uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      Mix(static_cast<uint8_t>(v >> (8 * byte)));
    }
    Mix(0xff);
    return *this;
  }
  Digest& Add(const std::string& s) {
    for (char c : s) {
      Mix(static_cast<uint8_t>(c));
    }
    Mix(0xff);
    return *this;
  }
  uint64_t value() const { return h_; }

 private:
  void Mix(uint8_t b) { h_ = (h_ ^ b) * 0x100000001b3ULL; }
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

struct Pinned {
  const char* name;
  uint64_t digest;
};

// Checks `digest` against the entry named `name`; returns whether one existed.
bool Check(const Pinned* begin, const Pinned* end, const std::string& name, uint64_t digest) {
  char line[160];
  std::snprintf(line, sizeof(line), "{\"%s\", 0x%016llxULL},", name.c_str(),
                static_cast<unsigned long long>(digest));
  for (const Pinned* p = begin; p != end; ++p) {
    if (name == p->name) {
      EXPECT_EQ(digest, p->digest) << "observed " << line;
      return true;
    }
  }
  ADD_FAILURE() << "no pinned entry; observed " << line;
  return false;
}

// clang-format off
constexpr Pinned kAttackMatrix[] = {
    {"SFI", 0xf8a95a8f901db0c6ULL},
    {"MPX", 0x5046620505e78c13ULL},
    {"MPK", 0xc788f48e53d0d3a2ULL},
    {"VMFUNC", 0x15b98f9228d5a0c6ULL},
    {"crypt", 0xf82fd8fe5f8d70faULL},
    {"SGX", 0x5868b32f56537fa4ULL},
    {"mprotect", 0xbae08472e6f7f96fULL},
    {"info-hiding", 0xe686767c74e08a29ULL},
};

constexpr Pinned kFaultCells[] = {
    {"0xfa017ca3/SFI/pte-present-clear", 0x3ec93dbd03b481c5ULL},
    {"0xfa017ca3/SFI/syscall-mmap-enomem", 0x4d3635ea85747f5aULL},
    {"0xfa017ca3/MPX/pte-present-clear", 0x6e86c820da43489bULL},
    {"0xfa017ca3/MPX/bnd-register-clobber", 0xc737c00effdd48d5ULL},
    {"0xfa017ca3/MPX/bnd-table-corrupt", 0xb34e9d10d0659c57ULL},
    {"0xfa017ca3/MPX/syscall-mmap-enomem", 0xc49d16f2ff8c6498ULL},
    {"0xfa017ca3/MPK/pte-present-clear", 0x4c402449629a32b3ULL},
    {"0xfa017ca3/MPK/pte-writable-clear", 0xf026ce10da570e26ULL},
    {"0xfa017ca3/MPK/pte-pkey-flip", 0x40f9d727896cce13ULL},
    {"0xfa017ca3/MPK/tlb-stale-entry", 0x46bc0a50bd247a91ULL},
    {"0xfa017ca3/MPK/pkru-desync", 0xa62d0234b7b2afd0ULL},
    {"0xfa017ca3/MPK/syscall-pkey-alloc-exhausted", 0x10826158661bcb54ULL},
    {"0xfa017ca3/VMFUNC/pte-present-clear", 0x9fde6605c3c7c71aULL},
    {"0xfa017ca3/VMFUNC/ept-mapping-drop", 0x035562ca30a04285ULL},
    {"0xfa017ca3/VMFUNC/tlb-stale-entry", 0x3885c124a21aefa2ULL},
    {"0xfa017ca3/crypt/pte-present-clear", 0xd1ab40c6d41bffb9ULL},
    {"0xfa017ca3/crypt/aes-round-key-clobber", 0xee3f394010d566afULL},
    {"0xfa017ca3/SGX/pte-present-clear", 0x6bd2404adf1c3d12ULL},
    {"0xfa017ca3/mprotect/pte-present-clear", 0x09075fed26db37e9ULL},
    {"0xfa017ca3/mprotect/tlb-stale-entry", 0xfb51e31241b02bd5ULL},
    {"0xfa017ca3/mprotect/syscall-mprotect-eacces", 0xee543e161036f647ULL},
    {"0x133c6b7/SFI/pte-present-clear", 0x3ec93dbd03b481c5ULL},
    {"0x133c6b7/SFI/syscall-mmap-enomem", 0x4d3635ea85747f5aULL},
    {"0x133c6b7/MPX/pte-present-clear", 0x6e86c820da43489bULL},
    {"0x133c6b7/MPX/bnd-register-clobber", 0xc737c00effdd48d5ULL},
    {"0x133c6b7/MPX/bnd-table-corrupt", 0xb34e9d10d0659c57ULL},
    {"0x133c6b7/MPX/syscall-mmap-enomem", 0xc49d16f2ff8c6498ULL},
    {"0x133c6b7/MPK/pte-present-clear", 0x4c402449629a32b3ULL},
    {"0x133c6b7/MPK/pte-writable-clear", 0xf026ce10da570e26ULL},
    {"0x133c6b7/MPK/pte-pkey-flip", 0x1a88e3cbafea53e4ULL},
    {"0x133c6b7/MPK/tlb-stale-entry", 0x46bc0a50bd247a91ULL},
    {"0x133c6b7/MPK/pkru-desync", 0xa62d0234b7b2afd0ULL},
    {"0x133c6b7/MPK/syscall-pkey-alloc-exhausted", 0x10826158661bcb54ULL},
    {"0x133c6b7/VMFUNC/pte-present-clear", 0x9fde6605c3c7c71aULL},
    {"0x133c6b7/VMFUNC/ept-mapping-drop", 0x035562ca30a04285ULL},
    {"0x133c6b7/VMFUNC/tlb-stale-entry", 0x3885c124a21aefa2ULL},
    {"0x133c6b7/crypt/pte-present-clear", 0xd1ab40c6d41bffb9ULL},
    {"0x133c6b7/crypt/aes-round-key-clobber", 0xc87a8001b30d1253ULL},
    {"0x133c6b7/SGX/pte-present-clear", 0x6bd2404adf1c3d12ULL},
    {"0x133c6b7/mprotect/pte-present-clear", 0x09075fed26db37e9ULL},
    {"0x133c6b7/mprotect/tlb-stale-entry", 0xfb51e31241b02bd5ULL},
    {"0x133c6b7/mprotect/syscall-mprotect-eacces", 0xee543e161036f647ULL},
};

constexpr Pinned kCampaigns[] = {
    {"SFI", 0x0a1d656561c9e61aULL},
    {"MPX", 0xb058300c5f88c3d1ULL},
    {"MPK", 0xdddbf87267c3c6b9ULL},
    {"VMFUNC", 0x27c20edfce3ba9a2ULL},
    {"crypt", 0xef28254285131cafULL},
    {"SGX", 0x16df5672352f0d67ULL},
    {"mprotect", 0x35fd34a6276dfd30ULL},
    {"info-hiding", 0x1382f7df0b36daf1ULL},
};
// clang-format on

TEST(AdversaryPinTest, EveryAttackMatrixRowMatches) {
  size_t checked = 0;
  for (const attacks::AttackReport& r : attacks::RunAttackMatrix()) {
    Digest d;
    d.Add(r.region_located ? 1 : 0)
        .Add(r.locate_probes)
        .Add(static_cast<uint64_t>(r.read_outcome))
        .Add(static_cast<uint64_t>(r.write_outcome))
        .Add(r.detail);
    checked += Check(std::begin(kAttackMatrix), std::end(kAttackMatrix),
                     core::TechniqueKindName(r.technique), d.value());
  }
  EXPECT_EQ(checked, std::size(kAttackMatrix));
}

TEST(AdversaryPinTest, EveryFaultCellMatchesAtTwoSeeds) {
  size_t checked = 0;
  for (const uint64_t seed : {attacks::FaultCampaignOptions{}.seed, uint64_t{20170423}}) {
    attacks::FaultCampaignOptions options;
    options.seed = seed;
    for (const auto& [kind, site] : attacks::FaultMatrixCells()) {
      const attacks::FaultCellResult cell = attacks::RunFaultCell(kind, site, options);
      Digest d;
      d.Add(static_cast<uint64_t>(cell.outcome))
          .Add(cell.detail)
          .Add(static_cast<uint64_t>(cell.repairs))
          .Add(static_cast<uint64_t>(cell.quarantines))
          .Add(static_cast<uint64_t>(cell.downgrades));
      char name[96];
      std::snprintf(name, sizeof(name), "0x%llx/%s/%s", static_cast<unsigned long long>(seed),
                    core::TechniqueKindName(kind), sim::FaultSiteName(site));
      checked += Check(std::begin(kFaultCells), std::end(kFaultCells), name, d.value());
    }
  }
  EXPECT_EQ(checked, std::size(kFaultCells));
}

// One digest per technique over its 125 campaigns, in index order.
TEST(AdversaryPinTest, EveryDefaultSuiteCampaignMatches) {
  const attacks::CampaignSuiteOptions suite;
  size_t checked = 0;
  for (int k = 0; k < core::kNumTechniques; ++k) {
    const auto kind = static_cast<core::TechniqueKind>(k);
    Digest d;
    for (uint64_t index = 0; index < suite.campaigns_per_technique; ++index) {
      const attacks::CampaignSpec spec =
          attacks::GenerateCampaign(kind, attacks::CampaignSeed(suite.seed, kind, index), index);
      const attacks::CampaignResult r = attacks::RunCampaign(spec, suite.config);
      d.Add(static_cast<uint64_t>(r.outcome))
          .Add(r.note)
          .Add(r.steps_run)
          .Add(r.probes)
          .Add(r.budget_used);
    }
    checked += Check(std::begin(kCampaigns), std::end(kCampaigns),
                     core::TechniqueKindName(kind), d.value());
  }
  EXPECT_EQ(checked, std::size(kCampaigns));
}

}  // namespace
}  // namespace memsentry
