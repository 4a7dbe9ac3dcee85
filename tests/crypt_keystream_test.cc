// Process::CryptToggle, the crypt technique's domain switch: whatever the
// keystream memo holds, every toggle must leave exactly the bytes a fresh
// aes::CryptRegion over a staging copy would (the kOff reference path), under
// partial and growing lengths, a clobbered round key and a changed nonce.
// kCheck must catch a memo that no longer matches its keys.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "src/aes/aes128.h"
#include "src/base/fastpath.h"
#include "src/sim/fault_injector.h"
#include "src/sim/process.h"

namespace memsentry::sim {
namespace {

using base::FastPathMode;

constexpr uint64_t kPages = 2;
// Starts 1000 bytes before a page boundary, so most toggles cross it.
constexpr VirtAddr kRegionBase = kSafeRegionBase + kPageSize - 1000;
constexpr uint64_t kRegionBytes = 1024;
constexpr uint64_t kMappedBytes = kPages * kPageSize - (kPageSize - 1000);

aes::KeySchedule KeysFor(uint8_t seed) {
  aes::Block key;
  for (size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<uint8_t>(seed * 31 + i * 7 + 1);
  }
  return aes::ExpandKey(key);
}

// A process with one crypt region and a host mirror of its mapped bytes,
// advanced with plain aes::CryptRegion alongside every toggle.
struct Fixture {
  Machine machine;
  Process process{&machine};
  SafeRegion* region = nullptr;
  std::vector<uint8_t> mirror;

  explicit Fixture(uint8_t seed) {
    EXPECT_TRUE(process.MapRange(kSafeRegionBase, kPages, machine::PageFlags::Data()).ok());
    region = &process.AddSafeRegion("secret", kRegionBase, kRegionBytes);
    region->crypt = true;
    region->enc_keys = KeysFor(seed);
    region->nonce = 0x9e3779b97f4a7c15ULL ^ seed;
    mirror.resize(kMappedBytes);
    for (size_t i = 0; i < mirror.size(); ++i) {
      mirror[i] = static_cast<uint8_t>(i * 13 + seed);
    }
    EXPECT_TRUE(process.PokeBytes(kRegionBase, mirror.data(), mirror.size()).ok());
  }

  void Toggle(uint64_t size, FastPathMode mode) {
    const bool was_encrypted = region->encrypted_now;
    ASSERT_TRUE(process.CryptToggle(*region, size, mode).ok()) << "size " << size;
    aes::CryptRegion(std::span<uint8_t>(mirror.data(), size), region->enc_keys, region->nonce);
    EXPECT_NE(region->encrypted_now, was_encrypted);
  }

  std::vector<uint8_t> Memory() const {
    std::vector<uint8_t> bytes(kMappedBytes);
    EXPECT_TRUE(process.PeekBytes(kRegionBase, bytes.data(), bytes.size()).ok());
    return bytes;
  }
};

class CryptKeystreamTest : public ::testing::TestWithParam<FastPathMode> {};

TEST_P(CryptKeystreamTest, RepeatedTogglesAtEverySizeMatchFreshAes) {
  Fixture f(1);
  // Whole region twice, then partial lengths below it, then longer ones up
  // to 2048 (past the region end, still mapped): the memo must serve each
  // shorter length as a prefix and regrow for each longer one.
  std::vector<uint64_t> sizes = {kRegionBytes, kRegionBytes, 100, 1, 15, 16, 17, 1023};
  for (uint64_t size = 1; size <= 2048; size = size * 3 + 1) {
    sizes.push_back(size);
  }
  sizes.push_back(2048);
  sizes.push_back(kRegionBytes);
  for (uint64_t size : sizes) {
    f.Toggle(size, GetParam());
    ASSERT_EQ(f.Memory(), f.mirror) << "after toggling " << size << " bytes";
    f.Toggle(size, GetParam());
    ASSERT_EQ(f.Memory(), f.mirror) << "after re-toggling " << size << " bytes";
  }
  if (GetParam() != FastPathMode::kOff) {
    ASSERT_NE(f.region->keystream, nullptr);
    EXPECT_EQ(f.region->keystream->bytes.size(), 2048u);  // the longest toggle
  }
}

TEST_P(CryptKeystreamTest, RoundKeyClobberBetweenTogglesRegenerates) {
  Fixture f(2);
  f.Toggle(kRegionBytes, GetParam());
  FaultInjector injector(&f.process, /*seed=*/5);
  const aes::KeySchedule before = f.region->enc_keys;
  ASSERT_TRUE(injector.Inject(FaultSite::kAesRoundKeyClobber).ok());
  ASSERT_NE(std::memcmp(before.data(), f.region->enc_keys.data(), sizeof(before)), 0);
  for (uint64_t size : {kRegionBytes, uint64_t{64}, kRegionBytes}) {
    f.Toggle(size, GetParam());
    ASSERT_EQ(f.Memory(), f.mirror) << "after toggling " << size << " bytes";
  }
}

TEST_P(CryptKeystreamTest, NonceChangeRegenerates) {
  Fixture f(3);
  f.Toggle(kRegionBytes, GetParam());
  f.Toggle(kRegionBytes, GetParam());
  f.region->nonce ^= 1;
  f.Toggle(kRegionBytes, GetParam());
  EXPECT_EQ(f.Memory(), f.mirror);
  f.Toggle(200, GetParam());
  EXPECT_EQ(f.Memory(), f.mirror);
}

TEST_P(CryptKeystreamTest, UnmappedPageFailsWithoutTouchingTheRegion) {
  Fixture f(7);
  const std::vector<uint8_t> before = f.Memory();
  EXPECT_FALSE(f.process.CryptToggle(*f.region, kMappedBytes + 1, GetParam()).ok());
  EXPECT_EQ(f.Memory(), before);
  EXPECT_FALSE(f.region->encrypted_now);
}

INSTANTIATE_TEST_SUITE_P(Modes, CryptKeystreamTest,
                         ::testing::Values(FastPathMode::kOff, FastPathMode::kOn,
                                           FastPathMode::kCheck),
                         [](const ::testing::TestParamInfo<FastPathMode>& info) {
                           return std::string(base::FastPathModeName(info.param));
                         });

TEST(CryptKeystreamModeTest, OffKeepsNoMemo) {
  Fixture f(8);
  f.Toggle(kRegionBytes, FastPathMode::kOff);
  EXPECT_EQ(f.region->keystream, nullptr);
}

TEST(CryptKeystreamDeathTest, CheckModeAbortsNamingTheRegionOnATamperedMemo) {
  Fixture f(9);
  f.Toggle(kRegionBytes, FastPathMode::kOn);
  ASSERT_NE(f.region->keystream, nullptr);
  f.region->keystream->bytes[kRegionBytes / 2] ^= 0x40;
  EXPECT_DEATH((void)f.process.CryptToggle(*f.region, kRegionBytes, FastPathMode::kCheck),
               "keystream divergence in region secret");
}

}  // namespace
}  // namespace memsentry::sim
