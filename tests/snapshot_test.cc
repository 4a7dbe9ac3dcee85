// The snapshot format's contract, tested at every layer: the low-level
// writer/reader primitives round-trip and latch typed errors; corrupt blobs
// (bad magic, future version, truncation, checksum damage) are rejected with
// the documented StatusCode instead of crashing; 256 seeded random mutations
// never crash the loader (run under ASan in CI); presence matching between a
// blob's components and the caller's is strict both ways; file IO is atomic;
// and a committed golden v1 blob still loads byte-for-byte and resumes,
// pinning the format across future changes.
//
// Regenerating the golden after a deliberate format or cost-model change:
//   MEMSENTRY_WRITE_GOLDEN=1 ./build/tests/snapshot_test
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/core/memsentry.h"
#include "src/defenses/shadow_stack.h"
#include "src/machine/snapshot.h"
#include "src/sim/executor.h"
#include "src/sim/fault_injector.h"
#include "src/sim/kernel.h"
#include "src/sim/snapshot.h"
#include "src/workloads/spec_profiles.h"
#include "src/workloads/synth.h"

#ifndef MEMSENTRY_SOURCE_DIR
#define MEMSENTRY_SOURCE_DIR "."
#endif

namespace memsentry {
namespace {

// --- Little-endian peeks/pokes for surgical header corruption ---------------

uint32_t ReadLe32(const std::string& b, size_t off) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<uint8_t>(b[off + static_cast<size_t>(i)]);
  }
  return v;
}

uint64_t ReadLe64(const std::string& b, size_t off) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<uint8_t>(b[off + static_cast<size_t>(i)]);
  }
  return v;
}

void WriteLe32(std::string* b, size_t off, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    (*b)[off + static_cast<size_t>(i)] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

void WriteLe64(std::string* b, size_t off, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    (*b)[off + static_cast<size_t>(i)] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

// Recomputes the payload checksum so a payload mutation gets past the
// checksum gate and exercises the bounds-checked decoders themselves.
void ResealChecksum(std::string* b) {
  const size_t header = machine::kSnapshotHeaderBytes;
  WriteLe64(b, 16, machine::SnapshotDigest(b->data() + header, b->size() - header));
}

// --- A small deterministic pipeline to snapshot -----------------------------
// MPK + shadow stack: pkeys, a safe region, domain instrumentation — enough
// machine state to make serialization non-trivial, small enough to be fast.

struct Pipeline {
  sim::Machine machine;
  std::unique_ptr<sim::Process> process;
  std::unique_ptr<core::MemSentry> ms;
  ir::Module module;
};

std::unique_ptr<Pipeline> BuildPipeline(uint64_t seed) {
  auto p = std::make_unique<Pipeline>();
  p->process = std::make_unique<sim::Process>(&p->machine);
  const workloads::SpecProfile& profile = workloads::SpecCpu2006()[0];
  EXPECT_TRUE(workloads::PrepareWorkloadProcess(*p->process, profile).ok());
  core::MemSentryConfig config;
  config.technique = core::TechniqueKind::kMpk;
  config.options.mode = core::ProtectMode::kReadWrite;
  p->ms = std::make_unique<core::MemSentry>(p->process.get(), config);
  auto region = p->ms->allocator().Alloc("secret", 4096);
  EXPECT_TRUE(region.ok());
  workloads::SynthOptions synth;
  synth.target_instructions = 60'000;
  synth.seed = seed;
  p->module = workloads::SynthesizeSpecProgram(profile, synth);
  defenses::ShadowStackPass pass(region.ok() ? region.value()->base : 0);
  EXPECT_TRUE(pass.Run(p->module).ok());
  EXPECT_TRUE(p->ms->Protect(p->module).ok());
  return p;
}

constexpr uint64_t kCanonicalSeed = 0x5eedf00dULL;
constexpr uint64_t kMidpoint = 9'000;

// One mid-run snapshot (process + in-flight RunResult), shared by the
// corruption and fuzz tests. Built once; snapshotting is deterministic, so
// the bytes are identical on every call anyway.
const std::string& CanonicalBlob() {
  static const std::string* blob = [] {
    auto p = BuildPipeline(kCanonicalSeed);
    sim::Executor executor(p->process.get(), &p->module);
    sim::RunConfig rc;
    rc.max_instructions = kMidpoint;
    const sim::RunResult partial = executor.Run(rc);
    EXPECT_TRUE(partial.hit_instruction_limit);
    EXPECT_TRUE(partial.cursor.valid);
    return new std::string(
        sim::SaveSnapshot(*p->process, &partial, nullptr, nullptr, "canonical"));
  }();
  return *blob;
}

StatusCode LoadCode(const std::string& blob) {
  auto twin = BuildPipeline(kCanonicalSeed);
  sim::RunResult partial;
  return sim::LoadSnapshot(blob, twin->process.get(), &partial, nullptr, nullptr).code();
}

// --- Writer/reader primitives -----------------------------------------------

TEST(SnapshotPrimitives, RoundTripThroughHeaderAndChecksum) {
  machine::SnapshotWriter w;
  w.PutTag(0xAB01);
  w.PutU8(0x12);
  w.PutU16(0x3456);
  w.PutU32(0x789abcdeu);
  w.PutU64(0x1122334455667788ULL);
  w.PutI64(-42);
  w.PutBool(true);
  w.PutDouble(0.1);  // raw IEEE bits, must round-trip exactly
  w.PutString("snapshot");
  const std::string blob = w.Finalize();

  ASSERT_GE(blob.size(), machine::kSnapshotHeaderBytes);
  EXPECT_EQ(ReadLe32(blob, 0), machine::kSnapshotMagic);
  EXPECT_EQ(ReadLe32(blob, 4), machine::kSnapshotVersion);
  EXPECT_EQ(ReadLe64(blob, 8), blob.size() - machine::kSnapshotHeaderBytes);

  auto r = machine::SnapshotReader::Open(blob);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->ExpectTag(0xAB01, "test section"));
  EXPECT_EQ(r->U8(), 0x12);
  EXPECT_EQ(r->U16(), 0x3456);
  EXPECT_EQ(r->U32(), 0x789abcdeu);
  EXPECT_EQ(r->U64(), 0x1122334455667788ULL);
  EXPECT_EQ(r->I64(), -42);
  EXPECT_TRUE(r->Bool());
  EXPECT_EQ(r->Double(), 0.1);
  EXPECT_EQ(r->String(), "snapshot");
  EXPECT_TRUE(r->Finish().ok());
}

TEST(SnapshotPrimitives, FinishFlagsUnconsumedBytes) {
  machine::SnapshotWriter w;
  w.PutU32(1);
  w.PutU32(2);
  auto r = machine::SnapshotReader::Open(w.Finalize());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->U32(), 1u);
  // A reader that stops early is a format drift; Finish is loud about it.
  EXPECT_FALSE(r->Finish().ok());
}

TEST(SnapshotPrimitives, TagMismatchLatchesAndKeepsReadsInert) {
  machine::SnapshotWriter w;
  w.PutTag(0x1111);
  w.PutU64(77);
  auto r = machine::SnapshotReader::Open(w.Finalize());
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->ExpectTag(0x2222, "wrong section"));
  EXPECT_EQ(r->status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r->U64(), 0u);  // latched: reads return zero, never advance past end
  EXPECT_FALSE(r->Finish().ok());
}

TEST(SnapshotPrimitives, ReadPastEndLatchesOutOfRange) {
  machine::SnapshotWriter w;
  w.PutU8(1);
  auto r = machine::SnapshotReader::Open(w.Finalize());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->U64(), 0u);
  EXPECT_EQ(r->status().code(), StatusCode::kOutOfRange);
  // FitCount guards container sizing: an absurd length prefix must not
  // attempt an allocation.
  EXPECT_FALSE(r->FitCount(uint64_t{1} << 40, 8));
}

// --- Typed rejection of corrupt blobs ---------------------------------------

TEST(SnapshotFormat, RejectsBadMagic) {
  std::string blob = CanonicalBlob();
  blob[0] = static_cast<char>(blob[0] ^ 0x5a);
  EXPECT_EQ(LoadCode(blob), StatusCode::kInvalidArgument);
}

TEST(SnapshotFormat, RejectsFutureVersion) {
  std::string blob = CanonicalBlob();
  WriteLe32(&blob, 4, machine::kSnapshotVersion + 1);
  EXPECT_EQ(LoadCode(blob), StatusCode::kUnimplemented);
}

TEST(SnapshotFormat, RejectsTruncation) {
  const std::string& blob = CanonicalBlob();
  // Header cut short, payload cut short, and declared-size overshoot.
  EXPECT_EQ(LoadCode(blob.substr(0, 10)), StatusCode::kOutOfRange);
  EXPECT_EQ(LoadCode(blob.substr(0, blob.size() - 5)), StatusCode::kOutOfRange);
  std::string oversize = blob;
  WriteLe64(&oversize, 8, blob.size());  // claims more payload than present
  EXPECT_EQ(LoadCode(oversize), StatusCode::kOutOfRange);
}

TEST(SnapshotFormat, RejectsChecksumDamage) {
  std::string blob = CanonicalBlob();
  const size_t mid = machine::kSnapshotHeaderBytes + (blob.size() / 2);
  blob[mid] = static_cast<char>(blob[mid] ^ 0x01);
  EXPECT_EQ(LoadCode(blob), StatusCode::kInvalidArgument);
}

TEST(SnapshotFormat, RejectsGarbageWithoutCrashing) {
  EXPECT_NE(LoadCode(""), StatusCode::kOk);
  EXPECT_NE(LoadCode("MSNP"), StatusCode::kOk);
  EXPECT_NE(LoadCode(std::string(64, '\xff')), StatusCode::kOk);
}

// 256 seeded mutations: random truncations, random bit flips, and — the
// interesting half — flips with the checksum resealed so the damage reaches
// the decoders instead of dying at the checksum gate. Every load must come
// back with a Status; a crash or ASan report here is the failure.
TEST(SnapshotFormat, FuzzedMutationsNeverCrashTheLoader) {
  const std::string& canonical = CanonicalBlob();
  auto twin = BuildPipeline(kCanonicalSeed);
  Rng rng(0xf022c0deULL);
  int rejected = 0;
  int survived = 0;
  for (int i = 0; i < 256; ++i) {
    std::string mutated = canonical;
    if (i % 4 == 0) {
      mutated.resize(rng.Below(mutated.size()));
    } else {
      const size_t off = rng.Below(mutated.size());
      mutated[off] =
          static_cast<char>(mutated[off] ^ static_cast<char>(1u << rng.Below(8)));
      if (off >= machine::kSnapshotHeaderBytes && rng.Chance(0.5)) {
        ResealChecksum(&mutated);
      }
    }
    sim::RunResult partial;
    const Status status =
        sim::LoadSnapshot(mutated, twin->process.get(), &partial, nullptr, nullptr);
    status.ok() ? ++survived : ++rejected;
  }
  // The exact split is seed-dependent (resealed flips that land in raw page
  // bytes or counters decode fine — only structural damage is rejectable);
  // all truncations and every non-resealed flip must have been caught.
  EXPECT_GT(rejected, 150) << "survived=" << survived;
  EXPECT_GT(survived, 0) << "resealed mutations never reached the decoders";
}

// --- Presence matching and peeking ------------------------------------------

TEST(SimSnapshot, PeeksAndEnforcesComponentPresenceBothWays) {
  // The fault-campaign shape: bare process + kernel + injector.
  sim::Machine machine;
  sim::Process process(&machine);
  ASSERT_TRUE(process.SetupStack().ok());
  ASSERT_TRUE(process.MapRange(sim::kWorkingSetBase, 16, machine::PageFlags::Data()).ok());
  sim::Kernel kernel(&process);
  kernel.Install();
  sim::FaultInjector injector(&process, 0x22);
  const std::string blob = sim::SaveSnapshot(process, nullptr, &kernel, &injector, "presence");

  sim::SnapshotInfo info;
  ASSERT_TRUE(sim::PeekSnapshot(blob, &info).ok());
  EXPECT_EQ(info.label, "presence");
  EXPECT_FALSE(info.has_partial);
  EXPECT_TRUE(info.has_kernel);
  EXPECT_TRUE(info.has_injector);

  sim::Machine twin_machine;
  sim::Process twin(&twin_machine);
  ASSERT_TRUE(twin.SetupStack().ok());
  ASSERT_TRUE(twin.MapRange(sim::kWorkingSetBase, 16, machine::PageFlags::Data()).ok());
  sim::Kernel twin_kernel(&twin);
  twin_kernel.Install();
  sim::FaultInjector twin_injector(&twin, 0);

  // Dropping saved components would silently fork the determinism contract;
  // both partial hand-offs are refused.
  EXPECT_EQ(sim::LoadSnapshot(blob, &twin, nullptr, nullptr, nullptr).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(sim::LoadSnapshot(blob, &twin, nullptr, &twin_kernel, nullptr).code(),
            StatusCode::kFailedPrecondition);
  const Status full = sim::LoadSnapshot(blob, &twin, nullptr, &twin_kernel, &twin_injector);
  EXPECT_TRUE(full.ok()) << full.ToString();

  // The mirror image: a process-only blob refuses spurious components.
  const std::string bare = sim::SaveSnapshot(process, nullptr, nullptr, nullptr, "bare");
  EXPECT_EQ(sim::LoadSnapshot(bare, &twin, nullptr, &twin_kernel, &twin_injector).code(),
            StatusCode::kFailedPrecondition);
}

// --- Crash-safe file IO ------------------------------------------------------

TEST(SimSnapshot, FileIoIsAtomicAndTyped) {
  namespace fs = std::filesystem;
  const std::string dir = ::testing::TempDir() + "snapshot_test_io";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = dir + "/state.snap";
  ASSERT_TRUE(sim::WriteSnapshotFile(path, CanonicalBlob()).ok());
  auto back = sim::ReadSnapshotFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), CanonicalBlob());
  // Temp-and-rename leaves exactly the final file, never a .tmp sibling.
  int entries = 0;
  for ([[maybe_unused]] const auto& e : fs::directory_iterator(dir)) {
    ++entries;
  }
  EXPECT_EQ(entries, 1);
  EXPECT_EQ(sim::ReadSnapshotFile(dir + "/missing.snap").status().code(),
            StatusCode::kNotFound);
}

// --- Golden v1 blob ----------------------------------------------------------
// A committed blob pins the on-disk format: if serialization drifts (field
// added, order changed, cost model recalibrated) this fails loudly, forcing
// either a version bump or a conscious regeneration — never a silent break
// of old checkpoints and crash bundles.

constexpr uint64_t kGoldenSeed = 0x601dULL;
constexpr char kGoldenPath[] = MEMSENTRY_SOURCE_DIR "/tests/data/snapshot-v1.golden";

std::string MakeGoldenBlob(sim::RunResult* partial_out) {
  auto p = BuildPipeline(kGoldenSeed);
  sim::Executor executor(p->process.get(), &p->module);
  sim::RunConfig rc;
  rc.max_instructions = kMidpoint;
  const sim::RunResult partial = executor.Run(rc);
  EXPECT_TRUE(partial.hit_instruction_limit);
  if (partial_out != nullptr) {
    *partial_out = partial;
  }
  return sim::SaveSnapshot(*p->process, &partial, nullptr, nullptr, "golden-v1");
}

TEST(SnapshotFormat, GoldenV1BlobIsStableAndResumable) {
  if (std::getenv("MEMSENTRY_WRITE_GOLDEN") != nullptr) {
    const Status written = sim::WriteSnapshotFile(kGoldenPath, MakeGoldenBlob(nullptr));
    ASSERT_TRUE(written.ok()) << written.ToString();
  }
  auto blob = sim::ReadSnapshotFile(kGoldenPath);
  ASSERT_TRUE(blob.ok()) << "golden snapshot missing; regenerate with\n"
                            "  MEMSENTRY_WRITE_GOLDEN=1 ./snapshot_test";

  // Byte-for-byte: today's serializer must still produce the committed blob.
  EXPECT_EQ(blob.value(), MakeGoldenBlob(nullptr))
      << "snapshot serialization drifted; if deliberate, bump kSnapshotVersion "
         "and regenerate the golden (MEMSENTRY_WRITE_GOLDEN=1)";

  sim::SnapshotInfo info;
  ASSERT_TRUE(sim::PeekSnapshot(blob.value(), &info).ok());
  EXPECT_EQ(info.label, "golden-v1");
  EXPECT_TRUE(info.has_partial);

  // And the blob is live: restore into a twin, resume to completion, and the
  // totals match an uninterrupted run bit-for-bit.
  auto twin = BuildPipeline(kGoldenSeed);
  sim::RunResult partial;
  const Status loaded =
      sim::LoadSnapshot(blob.value(), twin->process.get(), &partial, nullptr, nullptr);
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  sim::Executor resumer(twin->process.get(), &twin->module);
  sim::RunConfig rc;
  const sim::RunResult resumed = resumer.Resume(rc, partial);

  auto straight_pipeline = BuildPipeline(kGoldenSeed);
  sim::Executor straight(straight_pipeline->process.get(), &straight_pipeline->module);
  const sim::RunResult reference = straight.Run(rc);
  EXPECT_EQ(resumed.instructions, reference.instructions);
  EXPECT_EQ(resumed.cycles, reference.cycles);
  EXPECT_EQ(resumed.halted, reference.halted);
  EXPECT_EQ(resumed.fault.has_value(), reference.fault.has_value());
}

}  // namespace
}  // namespace memsentry
