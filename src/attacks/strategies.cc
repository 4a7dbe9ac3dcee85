#include "src/attacks/strategies.h"

#include "src/core/safe_region.h"

namespace memsentry::attacks {
namespace {

// The space the hidden region was randomized into lies above the program's
// conventional mappings (stack top) — their bases are standard knowledge.
inline constexpr VirtAddr kSearchLo = sim::kStackTop;
inline constexpr VirtAddr kSearchHi = kAddressSpaceEnd;

}  // namespace

LocateResult AllocationOracleAttack(sim::Process& process, uint64_t region_pages) {
  LocateResult result;
  const uint64_t total_pages = (kSearchHi - kSearchLo) >> kPageShift;

  // Oracle: "would an allocation of S pages succeed in the upper space?" —
  // in the real attack this is an mmap whose success/failure the attacker
  // observes without crashing.
  auto can_allocate = [&](uint64_t pages) {
    ++result.probes;
    return process.FindFreeRun(kSearchLo, kSearchHi, pages).has_value();
  };
  auto largest_hole = [&]() -> uint64_t {
    uint64_t lo = 0;
    uint64_t hi = total_pages + 1;  // exclusive upper bound
    while (hi - lo > 1) {
      const uint64_t mid = lo + (hi - lo) / 2;
      if (can_allocate(mid)) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    return lo;
  };

  // The hidden region splits the upper space into two holes. Binary-search
  // the larger, fill it (a real allocation), binary-search the remaining one.
  const uint64_t hole_a = largest_hole();
  if (hole_a == 0 || hole_a >= total_pages) {
    return result;  // no region hides up here
  }
  auto placement = process.FindFreeRun(kSearchLo, kSearchHi, hole_a);
  if (!placement.has_value()) {
    return result;
  }
  const VirtAddr filled_at = *placement;
  if (!process.ReserveRange(filled_at, hole_a).ok()) {
    return result;
  }
  const uint64_t hole_b = largest_hole();

  // Lower hole size: the fill landed in the lowest hole that fits; if it
  // landed at the very bottom of the space, the lower hole was the larger.
  const uint64_t lower_hole = filled_at == kSearchLo ? hole_a : hole_b;
  result.base = kSearchLo + lower_hole * kPageSize;
  result.found = true;
  // Sanity: derived size must equal the actual region.
  const uint64_t derived_pages = total_pages - hole_a - hole_b;
  if (region_pages != 0 && derived_pages != region_pages) {
    result.found = false;
  }
  (void)process.ReleaseRange(filled_at, hole_a);
  return result;
}

LocateResult CrashResistantScan(ArbitraryRw& rw, VirtAddr lo, VirtAddr hi, uint64_t stride,
                                uint64_t probe_budget) {
  LocateResult result;
  for (VirtAddr va = lo; va < hi && result.probes < probe_budget; va += stride) {
    ++result.probes;
    if (rw.Probe(va).mapped_and_accessible) {
      result.found = true;
      result.base = PageAlignDown(va);
      return result;
    }
  }
  return result;
}

LocateResult ThreadSprayingAttack(sim::Process& process, ArbitraryRw& rw,
                                  core::SafeRegionAllocator& allocator, uint64_t region_bytes,
                                  int spray_count, uint64_t probe_budget) {
  LocateResult result;
  // Phase 1: force the victim to create many copies of the hidden region
  // (one per sprayed thread, e.g. thread stacks carrying safe areas).
  for (int i = 0; i < spray_count; ++i) {
    auto region = allocator.Alloc("sprayed-" + std::to_string(i), region_bytes);
    if (!region.ok()) {
      return result;
    }
  }
  // Phase 2: random probing; density spray_count * region_bytes / |space|
  // makes the expected probe count tractable.
  Rng rng(0xdeadbea7ULL);
  while (result.probes < probe_budget) {
    ++result.probes;
    const VirtAddr va =
        kSearchLo + PageAlignDown(rng.Below(kSearchHi - kSearchLo - kPageSize));
    if (rw.Probe(va).mapped_and_accessible && process.InSafeRegion(va)) {
      result.found = true;
      result.base = PageAlignDown(va);
      return result;
    }
  }
  return result;
}

}  // namespace memsentry::attacks
