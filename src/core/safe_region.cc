#include "src/core/safe_region.h"

namespace memsentry::core {

StatusOr<sim::SafeRegion*> SafeRegionAllocator::Alloc(const std::string& name, uint64_t size) {
  if (size == 0) {
    return InvalidArgument("safe region size must be positive");
  }
  auto technique = CreateTechnique(kind_);
  const uint64_t granularity = technique->limits().granularity;
  const uint64_t rounded = (size + granularity - 1) / granularity * granularity;

  VirtAddr base;
  if (kind_ == TechniqueKind::kInfoHide) {
    // Probabilistic placement: a random page anywhere in the usable address
    // space, mimicking mmap-based ASLR of the safe region. Retry on overlap.
    for (int attempt = 0;; ++attempt) {
      if (attempt > 64) {
        return ResourceExhausted("could not find a random gap");
      }
      // mmap-style randomization range: above the program's conventional
      // mappings, below the canonical boundary.
      base = PageAlignDown(rng_.Range(sim::kStackTop + kPageSize,
                                      kAddressSpaceEnd - PageAlignUp(rounded) - kPageSize));
      if (!process_->page_table().AnyMapped(base, PageAlignUp(rounded) >> kPageShift)) {
        break;
      }
    }
  } else {
    // Deterministic placement in the sensitive partition (above 64 TiB).
    base = next_;
    next_ += PageAlignUp(rounded) + kPageSize;  // guard page between regions
  }

  MEMSENTRY_RETURN_IF_ERROR(
      process_->MapRange(base, PageAlignUp(rounded) >> kPageShift, machine::PageFlags::Data()));
  sim::SafeRegion& region = process_->AddSafeRegion(name, base, rounded);
  return &region;
}

}  // namespace memsentry::core
