// Simulated physical memory: a frame allocator plus byte-granularity access.
// Page tables, EPTs and guest data all live in these frames, exactly as they
// would in real DRAM. Frames are numbered densely from 1 and backed lazily:
// a frame's 4 KiB is only allocated on its first write.
#ifndef MEMSENTRY_SRC_MACHINE_PHYS_MEM_H_
#define MEMSENTRY_SRC_MACHINE_PHYS_MEM_H_

#include <array>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "src/base/status.h"
#include "src/base/types.h"

namespace memsentry::machine {

class PhysicalMemory {
 public:
  // total_frames bounds the simulated DRAM size (frames are 4 KiB).
  explicit PhysicalMemory(uint64_t total_frames = uint64_t{1} << 22);  // default 16 GiB

  PhysicalMemory(const PhysicalMemory&) = delete;
  PhysicalMemory& operator=(const PhysicalMemory&) = delete;

  // Allocates a zeroed frame; returns its physical address.
  StatusOr<PhysAddr> AllocFrame();
  // Grows the frame table once to cover the next `count` in-order
  // allocations, so a ranged mapping does not grow it frame by frame.
  // Allocates nothing: frame numbers and IsAllocated() are unaffected.
  void ReserveFrames(uint64_t count);
  Status FreeFrame(PhysAddr frame);

  bool IsAllocated(PhysAddr frame) const;
  uint64_t allocated_frames() const { return allocated_count_; }
  uint64_t total_frames() const { return total_frames_; }

  // Byte access. Addresses may span frame boundaries only within one frame;
  // callers (the MMU) split accesses at page granularity. The frame-cache
  // hit path is inline — the interpreter performs one of these per modeled
  // memory access, and accesses cluster on a handful of frames — with the
  // table lookup / lazy materialization out of line.
  uint64_t Read64(PhysAddr addr) const {
    assert(PageOffset(addr) + 8 <= kPageSize && "64-bit read crosses a frame boundary");
    if (const Frame* frame = CachedFrameLookup(addr)) [[likely]] {
      uint64_t v;
      std::memcpy(&v, frame->data() + PageOffset(addr), sizeof(v));
      return v;
    }
    return Read64Slow(addr);
  }
  void Write64(PhysAddr addr, uint64_t value) {
    assert(PageOffset(addr) + 8 <= kPageSize && "64-bit write crosses a frame boundary");
    if (Frame* frame = CachedFrameLookup(addr)) [[likely]] {
      std::memcpy(frame->data() + PageOffset(addr), &value, sizeof(value));
      return;
    }
    Write64Slow(addr, value);
  }
  uint8_t Read8(PhysAddr addr) const {
    if (const Frame* frame = CachedFrameLookup(addr)) {
      return (*frame)[PageOffset(addr)];
    }
    return Read8Slow(addr);
  }
  void Write8(PhysAddr addr, uint8_t value) {
    if (Frame* frame = CachedFrameLookup(addr)) {
      (*frame)[PageOffset(addr)] = value;
      return;
    }
    Write8Slow(addr, value);
  }
  void ReadBytes(PhysAddr addr, void* out, uint64_t size) const;
  void WriteBytes(PhysAddr addr, const void* in, uint64_t size);
  // In-place XOR of `size` bytes (within one frame): ReadBytes, XOR, then
  // WriteBytes, without the staging copy.
  void XorBytes(PhysAddr addr, const uint8_t* in, uint64_t size);

 private:
  using Frame = std::array<uint8_t, kPageSize>;

  // Returns the frame backing addr, materializing it if the frame number is
  // within bounds but was never explicitly allocated (page tables allocate
  // explicitly; test code may poke memory directly).
  Frame* FrameFor(PhysAddr addr);
  const Frame* FrameForConst(PhysAddr addr) const;

  // Direct-mapped cache probe shared by the inline access fast paths;
  // returns nullptr on a cache miss (the slow paths consult the table).
  Frame* CachedFrameLookup(PhysAddr addr) const {
    const uint64_t f = PageNumber(addr);
    const CachedFrame& slot = frame_cache_[f & (kFrameCacheSlots - 1)];
    return slot.number == f ? slot.frame : nullptr;
  }

  // Out-of-line halves of the inline accessors: frame-cache misses only.
  uint64_t Read64Slow(PhysAddr addr) const;
  void Write64Slow(PhysAddr addr, uint64_t value);
  uint8_t Read8Slow(PhysAddr addr) const;
  void Write8Slow(PhysAddr addr, uint8_t value);

  // Direct-mapped lookup cache in front of the frame table: accesses cluster
  // heavily by frame, and the Frame* stays stable behind its unique_ptr even
  // when the table grows.
  // Only materialized frames are cached; FreeFrame evicts its slot.
  struct CachedFrame {
    uint64_t number = ~uint64_t{0};
    Frame* frame = nullptr;
  };
  static constexpr uint64_t kFrameCacheSlots = 64;  // power of two

  // Marks frame f allocated (counted once), growing the table to cover it.
  void MarkAllocated(uint64_t f);

  uint64_t total_frames_;
  uint64_t next_frame_ = 1;  // frame 0 reserved: phys 0 is never handed out
  uint64_t allocated_count_ = 0;
  // The frame table, indexed by frame number and sized to the highest frame
  // allocated, touched or reserved; AllocFrame hands frames out in order, so
  // it stays dense. An allocated frame's bytes stay null until its first write
  // (unmaterialized frames read as zero). Two arrays rather than one of
  // (pointer, flag) pairs: 9 bytes a frame instead of 16, which nearly
  // halves the table a 4 GiB mapping builds and the copy made when it
  // grows. Flags are bytes, not std::vector<bool>: its bitwise resize, paid
  // once per allocated frame, made mapping 1M pages about a quarter slower.
  std::vector<std::unique_ptr<Frame>> frames_;
  std::vector<uint8_t> allocated_;
  mutable std::array<CachedFrame, kFrameCacheSlots> frame_cache_;
};

}  // namespace memsentry::machine

#endif  // MEMSENTRY_SRC_MACHINE_PHYS_MEM_H_
