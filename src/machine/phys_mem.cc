#include "src/machine/phys_mem.h"

#include <algorithm>
#include <cassert>

namespace memsentry::machine {

PhysicalMemory::PhysicalMemory(uint64_t total_frames) : total_frames_(total_frames) {}

StatusOr<PhysAddr> PhysicalMemory::AllocFrame() {
  uint64_t f = next_frame_;
  if (f < total_frames_) {
    ++next_frame_;
  } else {
    // Lowest free frame first; allocation is not on the simulated hot path
    // so simplicity wins over a free list.
    f = 1;
    while (f < allocated_.size() && allocated_[f] != 0) {
      ++f;
    }
    if (f >= total_frames_) {
      return ResourceExhausted("physical memory exhausted");
    }
  }
  MarkAllocated(f);  // materialized lazily on first write
  return PhysAddr{f << kPageShift};
}

void PhysicalMemory::ReserveFrames(uint64_t count) {
  const uint64_t end = std::min(total_frames_, next_frame_ + count);
  if (end <= frames_.size()) {
    return;
  }
  if (end > frames_.capacity()) {
    // Double, as growing frame by frame does: an exact fit would make the
    // next small mapping copy the whole table again.
    uint64_t capacity = std::max<uint64_t>(frames_.capacity(), 1);
    while (capacity < end) {
      capacity *= 2;
    }
    frames_.reserve(capacity);
    allocated_.reserve(capacity);
  }
  frames_.resize(end);
  allocated_.resize(end);
}

Status PhysicalMemory::FreeFrame(PhysAddr frame) {
  const uint64_t f = PageNumber(frame);
  if (!IsAllocated(frame)) {
    return NotFound("freeing unallocated frame");
  }
  CachedFrame& slot = frame_cache_[f & (kFrameCacheSlots - 1)];
  if (slot.number == f) {
    slot = CachedFrame{};
  }
  frames_[f].reset();  // drops the bytes: a reused frame reads zero
  allocated_[f] = 0;
  --allocated_count_;
  return OkStatus();
}

bool PhysicalMemory::IsAllocated(PhysAddr frame) const {
  const uint64_t f = PageNumber(frame);
  return f < allocated_.size() && allocated_[f] != 0;
}

void PhysicalMemory::MarkAllocated(uint64_t f) {
  if (f >= frames_.size()) {
    // Amortized: vector growth is geometric.
    frames_.resize(f + 1);
    allocated_.resize(f + 1);
  }
  if (allocated_[f] == 0) {
    allocated_[f] = 1;
    ++allocated_count_;
  }
}

PhysicalMemory::Frame* PhysicalMemory::FrameFor(PhysAddr addr) {
  const uint64_t f = PageNumber(addr);
  assert(f < total_frames_ && "physical address out of simulated DRAM");
  CachedFrame& slot = frame_cache_[f & (kFrameCacheSlots - 1)];
  if (slot.number == f) {
    return slot.frame;
  }
  MarkAllocated(f);  // a direct poke at a never-allocated frame allocates it
  std::unique_ptr<Frame>& frame = frames_[f];
  if (frame == nullptr) {
    frame = std::make_unique<Frame>();  // value-initialized: zeroed
  }
  slot = CachedFrame{f, frame.get()};
  return frame.get();
}

const PhysicalMemory::Frame* PhysicalMemory::FrameForConst(PhysAddr addr) const {
  const uint64_t f = PageNumber(addr);
  assert(f < total_frames_ && "physical address out of simulated DRAM");
  CachedFrame& slot = frame_cache_[f & (kFrameCacheSlots - 1)];
  if (slot.number == f) {
    return slot.frame;
  }
  if (f >= frames_.size()) {
    return nullptr;
  }
  Frame* frame = frames_[f].get();
  if (frame != nullptr) {
    slot = CachedFrame{f, frame};
  }
  return frame;
}

uint64_t PhysicalMemory::Read64Slow(PhysAddr addr) const {
  const Frame* frame = FrameForConst(addr);
  if (frame == nullptr) {
    return 0;
  }
  uint64_t v;
  std::memcpy(&v, frame->data() + PageOffset(addr), sizeof(v));
  return v;
}

void PhysicalMemory::Write64Slow(PhysAddr addr, uint64_t value) {
  Frame* frame = FrameFor(addr);
  std::memcpy(frame->data() + PageOffset(addr), &value, sizeof(value));
}

uint8_t PhysicalMemory::Read8Slow(PhysAddr addr) const {
  const Frame* frame = FrameForConst(addr);
  return frame == nullptr ? 0 : (*frame)[PageOffset(addr)];
}

void PhysicalMemory::Write8Slow(PhysAddr addr, uint8_t value) {
  (*FrameFor(addr))[PageOffset(addr)] = value;
}

void PhysicalMemory::ReadBytes(PhysAddr addr, void* out, uint64_t size) const {
  assert(PageOffset(addr) + size <= kPageSize && "read crosses a frame boundary");
  const Frame* frame = FrameForConst(addr);
  if (frame == nullptr) {
    std::memset(out, 0, size);
    return;
  }
  std::memcpy(out, frame->data() + PageOffset(addr), size);
}

void PhysicalMemory::WriteBytes(PhysAddr addr, const void* in, uint64_t size) {
  assert(PageOffset(addr) + size <= kPageSize && "write crosses a frame boundary");
  std::memcpy(FrameFor(addr)->data() + PageOffset(addr), in, size);
}

void PhysicalMemory::XorBytes(PhysAddr addr, const uint8_t* in, uint64_t size) {
  assert(PageOffset(addr) + size <= kPageSize && "xor crosses a frame boundary");
  uint8_t* bytes = FrameFor(addr)->data() + PageOffset(addr);
  uint64_t i = 0;
  for (; i + 8 <= size; i += 8) {  // a word at a time: -O2 keeps byte loops scalar
    uint64_t word;
    uint64_t key;
    std::memcpy(&word, bytes + i, 8);
    std::memcpy(&key, in + i, 8);
    word ^= key;
    std::memcpy(bytes + i, &word, 8);
  }
  for (; i < size; ++i) {
    bytes[i] ^= in[i];
  }
}

}  // namespace memsentry::machine
