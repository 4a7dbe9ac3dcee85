// perfbench_probe — a fixed host-speed reference. It runs one loop of table
// loads and a data-dependent switch (the shape of an interpreter's dispatch)
// and prints the loop's wall time in seconds. The runner runs it before
// every measured pass and scales that pass's times by how fast the host ran
// it, so the host's slow speed drift cancels out of the end-to-end metrics.
// It shares no code with the simulator: a change to the simulator never
// changes what it measures.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

int main() {
  constexpr uint32_t kTable = 1u << 15;  // 128 KiB: fits the L2 cache
  constexpr int kSteps = 20'000'000;
  std::vector<uint32_t> table(kTable);
  uint64_t x = 88172645463325252ull;
  for (uint32_t& v : table) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    v = static_cast<uint32_t>(x);
  }
  uint32_t pc = 1;
  uint64_t acc = 0;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kSteps; ++i) {
    const uint32_t op = table[pc & (kTable - 1)];
    switch (op & 7) {
      case 0: acc += op; break;
      case 1: acc ^= op; break;
      case 2: acc -= op; break;
      case 3: acc *= 3; break;
      case 4: acc += op >> 2; break;
      case 5: acc ^= acc >> 5; break;
      case 6: acc += 7; break;
      default: acc -= 1; break;
    }
    pc = op + static_cast<uint32_t>(acc);
  }
  const std::chrono::duration<double> took = std::chrono::steady_clock::now() - start;
  // The checksum keeps the loop from being optimized away.
  std::printf("%.9f %llu\n", took.count(), static_cast<unsigned long long>(acc & 0xffff));
  return 0;
}
