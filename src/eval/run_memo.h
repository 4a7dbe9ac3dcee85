// Cross-cell execution memo for the campaign engine (src/eval/campaign_engine.h).
//
// Many figure cells execute byte-identical baseline pipelines: a baseline
// run is independent of the technique being evaluated, so Figure 3
// re-builds and re-executes the same uninstrumented 401.bzip2 baseline once
// per (technique, mode) column, and the MPK/VMFUNC columns of Figures 4-6
// share their defense-only baselines per profile. The memo keys a completed
// run by its construction *recipe* — every input the pipeline constructor
// and executor read (profile fields, synthesis seed and budget, effective
// safe-region geometry, defense scenario, run budget) — hashed BEFORE any
// pipeline work, so a hit skips program synthesis, process preparation, and
// interpretation outright, not just the executor loop. Pipeline
// construction and the executor are both deterministic functions of the
// recipe, so replaying a hit is provably value-preserving, not an
// approximation. Key assembly lives at the call sites (figures.cc), which
// know which recipe fields their pipelines actually observe.
//
// The memo is process-global but OFF by default: the campaign engine turns
// it on for its lifetime (EngineOptions::run_memo), so direct calls into
// src/eval or an engine built with run_memo = false run every baseline from
// scratch — the reference the memoized reports are checked against.
#ifndef MEMSENTRY_SRC_EVAL_RUN_MEMO_H_
#define MEMSENTRY_SRC_EVAL_RUN_MEMO_H_

#include <cstdint>
#include <cstddef>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

namespace memsentry::eval {

class RunMemo {
 public:
  // 128-bit key: two independent FNV-1a variants over the same bytes, so a
  // single-hash collision cannot alias two distinct cells.
  struct Key {
    uint64_t lo = 0;
    uint64_t hi = 0;
    bool operator==(const Key& other) const { return lo == other.lo && hi == other.hi; }
  };

  // The full observable outcome of eval's Execute() fast path.
  struct Result {
    bool ok = false;
    double cycles = 0;
    uint64_t instructions = 0;
  };

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    double HitRate() const {
      const uint64_t total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
    }
  };

  static RunMemo& Global();

  // Process-wide switch consulted by figures.cc's baseline memo. Off by
  // default.
  static void Enable(bool on);
  static bool Enabled();

  std::optional<Result> Lookup(const Key& key);
  void Insert(const Key& key, const Result& result);
  Stats stats() const;

  // Drops all entries and zeroes the stats (engine start).
  void Reset();

 private:
  struct KeyHash {
    size_t operator()(const Key& key) const {
      return static_cast<size_t>(key.lo ^ (key.hi * 0x9e3779b97f4a7c15ULL));
    }
  };

  mutable std::mutex mutex_;
  std::unordered_map<Key, Result, KeyHash> entries_;
  Stats stats_;
};

// Incremental 128-bit recipe hasher: two independent word-at-a-time mix
// streams over the same bytes, so a single-stream collision cannot alias
// two distinct recipes. Feed it every input the memoized computation reads,
// in a fixed order, then Finish().
class RunKeyHasher {
 public:
  void Bytes(const void* data, size_t n);
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  void F64(double v) { Bytes(&v, sizeof(v)); }
  void Str(const std::string& s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  RunMemo::Key Finish() const { return RunMemo::Key{a_, b_}; }

 private:
  uint64_t a_ = 1469598103934665603ULL;
  uint64_t b_ = 1469598103934665603ULL ^ 0x5bd1e9955bd1e995ULL;
};

}  // namespace memsentry::eval

#endif  // MEMSENTRY_SRC_EVAL_RUN_MEMO_H_
