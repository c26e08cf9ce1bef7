#include "hostspeed.h"

#include <vector>

#include "util/timing.h"

namespace perfbench {

namespace {

using bigmap::u16;
using bigmap::u32;
using bigmap::u64;
using bigmap::u8;

constexpr u32 kBlocks = 8192;
constexpr u32 kInputs = 64;
constexpr u32 kInputBytes = 256;
constexpr u32 kStepsPerInput = 1500;
constexpr u32 kPasses = 40;
constexpr u32 kMapSize = 1u << 16;

struct Block {
  u32 key;       // AFL-style random block id
  u16 pos;       // input byte the branch reads, offset by the step count
  u8 threshold;  // next[1] when that byte is below it, else next[0]
  u32 next[2];
};

// The fixed target, inputs and coverage map; every probe does the same work.
struct ProbeTarget {
  std::vector<Block> blocks;
  std::vector<u8> inputs;
  std::vector<u8> map;

  ProbeTarget()
      : blocks(kBlocks), inputs(kInputs * kInputBytes), map(kMapSize) {
    u64 x = 11;
    const auto next = [&x] {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      return static_cast<u32>(x >> 33);
    };
    for (Block& b : blocks) {
      b.key = next();
      b.pos = static_cast<u16>(next() % kInputBytes);
      b.threshold = static_cast<u8>(next());
      b.next[0] = next() % kBlocks;
      b.next[1] = next() % kBlocks;
    }
    for (u8& c : inputs) c = static_cast<u8>(next());
  }
};

volatile u64 g_probe_sink;  // keeps the map's contents live

}  // namespace

double host_speed() {
  static ProbeTarget t;
  const u64 start = bigmap::monotonic_ns();
  for (u32 pass = 0; pass < kPasses; ++pass) {
    for (u32 in = 0; in < kInputs; ++in) {
      const u8* input = &t.inputs[in * kInputBytes];
      u32 block = in;
      u32 prev = 0;
      for (u32 step = 0; step < kStepsPerInput; ++step) {
        const Block& b = t.blocks[block];
        ++t.map[(b.key ^ prev) & (kMapSize - 1)];
        prev = b.key >> 1;
        block = b.next[input[(b.pos + step) % kInputBytes] < b.threshold];
      }
    }
  }
  const u64 ns = bigmap::monotonic_ns() - start;
  g_probe_sink = t.map[0];
  const double blocks =
      static_cast<double>(kPasses) * kInputs * kStepsPerInput;
  const double per_s = blocks / (static_cast<double>(ns) * 1e-9);
  return per_s / kReferenceProbeBlocksPerSecond;
}

}  // namespace perfbench
