// Interpreter determinism regression: same program + input + budget must
// produce the identical execution whatever the per-block callback does —
// step counts, blocks visited, and crash/hang verdicts. Dual-mode fuzzing
// leans on this: the untraced run, whose callback only counts hits, must
// be bit-for-bit the execution the traced re-run then performs.
#include "target/interpreter.h"

#include <gtest/gtest.h>

#include <vector>

#include "target/generator.h"

namespace bigmap {
namespace {

GeneratedTarget determinism_target(u64 seed = 7) {
  GeneratorParams p;
  p.name = "determinism-target";
  p.seed = seed;
  p.live_blocks = 150;
  p.num_bugs = 2;
  p.bug_min_depth = 1;
  p.bug_max_depth = 2;
  return generate_target(p);
}

struct Trace {
  ExecResult result;
  std::vector<u32> blocks;
};

Trace run_traced(Interpreter& interp, const Program& prog,
                 const std::vector<u8>& input) {
  Trace t;
  t.result = interp.run(prog, input,
                        [&](u32 block) { t.blocks.push_back(block); });
  return t;
}

// An untraced-style run: the callback records no block stream, only how
// often each block ran (the shape of the executor's untraced oracle).
struct Counted {
  ExecResult result;
  std::vector<u32> hits;
};

Counted run_untraced(Interpreter& interp, const Program& prog,
                     const std::vector<u8>& input) {
  Counted c;
  c.hits.assign(prog.blocks.size(), 0);
  c.result = interp.run(prog, input, [&](u32 block) { ++c.hits[block]; });
  return c;
}

void expect_same_result(const ExecResult& a, const ExecResult& b) {
  EXPECT_EQ(a.outcome, b.outcome);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.bug_id, b.bug_id);
  EXPECT_EQ(a.faulting_block, b.faulting_block);
  EXPECT_EQ(a.stack_hash, b.stack_hash);
}

void expect_identical(const Trace& a, const Trace& b) {
  expect_same_result(a.result, b.result);
  EXPECT_EQ(a.blocks, b.blocks);
}

// The counted run executed exactly the traced run's blocks, as a multiset.
void expect_identical(const Trace& traced, const Counted& counted) {
  expect_same_result(traced.result, counted.result);
  std::vector<u32> hits(counted.hits.size(), 0);
  for (u32 block : traced.blocks) ++hits[block];
  EXPECT_EQ(hits, counted.hits);
}

std::vector<std::vector<u8>> probe_inputs(const GeneratedTarget& target) {
  std::vector<std::vector<u8>> inputs = make_seed_corpus(target, 8, 3);
  inputs.push_back({});                        // empty input
  inputs.push_back(std::vector<u8>(64, 0xFF));  // saturated bytes
  for (u32 bug = 0; bug < target.program.num_bugs; ++bug) {
    inputs.push_back(target.crashing_input(bug));
  }
  return inputs;
}

TEST(DeterminismTest, TracedRunsAreRepeatable) {
  GeneratedTarget target = determinism_target();
  Interpreter interp(1u << 14);
  for (const auto& input : probe_inputs(target)) {
    Trace first = run_traced(interp, target.program, input);
    Trace second = run_traced(interp, target.program, input);
    expect_identical(first, second);
    EXPECT_GT(first.result.steps, 0u);
    EXPECT_EQ(first.blocks.size(), first.result.steps);
  }
}

TEST(DeterminismTest, UntracedRunsAreRepeatable) {
  GeneratedTarget target = determinism_target();
  Interpreter interp(1u << 14);
  for (const auto& input : probe_inputs(target)) {
    Counted first = run_untraced(interp, target.program, input);
    Counted second = run_untraced(interp, target.program, input);
    expect_same_result(first.result, second.result);
    EXPECT_EQ(first.hits, second.hits);
  }
}

// The mode-equivalence cornerstone: an untraced run IS the traced
// execution — identical blocks, step count, and verdict.
TEST(DeterminismTest, UntracedMatchesTracedWhenOracleNeverFires) {
  GeneratedTarget target = determinism_target();
  Interpreter interp(1u << 14);
  for (const auto& input : probe_inputs(target)) {
    Trace traced = run_traced(interp, target.program, input);
    Counted untraced = run_untraced(interp, target.program, input);
    expect_identical(traced, untraced);
  }
}

TEST(DeterminismTest, CrashVerdictIdenticalInBothModes) {
  GeneratedTarget target = determinism_target();
  ASSERT_GT(target.program.num_bugs, 0u);
  Interpreter interp(1u << 14);
  for (u32 bug = 0; bug < target.program.num_bugs; ++bug) {
    const std::vector<u8> input = target.crashing_input(bug);
    Trace traced = run_traced(interp, target.program, input);
    ASSERT_EQ(traced.result.outcome, ExecResult::Outcome::kCrash);
    EXPECT_EQ(traced.result.bug_id, bug);

    Counted untraced = run_untraced(interp, target.program, input);
    expect_identical(traced, untraced);
  }
}

TEST(DeterminismTest, HangVerdictIdenticalInBothModes) {
  GeneratedTarget target = determinism_target();
  const std::vector<u8> input = make_seed_corpus(target, 1, 9)[0];

  // Find the input's natural length, then starve the budget below it so
  // the run deterministically hangs at exactly the budget boundary.
  Interpreter probe(1u << 14);
  Trace full = run_traced(probe, target.program, input);
  ASSERT_EQ(full.result.outcome, ExecResult::Outcome::kOk);
  ASSERT_GT(full.result.steps, 2u);

  Interpreter starved(full.result.steps - 1);
  Trace traced = run_traced(starved, target.program, input);
  EXPECT_EQ(traced.result.outcome, ExecResult::Outcome::kHang);
  EXPECT_EQ(traced.result.steps, full.result.steps - 1);

  Counted untraced = run_untraced(starved, target.program, input);
  expect_identical(traced, untraced);
}

}  // namespace
}  // namespace bigmap
