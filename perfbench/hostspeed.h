// Host-speed probe: how fast this host runs a fixed piece of code right now.
//
// The shared hosts the benchmark runs on change speed by 10-30% from one
// minute to the next (other tenants' load). A throughput measured in such a
// swing says more about the host than about the program, so the end-to-end
// timings are scaled to a reference host speed: the run's median exec/s is
// divided by the speed probed between its campaigns (their upper
// quartile), and its median set-up time is multiplied by it.
//
// The probe is the benchmark's own code, built with the benchmark's flags,
// and never changes with the program: a faster program still reads faster.
// It is a miniature instrumented target — a fixed random control-flow graph
// walked by fixed inputs, with an AFL-style edge-hash update of a 64 kB
// coverage map at every block — so the host slows it down the way it slows
// a campaign's target execution.
#pragma once

namespace perfbench {

// Probe blocks per second that count as host speed 1.0 — about what the
// 4-vCPU Xeon VM the benchmark was defined on gives.
inline constexpr double kReferenceProbeBlocksPerSecond = 80e6;

// Runs the probe once (about 50 ms at the reference speed) and returns the
// host's speed now relative to the reference.
double host_speed();

}  // namespace perfbench
