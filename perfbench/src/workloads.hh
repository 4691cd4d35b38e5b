/**
 * @file
 * The four benchmark workloads and the helpers they share.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.hh"
#include "trace/workload.hh"
#include "workloads/spec.hh"

namespace perfbench {

/** Registry spec by name at an invocation cap; throws if unknown. */
sieve::workloads::WorkloadSpec registrySpec(const std::string &name,
                                            size_t cap);

/**
 * The workload with every invocation's noise seed mixed with a
 * splitmix64 stream started at `seed` (an exact copy for seed 0): how
 * the benchmark seed reaches every generated input. The golden
 * timings change, and with them every prediction and error, and so do
 * the contents of synthesized traces (addresses, instruction order);
 * the instruction counts, launch shapes and memory profiles, and so
 * the strata, the trace sizes and the amount of work, do not.
 */
sieve::trace::Workload reseedNoise(const sieve::trace::Workload &wl,
                                   uint64_t seed);

/** splitmix64 step: a deterministic stream for seeded inputs. */
inline uint64_t
splitmix(uint64_t &state)
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::unique_ptr<BenchWorkload> makeSuiteEval();
std::unique_ptr<BenchWorkload> makeStreamSieve();
std::unique_ptr<BenchWorkload> makeRepSim();
std::unique_ptr<BenchWorkload> makeServeMix();

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
