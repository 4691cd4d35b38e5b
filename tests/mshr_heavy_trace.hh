/**
 * @file
 * The all-miss dependent-load trace shared by the engine parity
 * tests (test_sim_core) and the engine timing floors
 * (test_perf_floors).
 */

#ifndef SIEVE_TESTS_MSHR_HEAVY_TRACE_HH
#define SIEVE_TESTS_MSHR_HEAVY_TRACE_HH

#include <cstdint>

#include "trace/sass_trace.hh"

namespace sieve::gpusim {

/**
 * All-miss dependent-load chains: every warp alternates scattered
 * global loads whose source is the previous load's destination, the
 * workload class where the MSHR bound and DRAM latency dominate and
 * the event core does the least stepping. Lines are distinct per
 * (`id`, CTA, warp, load), so traces with different ids share no
 * line and every access is a compulsory miss at L1 and L2; the odd
 * stride scatters lines across L2 slices and DRAM channels.
 */
inline trace::KernelTrace
mshrHeavyTrace(uint32_t n_ctas, uint32_t warps_per_cta,
               uint32_t loads_per_warp, uint64_t id = 1)
{
    trace::KernelTrace kt;
    kt.kernelName = "mshr_heavy";
    kt.invocationId = id;
    kt.launch.grid = {n_ctas, 1, 1};
    kt.launch.cta = {warps_per_cta * 32, 1, 1};
    kt.ctas.resize(n_ctas);
    uint64_t line = id << 32;
    for (uint32_t c = 0; c < n_ctas; ++c) {
        kt.ctas[c].warps.resize(warps_per_cta);
        for (uint32_t w = 0; w < warps_per_cta; ++w) {
            auto &insts = kt.ctas[c].warps[w].instructions;
            uint8_t prev = 0;
            for (uint32_t i = 0; i < loads_per_warp; ++i) {
                trace::SassInstruction si;
                si.opcode = trace::Opcode::Ldg;
                // The simulator scoreboards 32 architectural
                // registers; cycle through 2..31.
                si.destReg = static_cast<uint8_t>(2 + i % 30);
                si.srcReg0 = prev;
                si.sectors = 32;
                si.lineAddress = line;
                line += 97;
                prev = si.destReg;
                insts.push_back(si);
            }
            trace::SassInstruction halt;
            halt.opcode = trace::Opcode::Exit;
            insts.push_back(halt);
        }
    }
    return kt;
}

} // namespace sieve::gpusim

#endif // SIEVE_TESTS_MSHR_HEAVY_TRACE_HH
