#include "workloads.hh"

#include <optional>
#include <stdexcept>

#include "workloads/suites.hh"

namespace perfbench {

sieve::workloads::WorkloadSpec
registrySpec(const std::string &name, size_t cap)
{
    std::optional<sieve::workloads::WorkloadSpec> spec =
        sieve::workloads::findSpec(name, cap);
    if (!spec)
        throw std::runtime_error("workload '" + name +
                                 "' missing from the registry");
    return *spec;
}

sieve::trace::Workload
reseedNoise(const sieve::trace::Workload &wl, uint64_t seed)
{
    sieve::trace::Workload out(wl.suite(), wl.name());
    out.setPaperInvocations(wl.paperInvocations());
    out.reserve(wl.numKernels(), wl.numInvocations());
    for (const sieve::trace::Kernel &k : wl.kernels())
        out.addKernel(k.name);
    uint64_t state = seed;
    for (sieve::trace::KernelInvocation inv : wl.invocations()) {
        if (seed != 0)
            inv.noiseSeed ^= splitmix(state);
        out.addInvocation(inv);
    }
    return out;
}

std::unique_ptr<BenchWorkload>
makeWorkload(const std::string &name)
{
    if (name == "suite-eval")
        return makeSuiteEval();
    if (name == "stream-sieve")
        return makeStreamSieve();
    if (name == "rep-sim")
        return makeRepSim();
    if (name == "serve-mix")
        return makeServeMix();
    return nullptr;
}

} // namespace perfbench
