/**
 * @file
 * Tests for the event-driven simulator core introduced in PR 9: the
 * pooled Arena, the timing wheel that replaced the outstanding-miss
 * heap, open-addressed MSHR parity against the map-based reference
 * cache, engine parity (event-driven vs reference) on synthesized and
 * degenerate traces including the PKP early-stop paths, and the
 * zero-steady-state-allocation contract of the pooled workspace.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <vector>

#include "common/arena.hh"
#include "common/rng.hh"
#include "gpu/arch_config.hh"
#include "gpusim/gpu_simulator.hh"
#include "gpusim/reference.hh"
#include "gpusim/sim_core.hh"
#include "gpusim/timing_wheel.hh"
#include "gpusim/trace_synth.hh"
#include "trace/columnar.hh"
#include "workloads/generator.hh"
#include "workloads/suites.hh"

#include "mshr_heavy_trace.hh"

namespace sieve::gpusim {
namespace {

// --- arena ---

TEST(Arena, AllocResetReuse)
{
    Arena arena;
    EXPECT_EQ(arena.capacityBytes(), 0u);
    uint64_t *a = arena.alloc<uint64_t>(100);
    ASSERT_NE(a, nullptr);
    for (size_t i = 0; i < 100; ++i)
        a[i] = i;
    size_t cap = arena.capacityBytes();
    EXPECT_GT(cap, 0u);
    uint64_t grown = arena.growthEvents();
    EXPECT_GE(grown, 1u);

    // Reset rewinds without releasing: same storage, no new growth.
    arena.reset();
    uint64_t *b = arena.alloc<uint64_t>(100);
    EXPECT_EQ(a, b);
    EXPECT_EQ(arena.capacityBytes(), cap);
    EXPECT_EQ(arena.growthEvents(), grown);
}

TEST(Arena, AlignmentAndTypedAllocs)
{
    Arena arena;
    uint8_t *a = arena.alloc<uint8_t>(3);
    double *d = arena.alloc<double>(5);
    uint8_t *b = arena.alloc<uint8_t>(1);
    uint64_t *q = arena.alloc<uint64_t>(2);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(d) % alignof(double), 0u);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(q) % alignof(uint64_t), 0u);
    // All four live in the same slab, disjoint.
    EXPECT_LT(a + 3, reinterpret_cast<uint8_t *>(d));
    EXPECT_LT(reinterpret_cast<uint8_t *>(d + 5), b + 1);
    (void)b;
}

TEST(Arena, GrowthPastSlabAddsSlabsAndResetKeepsThem)
{
    Arena arena;
    // Far past the minimum slab: multiple growth events.
    for (int i = 0; i < 8; ++i)
        arena.alloc<uint8_t>(1 << 18);
    uint64_t grown = arena.growthEvents();
    EXPECT_GE(grown, 2u);
    size_t cap = arena.capacityBytes();
    arena.reset();
    for (int i = 0; i < 8; ++i)
        arena.alloc<uint8_t>(1 << 18);
    EXPECT_EQ(arena.growthEvents(), grown);
    EXPECT_EQ(arena.capacityBytes(), cap);
}

TEST(Arena, ReleaseReturnsResidency)
{
    size_t resident_before = arenaGlobalStats().residentBytes;
    {
        Arena arena;
        arena.alloc<uint8_t>(1 << 19);
        EXPECT_GT(arenaGlobalStats().residentBytes, resident_before);
        arena.release();
        EXPECT_EQ(arena.capacityBytes(), 0u);
    }
    EXPECT_EQ(arenaGlobalStats().residentBytes, resident_before);
}

// --- timing wheel ---

TEST(TimingWheel, PushAdvanceDrain)
{
    TimingWheel wheel;
    EXPECT_TRUE(wheel.empty());
    wheel.push(10);
    wheel.push(10);
    wheel.push(25);
    EXPECT_EQ(wheel.size(), 3u);
    EXPECT_EQ(wheel.nextReady(), 10u);

    wheel.advanceTo(9);
    EXPECT_EQ(wheel.size(), 3u);
    wheel.advanceTo(10);
    EXPECT_EQ(wheel.size(), 1u);
    EXPECT_EQ(wheel.nextReady(), 25u);
    wheel.advanceTo(100);
    EXPECT_TRUE(wheel.empty());
}

TEST(TimingWheel, WrapAroundAcrossRing)
{
    // 16-slot ring: ready times beyond base + 15 go to overflow and
    // must migrate back into the ring as the base advances past them.
    TimingWheel wheel(16);
    wheel.push(3);      // in ring
    wheel.push(40);     // overflow (3 wraps past 16 slots)
    wheel.push(1000);   // deep overflow
    EXPECT_EQ(wheel.size(), 3u);
    EXPECT_EQ(wheel.nextReady(), 3u);

    wheel.advanceTo(3);
    EXPECT_EQ(wheel.size(), 2u);
    EXPECT_EQ(wheel.nextReady(), 40u);

    // Walk the window forward in sub-ring hops; 40 retires on time.
    wheel.advanceTo(17);
    wheel.advanceTo(33);
    EXPECT_EQ(wheel.size(), 2u);
    wheel.advanceTo(39);
    EXPECT_EQ(wheel.size(), 2u);
    wheel.advanceTo(40);
    EXPECT_EQ(wheel.size(), 1u);
    EXPECT_EQ(wheel.nextReady(), 1000u);
    wheel.advanceTo(1000);
    EXPECT_TRUE(wheel.empty());
}

TEST(TimingWheel, ClearKeepsCapacityAndRestarts)
{
    TimingWheel wheel(16);
    wheel.push(5);
    wheel.push(300);
    wheel.clear();
    EXPECT_TRUE(wheel.empty());
    // After clear the wheel restarts at base 0.
    wheel.push(2);
    EXPECT_EQ(wheel.nextReady(), 2u);
    wheel.advanceTo(2);
    EXPECT_TRUE(wheel.empty());
}

TEST(TimingWheel, RandomizedAgainstMultisetModel)
{
    Rng rng("timing-wheel-model");
    TimingWheel wheel(64); // small ring to stress overflow paths
    std::multiset<uint64_t> model;
    uint64_t now = 0;
    for (int step = 0; step < 5000; ++step) {
        if (model.size() < 32 && rng.bernoulli(0.6)) {
            // Spread mimics the simulator: mostly near-future ready
            // times, occasionally far past the ring span.
            uint64_t delta = rng.bernoulli(0.1)
                                 ? 64 + rng.next() % 4096
                                 : 1 + rng.next() % 63;
            wheel.push(now + delta);
            model.insert(now + delta);
        } else {
            now += 1 + rng.next() % 96;
            wheel.advanceTo(now);
            model.erase(model.begin(), model.upper_bound(now));
        }
        ASSERT_EQ(wheel.size(), model.size());
        ASSERT_EQ(wheel.empty(), model.empty());
        if (!model.empty()) {
            ASSERT_EQ(wheel.nextReady(), *model.begin());
        }
    }
}

// --- open-addressed MSHR / SoA cache vs the map-based reference ---

TEST(SoaCache, OutcomeSequenceMatchesReferenceUnderRandomProbes)
{
    Rng rng("mshr-parity");
    // Small geometry forces evictions; 4 MSHRs force merge/full.
    Cache soa(16, 4, 4);
    reference::Cache ref(16, 4, 4);

    std::vector<uint64_t> inflight; // fills we deliberately hold back
    for (int step = 0; step < 20000; ++step) {
        if (!inflight.empty() &&
            (inflight.size() >= 8 || rng.bernoulli(0.25))) {
            size_t pick = static_cast<size_t>(
                rng.next() % inflight.size());
            uint64_t line = inflight[pick];
            inflight.erase(inflight.begin() +
                           static_cast<ptrdiff_t>(pick));
            soa.fill(line);
            ref.fill(line);
        } else {
            // Narrow line space: repeats produce hits and merges.
            uint64_t line = rng.next() % 96;
            uint64_t at = static_cast<uint64_t>(step);
            CacheOutcome a = soa.access(line, at);
            CacheOutcome b = ref.access(line, at);
            ASSERT_EQ(a, b) << "step " << step << " line " << line;
            if (a == CacheOutcome::Miss)
                inflight.push_back(line);
        }
        ASSERT_EQ(soa.inflight(), ref.inflight());
    }
    EXPECT_EQ(soa.stats().accesses, ref.stats().accesses);
    EXPECT_EQ(soa.stats().hits, ref.stats().hits);
    EXPECT_EQ(soa.stats().misses, ref.stats().misses);
    EXPECT_EQ(soa.stats().mshrMerges, ref.stats().mshrMerges);
    EXPECT_EQ(soa.stats().mshrStalls, ref.stats().mshrStalls);
    EXPECT_GT(soa.stats().hits, 0u);
    EXPECT_GT(soa.stats().mshrMerges, 0u);
    EXPECT_GT(soa.stats().mshrStalls, 0u);
}

TEST(SoaCache, FillAfterMshrFullIsANoOpLikeTheReference)
{
    // The SM calls fill() for every non-hit outcome, including
    // MshrFull, where the line never entered the table. The erase
    // must be a no-op, exactly like map::erase of an absent key.
    Cache soa(4, 2, 1);
    reference::Cache ref(4, 2, 1);
    EXPECT_EQ(soa.access(1, 0), ref.access(1, 0)); // Miss
    EXPECT_EQ(soa.access(2, 1), ref.access(2, 1)); // MshrFull
    soa.fill(2);
    ref.fill(2);
    EXPECT_EQ(soa.inflight(), ref.inflight());
    EXPECT_EQ(soa.inflight(), 1u); // line 1 still pending
    soa.fill(1);
    ref.fill(1);
    EXPECT_EQ(soa.inflight(), 0u);
    EXPECT_EQ(soa.access(1, 2), ref.access(1, 2)); // Hit both
    EXPECT_EQ(soa.access(2, 3), ref.access(2, 3)); // Hit both
}

TEST(SoaCache, ConfigureReusesStorageAndResets)
{
    Cache cache;
    cache.configure(16, 4, 4);
    cache.access(7, 0);
    cache.fill(7);
    EXPECT_EQ(cache.access(7, 1), CacheOutcome::Hit);
    cache.configure(16, 4, 4);
    EXPECT_EQ(cache.stats().accesses, 0u);
    EXPECT_EQ(cache.access(7, 0), CacheOutcome::Miss);
}

// --- engine parity ---

gpu::ArchConfig
testArch()
{
    return gpu::ArchConfig::ampereRtx3080();
}

void
expectSameResult(const KernelSimResult &a, const KernelSimResult &b,
                 const char *label)
{
    EXPECT_EQ(a.simCycles, b.simCycles) << label;
    EXPECT_EQ(a.instructionsSimulated, b.instructionsSimulated)
        << label;
    EXPECT_EQ(a.wavesSimulated, b.wavesSimulated) << label;
    EXPECT_EQ(a.pkpStoppedEarly, b.pkpStoppedEarly) << label;
    // The contract is byte identity, so doubles compare bitwise.
    EXPECT_EQ(std::memcmp(&a.estimatedKernelCycles,
                          &b.estimatedKernelCycles, sizeof(double)),
              0)
        << label;
    EXPECT_EQ(std::memcmp(&a.ipc, &b.ipc, sizeof(double)), 0) << label;
    EXPECT_EQ(std::memcmp(&a.estimatedIpc, &b.estimatedIpc,
                          sizeof(double)),
              0)
        << label;
    EXPECT_EQ(std::memcmp(&a.fractionSimulated, &b.fractionSimulated,
                          sizeof(double)),
              0)
        << label;
    EXPECT_EQ(a.l1.accesses, b.l1.accesses) << label;
    EXPECT_EQ(a.l1.hits, b.l1.hits) << label;
    EXPECT_EQ(a.l1.misses, b.l1.misses) << label;
    EXPECT_EQ(a.l1.mshrMerges, b.l1.mshrMerges) << label;
    EXPECT_EQ(a.l1.mshrStalls, b.l1.mshrStalls) << label;
    EXPECT_EQ(a.l2.accesses, b.l2.accesses) << label;
    EXPECT_EQ(a.l2.hits, b.l2.hits) << label;
    EXPECT_EQ(a.l2.misses, b.l2.misses) << label;
    EXPECT_EQ(a.dram.requests, b.dram.requests) << label;
    EXPECT_EQ(a.dram.bytes, b.dram.bytes) << label;
    EXPECT_EQ(a.dram.busyCycles, b.dram.busyCycles) << label;
}

void
expectEnginesAgree(const trace::KernelTrace &kt, const char *label,
                   GpuSimConfig base = {})
{
    GpuSimConfig ev = base;
    ev.engine = SimEngine::EventDriven;
    GpuSimConfig rf = base;
    rf.engine = SimEngine::Reference;
    KernelSimResult a = GpuSimulator(testArch(), ev).simulate(kt);
    KernelSimResult b = GpuSimulator(testArch(), rf).simulate(kt);
    expectSameResult(a, b, label);
}

TEST(EngineParity, SynthesizedSuiteTraces)
{
    for (const char *name : {"gru", "gst"}) {
        auto spec = workloads::findSpec(name);
        ASSERT_TRUE(spec);
        trace::Workload wl = workloads::generateWorkload(*spec);
        TraceSynthOptions synth;
        synth.maxTracedCtas = 8;
        for (size_t inv = 0; inv < 3 && inv < wl.numInvocations();
             ++inv)
            expectEnginesAgree(synthesizeTrace(wl, inv, synth), name);
    }
}

TEST(EngineParity, MshrHeavyAllMissChains)
{
    expectEnginesAgree(mshrHeavyTrace(4, 8, 40), "mshr-heavy");
}

TEST(EngineParity, SingleWarpSingleLoad)
{
    expectEnginesAgree(mshrHeavyTrace(1, 1, 1), "single-warp");
}

TEST(EngineParity, ZeroInstructionWarpAndEmptyCta)
{
    // A warp with no instructions is resident-but-done from the
    // start; a CTA with no warps occupies a residency slot only.
    trace::KernelTrace kt = mshrHeavyTrace(2, 2, 4);
    kt.ctas[0].warps[1].instructions.clear();
    kt.ctas.push_back(trace::CtaTrace{});
    kt.launch.grid = {3, 1, 1};
    expectEnginesAgree(kt, "degenerate-warps");
}

TEST(EngineParity, MixedComputeAndDivergence)
{
    // Exercise every issue path: ALU, FMA, SFU, shared, stores,
    // atomics, and a divergent branch with its replay window.
    trace::KernelTrace kt;
    kt.kernelName = "mixed";
    kt.launch.grid = {2, 1, 1};
    kt.launch.cta = {64, 1, 1};
    kt.ctas.resize(2);
    using trace::Opcode;
    for (uint32_t c = 0; c < 2; ++c) {
        kt.ctas[c].warps.resize(2);
        for (uint32_t w = 0; w < 2; ++w) {
            auto &insts = kt.ctas[c].warps[w].instructions;
            auto add = [&](Opcode op, uint8_t dst, uint8_t s0,
                           uint8_t s1, uint8_t sectors,
                           uint64_t addr) {
                trace::SassInstruction si;
                si.opcode = op;
                si.destReg = dst;
                si.srcReg0 = s0;
                si.srcReg1 = s1;
                si.sectors = sectors;
                si.lineAddress = addr;
                insts.push_back(si);
            };
            uint64_t base = (c * 2 + w) * 1000;
            add(Opcode::IAdd, 2, 0, 0, 1, 0);
            add(Opcode::FFma, 3, 2, 0, 1, 0);
            add(Opcode::Mufu, 4, 3, 0, 1, 0);
            add(Opcode::Ldg, 5, 0, 0, 4, base + 1);
            add(Opcode::Bra, 0, 0, 0, 16, 0); // divergent: 16 of 32
            add(Opcode::DFma, 6, 5, 3, 1, 0);
            add(Opcode::Lds, 7, 6, 0, 1, 0);
            add(Opcode::Sts, 0, 7, 0, 1, 0);
            add(Opcode::Stg, 0, 5, 0, 2, base + 7);
            add(Opcode::Atom, 8, 0, 0, 1, base % 64);
            add(Opcode::Ldl, 9, 8, 0, 1, base + 9);
            add(Opcode::Stl, 0, 9, 0, 1, base + 9);
            add(Opcode::Exit, 0, 0, 0, 1, 0);
        }
    }
    expectEnginesAgree(kt, "mixed-pipes");
}

// --- PKP determinism across engines ---

TEST(EngineParity, PkpToleranceAndPatienceEdges)
{
    // Many small CTAs on one simulated SM give several CTA waves, so
    // the PKP machinery actually runs its wave-boundary checks.
    trace::KernelTrace kt = mshrHeavyTrace(48, 2, 12);
    struct Case
    {
        double tolerance;
        uint32_t patience;
        const char *label;
    } cases[] = {
        {0.0, 1, "pkp-tolerance-0"},     // delta < 0.0 never holds
        {1.0e9, 1, "pkp-tolerance-big"}, // converges immediately
        {0.05, 2, "pkp-default-ish"},
        {1.0e9, 100, "pkp-patience-never"},
    };
    for (const Case &c : cases) {
        GpuSimConfig base;
        base.simSms = 1;
        base.pkpEnabled = true;
        base.pkpTolerance = c.tolerance;
        base.pkpPatience = c.patience;
        expectEnginesAgree(kt, c.label, base);
    }
}

TEST(EngineParity, PkpStopsEarlyAndWaveCountsMatch)
{
    trace::KernelTrace kt = mshrHeavyTrace(48, 2, 12);
    GpuSimConfig base;
    base.simSms = 1;
    base.pkpEnabled = true;
    base.pkpTolerance = 1.0e9;
    base.pkpPatience = 1;

    GpuSimConfig ev = base;
    ev.engine = SimEngine::EventDriven;
    GpuSimConfig rf = base;
    rf.engine = SimEngine::Reference;
    KernelSimResult a = GpuSimulator(testArch(), ev).simulate(kt);
    KernelSimResult b = GpuSimulator(testArch(), rf).simulate(kt);

    // The converged-wave count is the regression surface: a core that
    // visits different cycles converges after a different number of
    // waves long before aggregate counters drift.
    EXPECT_EQ(a.wavesSimulated, b.wavesSimulated);
    EXPECT_LT(a.wavesSimulated, 48u / 16u + 1u);
    EXPECT_TRUE(a.pkpStoppedEarly);
    EXPECT_TRUE(b.pkpStoppedEarly);
    EXPECT_LT(a.fractionSimulated, 1.0);
    expectSameResult(a, b, "pkp-early-stop");
}

// --- pooled workspace: zero steady-state allocations ---

TEST(SimWorkspace, NoArenaGrowthInSteadyState)
{
    trace::ColumnarTrace big =
        trace::toColumnar(mshrHeavyTrace(8, 8, 24));
    trace::ColumnarTrace small =
        trace::toColumnar(mshrHeavyTrace(2, 4, 6));
    GpuSimulator sim(testArch());

    // Warm-up sizes every pooled buffer for the largest trace.
    sim.simulate(big);
    sim.simulate(small);

    uint64_t growth = simArenaGrowthEvents();
    KernelSimResult first = sim.simulate(big);
    for (int i = 0; i < 5; ++i) {
        KernelSimResult again = sim.simulate(big);
        expectSameResult(again, first, "steady-state repeat");
        sim.simulate(small);
    }
    EXPECT_EQ(simArenaGrowthEvents(), growth)
        << "steady-state simulation grew a pooled arena";
}

} // namespace
} // namespace sieve::gpusim
