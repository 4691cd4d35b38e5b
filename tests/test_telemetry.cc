/**
 * @file
 * Tests for the continuous-observation layer: the telemetry sampler
 * (off-by-default no-op, counter-track JSON schema, concurrent
 * sampling under TSan), deterministic percentile extraction against
 * the serial oracle at 1 and 8 recording threads, the run ledger
 * (round-trip fixpoint, torn-tail-line tolerance, append isolation),
 * and the perf-regression watchdog threshold logic including exact
 * boundaries.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/ledger.hh"
#include "obs/metrics.hh"
#include "obs/percentile.hh"
#include "obs/telemetry.hh"
#include "obs/trace.hh"

namespace sieve {
namespace {

/** Enable metrics/tracing for one test; restore the default after. */
struct ObsGuard
{
    ObsGuard(bool metrics, bool trace)
    {
        obs::setMetricsEnabled(metrics);
        obs::setTraceEnabled(trace);
        obs::resetMetrics();
        obs::resetTrace();
    }

    ~ObsGuard()
    {
        obs::stopTelemetry();
        obs::setMetricsEnabled(false);
        obs::setTraceEnabled(false);
        obs::resetMetrics();
        obs::resetTrace();
    }
};

/** Deterministic sample generator (no global RNG dependency). */
std::vector<uint64_t>
lcgSamples(size_t n, uint64_t seed)
{
    std::vector<uint64_t> out;
    out.reserve(n);
    uint64_t x = seed;
    for (size_t i = 0; i < n; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        out.push_back((x >> 33) % 5000000); // ns-scale durations
    }
    return out;
}

// ---------------------------------------------------------------
// Telemetry sampler
// ---------------------------------------------------------------

TEST(Telemetry, OffByDefaultAndNoOpWithoutTrace)
{
    ObsGuard guard(false, false);
    EXPECT_FALSE(obs::telemetryEnabled());

    // A manual sweep with tracing disabled counts as a sweep but
    // buffers nothing: emitCounterSample is a no-op when disabled.
    uint64_t before = obs::telemetrySweeps();
    obs::sampleTelemetryNow();
    EXPECT_EQ(obs::telemetrySweeps(), before + 1);
    EXPECT_EQ(obs::traceEventCount(), 0u);
}

TEST(Telemetry, StartStopIsIdempotent)
{
    ObsGuard guard(true, true);
    uint64_t before = obs::telemetrySweeps();

    obs::TelemetryOptions options;
    options.intervalMs = 1;
    obs::startTelemetry(options);
    EXPECT_TRUE(obs::telemetryEnabled());
    obs::startTelemetry(options); // second start: no second thread

    obs::stopTelemetry();
    EXPECT_FALSE(obs::telemetryEnabled());
    obs::stopTelemetry(); // second stop: no-op

    // At least the initial sweep plus the final settle sweep ran.
    EXPECT_GE(obs::telemetrySweeps(), before + 2);
}

TEST(Telemetry, CounterSampleSchemaAndSummaryRoundTrip)
{
    ObsGuard guard(true, true);
    obs::registerTelemetryProbe("test.tele.track",
                                [] { return int64_t{7}; });
    obs::sampleTelemetryNow();

    std::ostringstream os;
    obs::writeChromeTrace(os);
    std::string trace = os.str();

    // The emitted line is a Perfetto counter event: phase "C", the
    // track as the event name, and the sample under args.value.
    std::regex counter_line(
        "\\{\"ph\":\"C\"[^\n]*\"name\":\"test\\.tele\\.track\""
        "[^\n]*\"args\":\\{\"value\":7\\}");
    EXPECT_TRUE(std::regex_search(trace, counter_line)) << trace;

    // The built-in /proc probes ride along: every sweep samples at
    // least rss/vm/data plus the pool queue-depth gauge.
    std::istringstream is(trace);
    std::string error;
    obs::TraceSummary summary =
        obs::summarizeTrace(is, false, &error);
    EXPECT_TRUE(error.empty()) << error;
    EXPECT_GE(summary.tracks.size(), 4u);
    EXPECT_GE(summary.counterSamples, summary.tracks.size());

    bool found = false;
    for (const auto &t : summary.tracks) {
        if (t.track == "test.tele.track") {
            found = true;
            EXPECT_GE(t.samples, 1u);
            EXPECT_EQ(t.minValue, 7);
            EXPECT_EQ(t.maxValue, 7);
            EXPECT_EQ(t.lastValue, 7);
        }
    }
    EXPECT_TRUE(found);
}

TEST(Telemetry, TrackSummaryMinMaxLastFollowTimestamps)
{
    ObsGuard guard(true, true);
    // Out-of-order emission: "last" is the sample with the largest
    // timestamp, not the last one written.
    obs::emitCounterSample("test.tele.order", 100000, 5);
    obs::emitCounterSample("test.tele.order", 300000, 1);
    obs::emitCounterSample("test.tele.order", 200000, 9);

    std::ostringstream os;
    obs::writeChromeTrace(os);
    std::istringstream is(os.str());
    std::string error;
    obs::TraceSummary summary =
        obs::summarizeTrace(is, false, &error);
    ASSERT_TRUE(error.empty()) << error;

    const obs::CounterTrackSummary *track = nullptr;
    for (const auto &t : summary.tracks)
        if (t.track == "test.tele.order")
            track = &t;
    ASSERT_NE(track, nullptr);
    EXPECT_EQ(track->samples, 3u);
    EXPECT_EQ(track->minValue, 1);
    EXPECT_EQ(track->maxValue, 9);
    EXPECT_EQ(track->lastValue, 1); // ts 300000 is the latest
}

TEST(Telemetry, SamplingCreatesNoStableCounter)
{
    ObsGuard guard(true, true);
    auto before = obs::stableCounters();

    obs::registerTelemetryProbe("test.tele.readonly",
                                [] { return int64_t{1}; });
    obs::sampleTelemetryNow();
    obs::sampleTelemetryNow();

    // Sweeps only read: the Stable-counter surface (the CI-diffed
    // contract) is byte-identical with telemetry active.
    EXPECT_EQ(obs::stableCounters(), before);
}

TEST(Telemetry, SamplerConcurrentWithCounterHammering)
{
    // TSan target: the sampler thread reads a counter that worker
    // threads hammer, while registration happens mid-flight.
    ObsGuard guard(true, true);
    obs::Counter &c = obs::counter("test.tele.hammer");
    obs::registerTelemetryProbe("test.tele.hammer.rate", [&c] {
        return static_cast<int64_t>(c.value());
    });

    uint64_t sweeps_before = obs::telemetrySweeps();
    obs::TelemetryOptions options;
    options.intervalMs = 1;
    obs::startTelemetry(options);

    constexpr size_t kThreads = 4;
    constexpr uint64_t kAdds = 20000;
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&c] {
            for (uint64_t i = 0; i < kAdds; ++i)
                c.add();
        });
    }
    for (auto &t : threads)
        t.join();
    obs::stopTelemetry();

    EXPECT_EQ(c.value(), kThreads * kAdds);
    EXPECT_GE(obs::telemetrySweeps(), sweeps_before + 2);
}

// ---------------------------------------------------------------
// Percentile extraction
// ---------------------------------------------------------------

TEST(Percentile, MatchesSerialOracleBitForBit)
{
    auto samples = lcgSamples(4096, 0x5eed);
    std::vector<uint64_t> buckets(obs::Histogram::kBuckets, 0);
    for (uint64_t v : samples)
        ++buckets[obs::Histogram::bucketFor(v)];

    for (double q : {0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0}) {
        double fast = obs::quantileFromBuckets(buckets, q);
        double oracle = obs::reference::quantileFromSamples(samples, q);
        // Bit-identity, not closeness: the regression watchdog
        // compares these values exactly across runs.
        EXPECT_EQ(fast, oracle) << "q=" << q;
    }
}

TEST(Percentile, BitIdenticalAcrossRecordingThreadCounts)
{
    // The same multiset of durations recorded by 1 thread and by 8
    // threads must produce the bit-identical quantile set — bucket
    // sums are order-free, and the extraction is a pure function of
    // the bucket array. This is the --jobs-invariance claim for the
    // ledger's histogram summaries.
    auto samples = lcgSamples(8192, 0xfeedbeef);

    obs::Quantiles serial;
    {
        ObsGuard guard(true, false);
        obs::Histogram &h = obs::histogram("test.pct.jobs");
        for (uint64_t v : samples)
            h.record(v);
        serial = obs::summarizeBuckets(h.buckets());
    }

    obs::Quantiles threaded;
    {
        ObsGuard guard(true, false);
        obs::Histogram &h = obs::histogram("test.pct.jobs");
        constexpr size_t kThreads = 8;
        std::vector<std::thread> threads;
        for (size_t t = 0; t < kThreads; ++t) {
            threads.emplace_back([&h, &samples, t] {
                for (size_t i = t; i < samples.size(); i += kThreads)
                    h.record(samples[i]);
            });
        }
        for (auto &t : threads)
            t.join();
        threaded = obs::summarizeBuckets(h.buckets());
    }

    EXPECT_EQ(serial.p50, threaded.p50);
    EXPECT_EQ(serial.p90, threaded.p90);
    EXPECT_EQ(serial.p95, threaded.p95);
    EXPECT_EQ(serial.p99, threaded.p99);

    // And both agree with the from-raw-samples oracle.
    EXPECT_EQ(serial.p95,
              obs::reference::quantileFromSamples(samples, 0.95));
}

TEST(Percentile, EdgeCases)
{
    std::vector<uint64_t> empty(obs::Histogram::kBuckets, 0);
    EXPECT_EQ(obs::quantileFromBuckets(empty, 0.5), 0.0);

    // Bucket 0 holds exact zeros: every quantile of an all-zero
    // histogram is exactly zero.
    std::vector<uint64_t> zeros(obs::Histogram::kBuckets, 0);
    zeros[0] = 17;
    EXPECT_EQ(obs::quantileFromBuckets(zeros, 0.5), 0.0);
    EXPECT_EQ(obs::quantileFromBuckets(zeros, 0.99), 0.0);
    EXPECT_EQ(obs::quantileFromBuckets(zeros, 1.0), 0.0);

    // A single sample sits at its bucket's inclusive lower bound.
    std::vector<uint64_t> one(obs::Histogram::kBuckets, 0);
    one[obs::Histogram::bucketFor(8)] = 1;
    EXPECT_EQ(obs::quantileFromBuckets(one, 0.5), 8.0);
    EXPECT_EQ(obs::quantileFromBuckets(one, 1.0), 8.0);

    // Out-of-range q clamps rather than reading out of bounds.
    EXPECT_EQ(obs::quantileFromBuckets(one, -1.0), 8.0);
    EXPECT_EQ(obs::quantileFromBuckets(one, 2.0), 8.0);
}

// ---------------------------------------------------------------
// Run ledger
// ---------------------------------------------------------------

obs::RunManifest
sampleManifest()
{
    obs::RunManifest m;
    m.command = "sieve";
    m.argv = {"evaluate", "bfs_ny", "--jobs", "4"};
    m.jobs = 4;
    m.startedUnixMs = 1754500000123ull;
    m.wallMs = 12.345678901;
    m.maxRssKb = 51234;
    m.telemetrySamples = 42;
    m.counters["sampling.sieve.samples"] = 7;
    m.counters["gpusim.instructions"] = 123456789012345ull;
    obs::HistogramQuantiles h;
    h.count = 100;
    h.sum = 987654321;
    h.p50 = 42.5;
    h.p90 = 0.1; // not exactly representable: round-trip stressor
    h.p95 = 1e-3;
    h.p99 = 123456.789;
    m.histograms["pool.task.ns"] = h;
    return m;
}

TEST(Ledger, ManifestRoundTripIsAFixpoint)
{
    obs::RunManifest m = sampleManifest();
    std::string line = manifestToJsonLine(m);

    obs::RunManifest parsed;
    std::string error;
    ASSERT_TRUE(obs::parseManifestLine(line, &parsed, &error))
        << error;

    EXPECT_EQ(parsed.schema, m.schema);
    EXPECT_EQ(parsed.command, m.command);
    EXPECT_EQ(parsed.argv, m.argv);
    EXPECT_EQ(parsed.jobs, m.jobs);
    EXPECT_EQ(parsed.startedUnixMs, m.startedUnixMs);
    EXPECT_EQ(parsed.wallMs, m.wallMs);
    EXPECT_EQ(parsed.maxRssKb, m.maxRssKb);
    EXPECT_EQ(parsed.telemetrySamples, m.telemetrySamples);
    EXPECT_EQ(parsed.counters, m.counters);
    ASSERT_EQ(parsed.histograms.size(), 1u);
    const auto &h = parsed.histograms.at("pool.task.ns");
    EXPECT_EQ(h.count, 100u);
    EXPECT_EQ(h.p50, 42.5);
    EXPECT_EQ(h.p90, 0.1); // shortest-representation round-trip
    EXPECT_EQ(h.p95, 1e-3);

    // serialize(parse(serialize(m))) == serialize(m): the ledger can
    // be rewritten any number of times without drifting a byte.
    EXPECT_EQ(manifestToJsonLine(parsed), line);
}

TEST(Ledger, TornAndForeignLinesAreSkippedNotFatal)
{
    obs::RunManifest m = sampleManifest();
    std::string good = manifestToJsonLine(m);

    std::ostringstream file;
    file << good << "\n";
    file << "not json at all\n";
    file << good << "\n";
    // A crash mid-write leaves a prefix of a valid line.
    file << good.substr(0, good.size() / 2);

    std::istringstream is(file.str());
    obs::LedgerReadResult result = obs::readRunLedger(is);
    EXPECT_EQ(result.runs.size(), 2u);
    EXPECT_EQ(result.skippedLines, 2u);
}

TEST(Ledger, AppendIsolatesAnExistingTornTail)
{
    std::string path = "test_telemetry_ledger.tmp.jsonl";
    std::remove(path.c_str());

    obs::RunManifest m = sampleManifest();
    std::string good = manifestToJsonLine(m);
    {
        // Simulate a crashed writer: one whole line, then a torn
        // tail with no trailing newline.
        std::ofstream os(path, std::ios::binary);
        os << good << "\n" << good.substr(0, good.size() / 3);
    }

    std::string error;
    ASSERT_TRUE(obs::appendRunLedger(path, m, &error)) << error;

    // The appender's newline guard closed the torn line first, so
    // the fresh manifest parses and the torn one stays isolated.
    obs::LedgerReadResult result;
    ASSERT_TRUE(obs::readRunLedgerFile(path, &result, &error))
        << error;
    EXPECT_EQ(result.runs.size(), 2u);
    EXPECT_EQ(result.skippedLines, 1u);
    std::remove(path.c_str());
}

TEST(Ledger, CollectRunManifestCapturesLiveRegistry)
{
    ObsGuard guard(true, false);
    obs::setRunContext("test_telemetry", {"--jobs", "3"}, 3);
    obs::counter("test.ledger.stable").add(11);
    obs::histogram("test.ledger.ns").record(64);

    obs::RunManifest m = obs::collectRunManifest();
    EXPECT_EQ(m.command, "test_telemetry");
    EXPECT_EQ(m.argv,
              (std::vector<std::string>{"--jobs", "3"}));
    EXPECT_EQ(m.jobs, 3);
    EXPECT_GT(m.startedUnixMs, 0u);
    EXPECT_GT(m.maxRssKb, 0);
    EXPECT_EQ(m.counters.at("test.ledger.stable"), 11u);
    ASSERT_TRUE(m.histograms.count("test.ledger.ns"));
    EXPECT_EQ(m.histograms.at("test.ledger.ns").count, 1u);
    EXPECT_EQ(m.histograms.at("test.ledger.ns").p50, 64.0);
}

TEST(Ledger, FingerprintIgnoresObsRoutingFlags)
{
    obs::RunManifest plain = sampleManifest();
    obs::RunManifest routed = sampleManifest();
    routed.argv = {"evaluate", "bfs_ny", "--jobs", "4",
                   "--ledger", "runs.jsonl", "--trace-out", "t.json",
                   "--metrics-out", "m.json", "--telemetry",
                   "--telemetry-interval-ms", "5"};

    // Telemetry/ledger routing never changes what the run computes,
    // so a routed run baselines against the plain one.
    EXPECT_EQ(obs::runFingerprint(plain),
              obs::runFingerprint(routed));

    obs::RunManifest other_jobs = sampleManifest();
    other_jobs.argv = {"evaluate", "bfs_ny", "--jobs", "8"};
    EXPECT_NE(obs::runFingerprint(plain),
              obs::runFingerprint(other_jobs));

    obs::RunManifest other_load = sampleManifest();
    other_load.argv = {"evaluate", "lud", "--jobs", "4"};
    EXPECT_NE(obs::runFingerprint(plain),
              obs::runFingerprint(other_load));
}

// ---------------------------------------------------------------
// Regression watchdog
// ---------------------------------------------------------------

TEST(Regress, ThresholdBoundaryIsExclusive)
{
    // candidate > baseline * (1 + pct/100); 1.5 is exact in binary,
    // so the boundary case is testable without tolerance games.
    EXPECT_FALSE(obs::exceedsThreshold(1.5, 1.0, 50.0));
    EXPECT_TRUE(obs::exceedsThreshold(
        std::nextafter(1.5, 2.0), 1.0, 50.0));
    EXPECT_FALSE(obs::exceedsThreshold(1.0, 1.0, 0.0));
    EXPECT_TRUE(obs::exceedsThreshold(
        std::nextafter(1.0, 2.0), 1.0, 0.0));
    // Shrinking never regresses.
    EXPECT_FALSE(obs::exceedsThreshold(0.5, 1.0, 10.0));
}

TEST(Regress, FindRegressionsLatencyFootprintAndCounters)
{
    obs::RunManifest base = sampleManifest();
    base.histograms["pool.task.ns"].p95 = 1000.0;
    base.maxRssKb = 10000;

    obs::RegressOptions options; // 10% latency, 10% footprint

    // Identical repeat: clean.
    {
        obs::RunManifest cand = base;
        EXPECT_TRUE(
            obs::findRegressions(cand, {base}, options).empty());
    }

    // Exactly at the +10% boundary: still clean (exclusive rule).
    {
        obs::RunManifest cand = base;
        cand.histograms["pool.task.ns"].p95 = 1100.0;
        cand.maxRssKb = 11000;
        EXPECT_TRUE(
            obs::findRegressions(cand, {base}, options).empty());
    }

    // Beyond the boundary: both flagged.
    {
        obs::RunManifest cand = base;
        cand.histograms["pool.task.ns"].p95 = 1101.0;
        cand.maxRssKb = 11001;
        auto regs = obs::findRegressions(cand, {base}, options);
        ASSERT_EQ(regs.size(), 2u);
        EXPECT_EQ(regs[0].metric, "p95(pool.task.ns)");
        EXPECT_EQ(regs[1].metric, "max_rss_kb");
    }

    // Counter drift is flagged exactly, and only exactly.
    {
        obs::RunManifest cand = base;
        cand.counters["sampling.sieve.samples"] += 1;
        auto regs = obs::findRegressions(cand, {base}, options);
        ASSERT_EQ(regs.size(), 1u);
        EXPECT_EQ(regs[0].metric,
                  "counter(sampling.sieve.samples)");

        obs::RegressOptions tolerant = options;
        tolerant.allowCounterDrift = true;
        EXPECT_TRUE(
            obs::findRegressions(cand, {base}, tolerant).empty());
    }

    // No baselines: nothing to regress against.
    {
        obs::RunManifest cand = base;
        cand.histograms["pool.task.ns"].p95 = 1e9;
        EXPECT_TRUE(
            obs::findRegressions(cand, {}, options).empty());
    }
}

TEST(Regress, BaselineIsTheWindowMinimum)
{
    obs::RunManifest fast = sampleManifest();
    fast.histograms["pool.task.ns"].p95 = 1000.0;
    obs::RunManifest slow = sampleManifest();
    slow.histograms["pool.task.ns"].p95 = 5000.0;

    obs::RunManifest cand = sampleManifest();
    cand.histograms["pool.task.ns"].p95 = 2000.0;

    obs::RegressOptions options;
    options.window = 5;

    // A slow outlier baseline cannot mask the regression: the window
    // minimum (1000) is the bar, and 2000 is +100% over it.
    auto regs = obs::findRegressions(cand, {fast, slow}, options);
    ASSERT_EQ(regs.size(), 1u);
    EXPECT_EQ(regs[0].metric, "p95(pool.task.ns)");
    EXPECT_EQ(regs[0].baseline, 1000.0);

    // Shrink the window to exclude the fast run: clean again.
    options.window = 1;
    EXPECT_TRUE(
        obs::findRegressions(cand, {fast, slow}, options).empty());
}

} // namespace
} // namespace sieve
