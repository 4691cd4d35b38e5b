#include "obs/obs.hh"

#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "obs/ledger.hh"
#include "obs/metrics.hh"
#include "obs/telemetry.hh"
#include "obs/trace.hh"

namespace sieve::obs {

namespace {

std::mutex g_mu;
ObsOptions g_options;
bool g_atexit_registered = false;
bool g_ledger_appended = false;

void
flushAtExit()
{
    flushObs();
}

} // namespace

void
configureObs(const ObsOptions &options)
{
    bool start_telemetry = false;
    uint64_t interval_ms = 25;
    {
        std::lock_guard<std::mutex> lock(g_mu);
        if (!options.traceOut.empty()) {
            g_options.traceOut = options.traceOut;
            setTraceEnabled(true);
        }
        if (!options.metricsOut.empty()) {
            g_options.metricsOut = options.metricsOut;
            setMetricsEnabled(true);
        }
        if (!options.ledgerOut.empty())
            g_options.ledgerOut = options.ledgerOut;
        if (options.telemetry) {
            if (g_options.traceOut.empty()) {
                std::fprintf(stderr,
                             "[sieve:obs] --telemetry needs "
                             "--trace-out; sampler stays off\n");
            } else {
                g_options.telemetry = true;
                g_options.telemetryIntervalMs =
                    options.telemetryIntervalMs;
                start_telemetry = true;
                interval_ms = options.telemetryIntervalMs;
            }
        }
        bool active = !g_options.traceOut.empty() ||
                      !g_options.metricsOut.empty() ||
                      !g_options.ledgerOut.empty();
        if (active && !g_atexit_registered) {
            g_atexit_registered = true;
            std::atexit(flushAtExit);
        }
    }
    // Outside the lock: startTelemetry touches the sampler's own
    // locks and must not nest under g_mu (flushObs orders the same).
    if (start_telemetry) {
        TelemetryOptions topts;
        topts.intervalMs = interval_ms;
        startTelemetry(topts);
    }
}

void
flushObs()
{
    // Step 1: stop the sampler (final sweep lands in the trace
    // buffers; sweep count settles for the manifest).
    stopTelemetry();

    ObsOptions options;
    bool append_ledger = false;
    {
        std::lock_guard<std::mutex> lock(g_mu);
        options = g_options;
        if (!g_options.ledgerOut.empty() && !g_ledger_appended) {
            g_ledger_appended = true;
            append_ledger = true;
        }
    }
    // Step 2: metrics (final Stable counters).
    if (!options.metricsOut.empty() &&
        writeMetricsFile(options.metricsOut)) {
        std::fprintf(stderr, "[sieve:obs] wrote metrics to %s\n",
                     options.metricsOut.c_str());
    }
    // Step 3: trace (now holding the last telemetry samples).
    if (!options.traceOut.empty() &&
        writeChromeTraceFile(options.traceOut)) {
        std::fprintf(stderr, "[sieve:obs] wrote trace to %s\n",
                     options.traceOut.c_str());
    }
    // Step 4: ledger, last and once — the manifest must record the
    // same counters the metrics file just exported.
    if (append_ledger) {
        RunManifest manifest = collectRunManifest();
        std::string error;
        if (appendRunLedger(options.ledgerOut, manifest, &error)) {
            std::fprintf(stderr,
                         "[sieve:obs] appended run manifest to %s\n",
                         options.ledgerOut.c_str());
        } else {
            std::fprintf(stderr, "[sieve:obs] %s\n", error.c_str());
        }
    }
}

} // namespace sieve::obs
