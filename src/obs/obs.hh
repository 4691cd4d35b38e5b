/**
 * @file
 * Observability configuration: one call wires the metrics registry
 * (obs/metrics.hh), the span tracer (obs/trace.hh), the telemetry
 * sampler (obs/telemetry.hh) and the run ledger (obs/ledger.hh) to
 * output files and registers an at-exit flush.
 *
 * Activation surfaces, in precedence order (later wins):
 *   1. environment: SIEVE_TRACE=FILE, SIEVE_METRICS=FILE,
 *      SIEVE_LEDGER=FILE, SIEVE_TELEMETRY=1,
 *      SIEVE_TELEMETRY_INTERVAL_MS=N (configureObsFromEnv, which
 *      lives in common/env.hh beside the strict numeric parser)
 *   2. flags: --trace-out FILE, --metrics-out FILE, --ledger FILE,
 *      --telemetry, --telemetry-interval-ms N (parseBenchArgs and
 *      sieve_cli both route here)
 * With none of them, every subsystem stays disabled and every
 * instrumentation point is a relaxed load plus branch.
 *
 * Flush-order contract (flushObs, also the at-exit sequence):
 *   1. stop the telemetry sampler — its final sweep lands in the
 *      trace buffers and its sweep count in the manifest before
 *      anything is written;
 *   2. write the metrics file — the Stable counters are final once
 *      user code has returned, and nothing after this step touches
 *      the registry;
 *   3. write the trace file — now containing the last telemetry
 *      samples;
 *   4. append the run ledger — last, so the manifest records the
 *      same final counters the metrics file just exported and the
 *      true end-of-run wall time / peak RSS.
 * flushObs may run twice (explicit call plus atexit): steps 2 and 3
 * rewrite the same files idempotently; step 4 is once-guarded so a
 * run never appends two manifests.
 */

#ifndef SIEVE_OBS_OBS_HH
#define SIEVE_OBS_OBS_HH

#include <cstdint>
#include <string>

namespace sieve::obs {

/** Output configuration; empty path = that subsystem stays off. */
struct ObsOptions
{
    std::string traceOut;   //!< Chrome trace-event JSON path
    std::string metricsOut; //!< metrics path (.csv selects CSV)
    std::string ledgerOut;  //!< run-ledger JSONL path
    bool telemetry = false; //!< start the background sampler
    uint64_t telemetryIntervalMs = 25;
};

/**
 * Enable each subsystem with a non-empty path / set flag and
 * register the at-exit flush (once per process). Callable more than
 * once; later non-empty paths replace earlier ones. Telemetry
 * requires an armed trace stream — requesting it without traceOut
 * (or a prior trace configuration) warns and stays off.
 */
void configureObs(const ObsOptions &options);

/**
 * Run the flush sequence documented above. Also runs automatically
 * at exit; safe to call when nothing is configured.
 */
void flushObs();

} // namespace sieve::obs

#endif // SIEVE_OBS_OBS_HH
