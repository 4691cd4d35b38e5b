#include "common/env.hh"

#include <cstdlib>

#include "common/logging.hh"
#include "common/strings.hh"
#include "obs/obs.hh"

namespace sieve {

std::optional<uint64_t>
parseBoundedUint64(std::string_view text, uint64_t min, uint64_t max,
                   std::string *why)
{
    uint64_t value = 0;
    NumericParse status = parseUint64(text, value);
    if (status == NumericParse::Ok && value >= min && value <= max)
        return value;
    if (why)
        *why = status == NumericParse::Ok ? "out of range"
                                          : numericParseMessage(status);
    return std::nullopt;
}

std::optional<uint64_t>
envUint64(const char *name, uint64_t min, uint64_t max)
{
    const char *env = std::getenv(name);
    if (!env)
        return std::nullopt;
    std::string why;
    std::optional<uint64_t> value = parseBoundedUint64(env, min, max,
                                                       &why);
    if (!value)
        warn("ignoring ", name, "='", env, "': ", why,
             " (expected an integer in [", min, ", ", max, "])");
    return value;
}

namespace obs {

namespace {

/** Longest SIEVE_TELEMETRY_INTERVAL_MS accepted: one minute. */
constexpr uint64_t kMaxTelemetryIntervalMs = 60000;

} // namespace

void
configureObsFromEnv()
{
    ObsOptions options;
    if (const char *env = std::getenv("SIEVE_TRACE"))
        options.traceOut = env;
    if (const char *env = std::getenv("SIEVE_METRICS"))
        options.metricsOut = env;
    if (const char *env = std::getenv("SIEVE_LEDGER"))
        options.ledgerOut = env;
    if (const char *env = std::getenv("SIEVE_TELEMETRY"))
        options.telemetry = env[0] != '\0' &&
                            !(env[0] == '0' && env[1] == '\0');
    if (auto ms = envUint64("SIEVE_TELEMETRY_INTERVAL_MS", 1,
                            kMaxTelemetryIntervalMs))
        options.telemetryIntervalMs = *ms;
    if (!options.traceOut.empty() || !options.metricsOut.empty() ||
        !options.ledgerOut.empty() || options.telemetry)
        configureObs(options);
}

} // namespace obs

} // namespace sieve
