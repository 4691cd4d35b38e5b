/**
 * @file
 * Numeric environment variables, parsed one way.
 *
 * Every SIEVE_* variable that holds a count, a period or a size
 * (SIEVE_JOBS, SIEVE_TELEMETRY_INTERVAL_MS, SIEVE_TRACE_BUDGET_MB,
 * SIEVE_INGEST_BUDGET_MB) goes through envUint64: a strict base-10
 * parse (parseUint64: no sign, no whitespace, no trailing junk, no
 * wrap) followed by an inclusive range check. A value that fails
 * either check is reported with warn(), naming the variable, the
 * value, the cause and the accepted range, and the caller keeps its
 * built-in default. A typo therefore never changes what runs (`50x`
 * is not 50) and never stops the program.
 */

#ifndef SIEVE_COMMON_ENV_HH
#define SIEVE_COMMON_ENV_HH

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>

namespace sieve {

/**
 * Largest megabyte count whose byte size (`mb << 20`) fits in
 * size_t; the ceiling of the *_BUDGET_MB variables.
 */
inline constexpr uint64_t kMaxBudgetMb =
    std::numeric_limits<size_t>::max() >> 20;

/**
 * Strictly parse `text` as an integer in [min, max]. On failure
 * returns nullopt and, if `why` is given, stores the cause
 * ("trailing characters after number", "out of range", ...).
 */
std::optional<uint64_t> parseBoundedUint64(std::string_view text,
                                           uint64_t min, uint64_t max,
                                           std::string *why = nullptr);

/**
 * The environment variable `name` as an integer in [min, max].
 * nullopt when it is unset, or when its value fails the parse or the
 * range check; the latter is warned about.
 */
std::optional<uint64_t> envUint64(const char *name, uint64_t min,
                                  uint64_t max);

namespace obs {

/**
 * obs::configureObs from the SIEVE_* environment variables, if set
 * (see obs/obs.hh); SIEVE_TELEMETRY_INTERVAL_MS is accepted in
 * [1, 60000] ms. It lives here rather than in sieve_obs because
 * the interval goes through envUint64, and sieve_obs sits below
 * sieve_common.
 */
void configureObsFromEnv();

} // namespace obs

} // namespace sieve

#endif // SIEVE_COMMON_ENV_HH
