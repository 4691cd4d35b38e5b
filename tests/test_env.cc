/**
 * @file
 * Tests for the numeric environment variables (common/env.hh): the
 * strict bounded parser, the warn-and-fall-back policy of envUint64,
 * and the budget variables that shift megabytes into bytes.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "common/env.hh"
#include "trace/tier.hh"
#include "trace/workload_stream.hh"

namespace sieve {
namespace {

TEST(Env, ParseBoundedUint64AcceptsBothEnds)
{
    EXPECT_EQ(parseBoundedUint64("1", 1, 1024), 1u);
    EXPECT_EQ(parseBoundedUint64("1024", 1, 1024), 1024u);
    EXPECT_EQ(parseBoundedUint64("0", 0, kMaxBudgetMb), 0u);
    EXPECT_EQ(parseBoundedUint64(std::to_string(kMaxBudgetMb), 0,
                                 kMaxBudgetMb),
              kMaxBudgetMb);
}

TEST(Env, ParseBoundedUint64NamesTheCause)
{
    struct Case
    {
        const char *text;
        const char *why;
    };
    for (const Case &c : {
             Case{"50x", "trailing characters after number"},
             Case{"", "empty field"},
             Case{"-1", "malformed number"},
             Case{" 5", "malformed number"},
             Case{"18446744073709551616",
                  "number out of representable range"},
             Case{"0", "out of range"},
             Case{"1025", "out of range"},
         }) {
        std::string why;
        EXPECT_FALSE(parseBoundedUint64(c.text, 1, 1024, &why))
            << "'" << c.text << "'";
        EXPECT_EQ(why, c.why) << "'" << c.text << "'";
    }
}

TEST(Env, BudgetCeilingKeepsTheByteCountInSizeT)
{
    // 2^44 MB is 2^64 bytes: shifted into a size_t it wraps to 0.
    EXPECT_EQ((kMaxBudgetMb << 20) >> 20, kMaxBudgetMb);
    EXPECT_FALSE(parseBoundedUint64("17592186044416", 0, kMaxBudgetMb));
}

TEST(Env, EnvUint64FallsBackOnUnsetAndBadValues)
{
    const char *name = "SIEVE_TEST_ENV_KNOB";
    ::unsetenv(name);
    EXPECT_FALSE(envUint64(name, 1, 100));
    ::setenv(name, "42", 1);
    EXPECT_EQ(envUint64(name, 1, 100), 42u);
    for (const char *bad : {"50x", "", "0", "101", "abc"}) {
        ::setenv(name, bad, 1);
        EXPECT_FALSE(envUint64(name, 1, 100)) << "'" << bad << "'";
    }
    ::unsetenv(name);
}

TEST(Env, TelemetryIntervalIsParsedStrictly)
{
    // With no output armed, configureObsFromEnv configures nothing;
    // what remains observable is whether the interval was refused.
    for (const char *name : {"SIEVE_TRACE", "SIEVE_METRICS",
                             "SIEVE_LEDGER", "SIEVE_TELEMETRY"})
        ::unsetenv(name);
    struct Case
    {
        const char *value;
        bool refused;
    };
    for (const Case &c : {Case{"50x", true}, Case{"0", true},
                          Case{"60001", true}, Case{"25", false},
                          Case{"60000", false}}) {
        ::setenv("SIEVE_TELEMETRY_INTERVAL_MS", c.value, 1);
        ::testing::internal::CaptureStderr();
        obs::configureObsFromEnv();
        std::string err = ::testing::internal::GetCapturedStderr();
        EXPECT_EQ(err.find("ignoring SIEVE_TELEMETRY_INTERVAL_MS='" +
                           std::string(c.value) + "'") !=
                      std::string::npos,
                  c.refused)
            << c.value << ": " << err;
    }
    ::unsetenv("SIEVE_TELEMETRY_INTERVAL_MS");
}

TEST(Env, BudgetVariablesRejectValuesThatWrap)
{
    const size_t trace_default = trace::TierConfig{}.budgetBytes;
    const size_t ingest_default = trace::IngestBudget{}.budgetBytes;

    ::setenv("SIEVE_TRACE_BUDGET_MB", "17592186044416", 1);
    ::setenv("SIEVE_INGEST_BUDGET_MB", "17592186044416", 1);
    EXPECT_EQ(trace::TierConfig::fromEnv().budgetBytes, trace_default);
    EXPECT_EQ(trace::IngestBudget::fromEnv().budgetBytes,
              ingest_default);

    ::setenv("SIEVE_TRACE_BUDGET_MB", "2", 1);
    ::setenv("SIEVE_INGEST_BUDGET_MB", "0", 1);
    EXPECT_EQ(trace::TierConfig::fromEnv().budgetBytes, size_t{2} << 20);
    EXPECT_EQ(trace::IngestBudget::fromEnv().budgetBytes, 0u);

    ::unsetenv("SIEVE_TRACE_BUDGET_MB");
    ::unsetenv("SIEVE_INGEST_BUDGET_MB");
}

} // namespace
} // namespace sieve
