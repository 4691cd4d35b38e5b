/**
 * @file
 * Unit tests for string utilities, CSV interchange, and logging.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/csv.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/strings.hh"

namespace sieve {
namespace {

// --- strings ---

TEST(Strings, SplitKeepsEmptyFields)
{
    auto parts = split("a,,b,", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[1], "");
    EXPECT_EQ(parts[2], "b");
    EXPECT_EQ(parts[3], "");
}

TEST(Strings, SplitSingleField)
{
    auto parts = split("alone", ',');
    ASSERT_EQ(parts.size(), 1u);
    EXPECT_EQ(parts[0], "alone");
}

TEST(Strings, Trim)
{
    EXPECT_EQ(trim("  x  "), "x");
    EXPECT_EQ(trim("\t\n a b \r"), "a b");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("   "), "");
}

TEST(Strings, StartsWith)
{
    EXPECT_TRUE(startsWith("sieve_rocks", "sieve"));
    EXPECT_FALSE(startsWith("si", "sieve"));
    EXPECT_TRUE(startsWith("anything", ""));
}

TEST(Strings, Join)
{
    EXPECT_EQ(join({"a", "b", "c"}, ","), "a,b,c");
    EXPECT_EQ(join({}, ","), "");
    EXPECT_EQ(join({"only"}, ", "), "only");
}

TEST(Strings, ToFixed)
{
    EXPECT_EQ(toFixed(1.2345, 2), "1.23");
    EXPECT_EQ(toFixed(-0.5, 1), "-0.5");
}

TEST(Strings, EngineeringNotation)
{
    EXPECT_EQ(engineeringNotation(950), "950");
    EXPECT_EQ(engineeringNotation(1234), "1.23K");
    EXPECT_EQ(engineeringNotation(5.6e6), "5.60M");
    EXPECT_EQ(engineeringNotation(2.1e9), "2.10B");
}

TEST(Strings, Padding)
{
    EXPECT_EQ(padLeft("x", 3), "  x");
    EXPECT_EQ(padRight("x", 3), "x  ");
    EXPECT_EQ(padLeft("long", 2), "long");
}

// --- strict numeric parsing ---

TEST(Strings, SplitWhitespace)
{
    auto parts = splitWhitespace("  a\tbb   c \n");
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[1], "bb");
    EXPECT_EQ(parts[2], "c");
    EXPECT_TRUE(splitWhitespace("   ").empty());
    EXPECT_TRUE(splitWhitespace("").empty());
}

TEST(Strings, ParseUint64Accepts)
{
    uint64_t v = 0;
    EXPECT_EQ(parseUint64("0", v), NumericParse::Ok);
    EXPECT_EQ(v, 0u);
    EXPECT_EQ(parseUint64("18446744073709551615", v),
              NumericParse::Ok);
    EXPECT_EQ(v, UINT64_MAX);
}

// Regression: std::stoull silently wrapped "-1" to 2^64-1. The
// strict parser must reject a negative sign outright.
TEST(Strings, ParseUint64RejectsNegativeInsteadOfWrapping)
{
    uint64_t v = 0;
    EXPECT_NE(parseUint64("-1", v), NumericParse::Ok);
    EXPECT_NE(parseUint64("-17", v), NumericParse::Ok);
}

// Regression: std::stoull threw (and callers aborted) on values past
// 2^64; the strict parser reports OutOfRange recoverably.
TEST(Strings, ParseUint64OutOfRange)
{
    uint64_t v = 0;
    EXPECT_EQ(parseUint64("36893488147419103232", v),
              NumericParse::OutOfRange);
}

TEST(Strings, ParseUint64RejectsJunk)
{
    uint64_t v = 0;
    EXPECT_EQ(parseUint64("", v), NumericParse::Empty);
    EXPECT_EQ(parseUint64("12x", v), NumericParse::Trailing);
    EXPECT_EQ(parseUint64("x", v), NumericParse::Malformed);
    // No silent whitespace skipping either.
    EXPECT_NE(parseUint64(" 5", v), NumericParse::Ok);
    EXPECT_NE(parseUint64("+5", v), NumericParse::Ok);
}

TEST(Strings, ParseDoubleAccepts)
{
    double v = 0.0;
    EXPECT_EQ(parseDouble("2.5", v), NumericParse::Ok);
    EXPECT_DOUBLE_EQ(v, 2.5);
    EXPECT_EQ(parseDouble("1.5e+06", v), NumericParse::Ok);
    EXPECT_DOUBLE_EQ(v, 1.5e6);
    EXPECT_EQ(parseDouble("-0.25", v), NumericParse::Ok);
    EXPECT_DOUBLE_EQ(v, -0.25);
}

// Regression: std::stod threw out_of_range on overflow ("1e400");
// now a recoverable OutOfRange status.
TEST(Strings, ParseDoubleOverflowIsOutOfRange)
{
    double v = 0.0;
    EXPECT_EQ(parseDouble("1e400", v), NumericParse::OutOfRange);
    EXPECT_EQ(parseDouble("-1e400", v), NumericParse::OutOfRange);
}

TEST(Strings, ParseDoubleRejectsNonFinite)
{
    double v = 0.0;
    EXPECT_EQ(parseDouble("nan", v), NumericParse::NonFinite);
    EXPECT_EQ(parseDouble("inf", v), NumericParse::NonFinite);
}

// --- logging ---

TEST(Logging, LevelGatingRoundTrip)
{
    LogLevel old = logLevel();
    setLogLevel(LogLevel::Quiet);
    EXPECT_EQ(logLevel(), LogLevel::Quiet);
    setLogLevel(old);
}

TEST(LoggingDeathTest, FatalExitsWithOne)
{
    EXPECT_EXIT(fatal("bad user input"), ::testing::ExitedWithCode(1),
                "bad user input");
}

TEST(LoggingDeathTest, PanicAborts)
{
    EXPECT_DEATH(panic("internal bug"), "internal bug");
}

TEST(LoggingDeathTest, AssertMacroFiresOnFalse)
{
    EXPECT_DEATH(SIEVE_ASSERT(1 == 2, "math broke"), "math broke");
}

// --- CSV ---

TEST(Csv, RoundTrip)
{
    CsvTable table({"kernel", "count"});
    table.addRow({"k0", "10"});
    table.addRow({"k1", "20"});

    std::ostringstream oss;
    table.write(oss);
    std::istringstream iss(oss.str());
    CsvTable parsed = CsvTable::read(iss);

    ASSERT_EQ(parsed.numRows(), 2u);
    ASSERT_EQ(parsed.numCols(), 2u);
    EXPECT_EQ(parsed.cell(1, 0), "k1");
    EXPECT_EQ(parsed.cellAsUint(1, 1), 20u);
}

/**
 * Oracle for CsvTable::write: the straightforward serializer that
 * joins every row into a fresh string and streams it with
 * operator<<. write() reuses one line buffer instead, and must emit
 * the same bytes.
 */
std::string
writeReference(const CsvTable &table)
{
    std::ostringstream os;
    os << join(table.header(), ",") << '\n';
    for (size_t r = 0; r < table.numRows(); ++r) {
        std::vector<std::string> row;
        for (size_t c = 0; c < table.numCols(); ++c)
            row.push_back(table.cell(r, c));
        os << join(row, ",") << '\n';
    }
    return os.str();
}

TEST(Csv, WriteMatchesJoinReferenceOnSeededTable)
{
    CsvTable table({"suite", "workload", "kernel", "invocation",
                    "instructions", "cta", "ipc", "cycles"});
    Rng rng("csv-write-oracle");
    for (size_t r = 0; r < 2000; ++r) {
        // Every fifth row empties one randomly chosen field; the
        // last row below is all empty fields.
        std::vector<std::string> row = {
            "cactus", "lmc", std::to_string(r % 61), std::to_string(r),
            std::to_string(rng.next() % 100000000), "256",
            toFixed(rng.uniform(), 4),
            std::to_string(rng.next() % 10000000)};
        if (r % 5 == 0)
            row[rng.next() % row.size()].clear();
        table.addRow(std::move(row));
    }
    table.addRow(std::vector<std::string>(table.numCols()));

    std::ostringstream first, second;
    table.write(first);
    table.write(second);
    EXPECT_EQ(first.str(), writeReference(table));
    EXPECT_EQ(second.str(), first.str());
}

TEST(Csv, ColumnIndex)
{
    CsvTable table({"a", "b"});
    EXPECT_EQ(table.columnIndex("b"), 1u);
    EXPECT_EQ(table.columnIndex("missing"), CsvTable::npos);
}

TEST(Csv, NumericParsing)
{
    CsvTable table({"v"});
    table.addRow({"2.5"});
    EXPECT_DOUBLE_EQ(table.cellAsDouble(0, 0), 2.5);
}

TEST(Csv, SkipsBlankLines)
{
    std::istringstream iss("h\n1\n\n2\n");
    CsvTable parsed = CsvTable::read(iss);
    EXPECT_EQ(parsed.numRows(), 2u);
}

TEST(CsvDeathTest, RaggedRowIsFatal)
{
    CsvTable table({"a", "b"});
    EXPECT_EXIT(table.addRow({"only-one"}),
                ::testing::ExitedWithCode(1), "row width");
}

TEST(CsvDeathTest, MalformedNumberIsFatal)
{
    CsvTable table({"v"});
    table.addRow({"not-a-number"});
    EXPECT_EXIT((void)table.cellAsDouble(0, 0),
                ::testing::ExitedWithCode(1), "malformed");
}

TEST(CsvDeathTest, TrailingGarbageIsFatal)
{
    CsvTable table({"v"});
    table.addRow({"12x"});
    EXPECT_EXIT((void)table.cellAsUint(0, 0),
                ::testing::ExitedWithCode(1), "trailing");
}

// --- recoverable CSV parsing ---

// Regression: cellAsUint was stoull-based and parsed "-1" as
// 18446744073709551615. It must be an error now, on both the
// recoverable and the fatal path.
TEST(Csv, NegativeUintCellIsAnErrorNotAWrap)
{
    CsvTable table({"v"});
    table.addRow({"-1"});
    auto v = table.tryCellAsUint(0, 0);
    ASSERT_FALSE(v.ok());
    EXPECT_EQ(v.error().kind, ErrorKind::Parse);
}

TEST(CsvDeathTest, NegativeUintCellIsFatalOnLegacyPath)
{
    CsvTable table({"v"});
    table.addRow({"-1"});
    EXPECT_EXIT((void)table.cellAsUint(0, 0),
                ::testing::ExitedWithCode(1), "malformed");
}

// Regression: an empty trailing field ("1,") produced
// std::invalid_argument noise from stod; it is now a distinct,
// recoverable "empty cell" cause naming the row and column.
TEST(Csv, EmptyTrailingFieldIsADistinctCause)
{
    std::istringstream iss("kernel,count\nk0,\n");
    auto table = CsvTable::tryRead(iss, "profile.csv");
    ASSERT_TRUE(table.ok());
    auto v = table.value().tryCellAsUint(0, 1);
    ASSERT_FALSE(v.ok());
    EXPECT_NE(v.error().message.find("empty"), std::string::npos);
    EXPECT_NE(v.error().message.find("count"), std::string::npos);
}

TEST(Csv, OutOfRangeCellIsValidationError)
{
    CsvTable table({"v"});
    table.addRow({"36893488147419103232"});
    auto v = table.tryCellAsUint(0, 0);
    ASSERT_FALSE(v.ok());
    EXPECT_EQ(v.error().kind, ErrorKind::Validation);
    EXPECT_NE(v.error().message.find("range"), std::string::npos);
}

TEST(Csv, NonFiniteCellIsValidationError)
{
    CsvTable table({"v"});
    table.addRow({"nan"});
    auto v = table.tryCellAsDouble(0, 0);
    ASSERT_FALSE(v.ok());
    EXPECT_EQ(v.error().kind, ErrorKind::Validation);
}

TEST(Csv, TryReadCarriesSourceAndLineContext)
{
    std::istringstream iss("a,b\n1,2\n3\n");
    auto table = CsvTable::tryRead(iss, "ragged.csv");
    ASSERT_FALSE(table.ok());
    const Error &e = table.error();
    EXPECT_EQ(e.kind, ErrorKind::Validation);
    EXPECT_TRUE(e.hasContext());
    EXPECT_EQ(e.source, "ragged.csv");
    EXPECT_EQ(e.line, 3u);
    EXPECT_NE(e.message.find("row width"), std::string::npos);
    EXPECT_NE(e.toString().find("ragged.csv:3"), std::string::npos);
}

TEST(Csv, TryReadFileReportsIoError)
{
    auto table = CsvTable::tryReadFile("/nonexistent/p.csv");
    ASSERT_FALSE(table.ok());
    EXPECT_EQ(table.error().kind, ErrorKind::Io);
}

TEST(Csv, TryCellErrorsCarryRowLine)
{
    std::istringstream iss("v\n\n7\nbad\n");
    auto table = CsvTable::tryRead(iss, "cells.csv");
    ASSERT_TRUE(table.ok());
    EXPECT_EQ(table.value().tryCellAsUint(0, 0).value(), 7u);
    auto v = table.value().tryCellAsUint(1, 0);
    ASSERT_FALSE(v.ok());
    // Row 1 sits on physical line 4 (blank line skipped).
    EXPECT_EQ(v.error().line, 4u);
    EXPECT_EQ(v.error().source, "cells.csv");
}

} // namespace
} // namespace sieve
