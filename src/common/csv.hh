/**
 * @file
 * Minimal CSV reading and writing.
 *
 * The paper's workflow converts profiler output into "a readable CSV
 * file which serves as input to PKS and Sieve" (Section IV). This
 * module provides that interchange format: header row + typed column
 * access, no quoting/escaping (field values in this library never
 * contain commas or newlines).
 *
 * Ingestion is recoverable: the try* entry points return
 * Expected<...> with file/line context instead of aborting, and the
 * typed cell accessors parse strictly (no whitespace skipping, no
 * integer wrapping, no inf/nan). The historical fatal() entry points
 * remain as thin unwrapOrFatal() wrappers.
 */

#ifndef SIEVE_COMMON_CSV_HH
#define SIEVE_COMMON_CSV_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/error.hh"

namespace sieve {

/** An in-memory CSV table: one header row plus data rows. */
class CsvTable
{
  public:
    CsvTable() = default;

    /** Construct with column names. */
    explicit CsvTable(std::vector<std::string> header);

    /** Column names, in order. */
    const std::vector<std::string> &header() const { return _header; }

    /** Number of data rows. */
    size_t numRows() const { return _rows.size(); }

    /** Number of columns. */
    size_t numCols() const { return _header.size(); }

    /**
     * Index of a named column.
     * @return column index, or npos if absent.
     */
    size_t columnIndex(const std::string &name) const;

    static constexpr size_t npos = static_cast<size_t>(-1);

    /** Append a row. fatal() if the width mismatches the header. */
    void addRow(std::vector<std::string> row);

    /** Raw cell access. */
    const std::string &cell(size_t row, size_t col) const;

    /**
     * Cell parsed as a strict finite double. Errors carry the cell's
     * source file and line when the table came from tryRead.
     */
    Expected<double> tryCellAsDouble(size_t row, size_t col) const;

    /** Cell parsed as a strict base-10 uint64 (no sign, no wrap). */
    Expected<uint64_t> tryCellAsUint(size_t row, size_t col) const;

    /** Cell parsed as double; fatal() on malformed content. */
    double cellAsDouble(size_t row, size_t col) const;

    /** Cell parsed as uint64; fatal() on malformed content. */
    uint64_t cellAsUint(size_t row, size_t col) const;

    /** Serialize the table to a stream. */
    void write(std::ostream &os) const;

    /** Serialize the table to a file. fatal() if unwritable. */
    void writeFile(const std::string &path) const;

    /**
     * Parse a table from a stream, strictly and recoverably:
     * per-cell surrounding whitespace is trimmed, blank lines are
     * skipped, and a missing header, empty header cell, or ragged
     * row is a structured error carrying `source` and the 1-based
     * line number. The parsed table remembers each row's source line
     * so typed-access errors can point at the offending input line.
     */
    static Expected<CsvTable> tryRead(std::istream &is,
                                      const std::string &source =
                                          "<stream>");

    /** tryRead from a file; unreadable files are an IoError. */
    static Expected<CsvTable> tryReadFile(const std::string &path);

    /** Parse a table from a stream. fatal() on any error. */
    static CsvTable read(std::istream &is);

    /** Parse a table from a file. fatal() if unreadable. */
    static CsvTable readFile(const std::string &path);

    /** Source name recorded by tryRead; empty for in-memory tables. */
    const std::string &source() const { return _source; }

    /**
     * 1-based source line a data row came from; 0 for rows added in
     * memory via addRow.
     */
    size_t
    rowLine(size_t row) const
    {
        return row < _rowLines.size() ? _rowLines[row] : 0;
    }

  private:
    template <typename T>
    Expected<T> tryCellNumeric(size_t row, size_t col,
                               const char *what) const;

    std::vector<std::string> _header;
    std::vector<std::vector<std::string>> _rows;
    std::string _source;           //!< set by tryRead
    std::vector<size_t> _rowLines; //!< per-row source lines (tryRead)
};

} // namespace sieve

#endif // SIEVE_COMMON_CSV_HH
