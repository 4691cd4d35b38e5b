#include "common/csv.hh"

#include <fstream>

#include "common/logging.hh"
#include "common/strings.hh"

namespace sieve {

CsvTable::CsvTable(std::vector<std::string> header)
    : _header(std::move(header))
{
}

size_t
CsvTable::columnIndex(const std::string &name) const
{
    for (size_t i = 0; i < _header.size(); ++i) {
        if (_header[i] == name)
            return i;
    }
    return npos;
}

void
CsvTable::addRow(std::vector<std::string> row)
{
    if (row.size() != _header.size()) {
        fatal("CSV row width ", row.size(), " does not match header width ",
              _header.size());
    }
    _rows.push_back(std::move(row));
    _rowLines.push_back(0);
}

const std::string &
CsvTable::cell(size_t row, size_t col) const
{
    SIEVE_ASSERT(row < _rows.size() && col < _header.size(),
                 "CSV cell (", row, ", ", col, ") out of range");
    return _rows[row][col];
}

template <typename T>
Expected<T>
CsvTable::tryCellNumeric(size_t row, size_t col, const char *what) const
{
    const std::string &s = cell(row, col);
    T value{};
    NumericParse status;
    if constexpr (std::is_same_v<T, double>)
        status = parseDouble(s, value);
    else
        status = parseUint64(s, value);
    if (status == NumericParse::Ok)
        return value;

    std::string at = " at row ";
    at += std::to_string(row);
    at += ", column '";
    at += _header[col];
    at += '\'';

    ErrorKind kind = ErrorKind::Parse;
    std::string msg;
    switch (status) {
      case NumericParse::Empty:
        msg = std::string("empty CSV ") + what + " cell" + at;
        break;
      case NumericParse::Trailing:
        msg = std::string("trailing characters in CSV ") + what + " '" +
              s + "'" + at;
        break;
      case NumericParse::OutOfRange:
        kind = ErrorKind::Validation;
        msg = std::string("CSV ") + what + " '" + s +
              "' out of representable range" + at;
        break;
      case NumericParse::NonFinite:
        kind = ErrorKind::Validation;
        msg = std::string("non-finite CSV ") + what + " '" + s + "'" +
              at;
        break;
      case NumericParse::Malformed:
      default:
        msg = std::string("malformed CSV ") + what + " '" + s + "'" + at;
        break;
    }
    return ingestError(kind, std::move(msg), _source, rowLine(row));
}

Expected<double>
CsvTable::tryCellAsDouble(size_t row, size_t col) const
{
    return tryCellNumeric<double>(row, col, "number");
}

Expected<uint64_t>
CsvTable::tryCellAsUint(size_t row, size_t col) const
{
    return tryCellNumeric<uint64_t>(row, col, "integer");
}

double
CsvTable::cellAsDouble(size_t row, size_t col) const
{
    return unwrapOrFatal(tryCellAsDouble(row, col));
}

uint64_t
CsvTable::cellAsUint(size_t row, size_t col) const
{
    return unwrapOrFatal(tryCellAsUint(row, col));
}

void
CsvTable::write(std::ostream &os) const
{
    // One line buffer reused across every row; cells append in place
    // instead of materialising a joined temporary per row.
    std::string line;
    auto emit = [&](const std::vector<std::string> &row) {
        line.clear();
        for (size_t i = 0; i < row.size(); ++i) {
            if (i > 0)
                line += ',';
            line += row[i];
        }
        line += '\n';
        os.write(line.data(),
                 static_cast<std::streamsize>(line.size()));
    };
    emit(_header);
    for (const auto &row : _rows)
        emit(row);
}

void
CsvTable::writeFile(const std::string &path) const
{
    std::ofstream ofs(path);
    if (!ofs)
        fatal("cannot open '", path, "' for writing");
    write(ofs);
}

Expected<CsvTable>
CsvTable::tryRead(std::istream &is, const std::string &source)
{
    std::string line;
    size_t line_no = 0;

    // Header: the first non-blank line.
    std::vector<std::string> header;
    size_t header_line = 0;
    while (std::getline(is, line)) {
        ++line_no;
        auto trimmed = trim(line);
        if (trimmed.empty())
            continue;
        for (auto &cell : split(trimmed, ','))
            header.emplace_back(trim(cell));
        header_line = line_no;
        break;
    }
    if (header.empty())
        return ingestError(ErrorKind::Parse,
                           "empty CSV input: missing header row",
                           source, line_no == 0 ? 1 : line_no);
    for (size_t c = 0; c < header.size(); ++c) {
        if (header[c].empty())
            return ingestError(ErrorKind::Validation,
                               "empty CSV header cell in column " +
                                   std::to_string(c),
                               source, header_line);
    }

    CsvTable table(std::move(header));
    table._source = source;

    while (std::getline(is, line)) {
        ++line_no;
        auto trimmed = trim(line);
        if (trimmed.empty())
            continue;
        auto raw = split(trimmed, ',');
        if (raw.size() != table._header.size())
            return ingestError(
                ErrorKind::Validation,
                "CSV row width " + std::to_string(raw.size()) +
                    " does not match header width " +
                    std::to_string(table._header.size()),
                source, line_no);
        std::vector<std::string> row;
        row.reserve(raw.size());
        for (auto &cell : raw)
            row.emplace_back(trim(cell));
        table._rows.push_back(std::move(row));
        table._rowLines.push_back(line_no);
    }
    if (is.bad())
        return ingestError(ErrorKind::Io,
                           "read error after line " +
                               std::to_string(line_no),
                           source, line_no);
    return table;
}

Expected<CsvTable>
CsvTable::tryReadFile(const std::string &path)
{
    std::ifstream ifs(path);
    if (!ifs)
        return ingestError(ErrorKind::Io,
                           "cannot open '" + path + "' for reading",
                           path, 1);
    return tryRead(ifs, path);
}

CsvTable
CsvTable::read(std::istream &is)
{
    return unwrapOrFatal(tryRead(is));
}

CsvTable
CsvTable::readFile(const std::string &path)
{
    return unwrapOrFatal(tryReadFile(path));
}

} // namespace sieve
