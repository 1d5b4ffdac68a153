// Column-aligned text tables with CSV (RFC 4180) and JSON emission. The
// bench binaries use this to print the paper's tables/figures as plain
// rows, so outputs are easy to diff against the paper's tables.
#pragma once

#include <string>
#include <vector>

namespace socbuf::util {

/// A simple right-aligned text table with a header row.
class Table {
public:
    explicit Table(std::vector<std::string> headers);

    /// Append one row; must have exactly as many cells as there are headers.
    void add_row(std::vector<std::string> cells);

    /// Convenience: format doubles with `precision` digits.
    void add_numeric_row(const std::string& label,
                         const std::vector<double>& values, int precision = 2);

    [[nodiscard]] std::size_t row_count() const { return rows_.size(); }

    /// Render with aligned columns, a separator under the header.
    [[nodiscard]] std::string to_string() const;

    /// Render as CSV per RFC 4180: cells containing commas, quotes or
    /// newlines are quoted, with embedded quotes doubled.
    [[nodiscard]] std::string to_csv() const;

    /// Render as a JSON object: {"headers": [...], "rows": [[...], ...]}
    /// with every cell kept as a string. `indent` as in JsonValue::dump.
    [[nodiscard]] std::string to_json(int indent = -1) const;

private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

}  // namespace socbuf::util
