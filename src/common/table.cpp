#include "common/table.hpp"

#include <algorithm>
#include <cstdio>

#include "common/assert.hpp"

namespace wfqs {

TextTable::TextTable(std::vector<std::string> headers) : headers_(std::move(headers)) {
    WFQS_REQUIRE(!headers_.empty(), "table needs at least one column");
}

void TextTable::add_row(std::vector<std::string> cells) {
    WFQS_REQUIRE(cells.size() == headers_.size(), "row arity must match header");
    rows_.push_back(std::move(cells));
}

std::string TextTable::num(double v, int precision) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", precision, v);
    return buf;
}

std::string TextTable::num(std::uint64_t v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
    return buf;
}

std::string TextTable::num(std::int64_t v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
    return buf;
}

std::string TextTable::render() const {
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
    for (const auto& row : rows_)
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    auto render_row = [&](const std::vector<std::string>& row) {
        std::string line;
        for (std::size_t c = 0; c < row.size(); ++c) {
            line += "| ";
            line += row[c];
            line.append(widths[c] - row[c].size() + 1, ' ');
        }
        line += "|\n";
        return line;
    };

    std::string sep;
    for (auto w : widths) {
        sep += '+';
        sep.append(w + 2, '-');
    }
    sep += "+\n";

    std::string out = sep + render_row(headers_) + sep;
    for (const auto& row : rows_) out += render_row(row);
    out += sep;
    return out;
}

}  // namespace wfqs
