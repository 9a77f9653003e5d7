#include "report/table.h"

#include <algorithm>

namespace hdiff::report {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {}

void Table::add_row(std::vector<std::string> row) {
  row.resize(header_.size());
  rows_.push_back(std::move(row));
}

std::string Table::render() const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) {
    widths[c] = header_[c].size();
    for (const auto& row : rows_) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto render_row = [&](const std::vector<std::string>& row) {
    std::string out = "|";
    for (std::size_t c = 0; c < row.size(); ++c) {
      out += ' ';
      out += row[c];
      out.append(widths[c] - row[c].size(), ' ');
      out += " |";
    }
    out += '\n';
    return out;
  };
  std::string rule = "+";
  for (std::size_t c = 0; c < widths.size(); ++c) {
    rule.append(widths[c] + 2, '-');
    rule += '+';
  }
  rule += '\n';

  std::string out = rule + render_row(header_) + rule;
  for (const auto& row : rows_) out += render_row(row);
  out += rule;
  return out;
}

std::vector<std::pair<std::string, std::string>> parse_pair_keys(
    const std::vector<std::string>& keys) {
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& key : keys) {
    std::size_t arrow = key.find("->");
    if (arrow == std::string::npos) continue;
    out.emplace_back(key.substr(0, arrow), key.substr(arrow + 2));
  }
  return out;
}

std::string render_pair_matrix(
    const std::vector<std::string>& fronts,
    const std::vector<std::string>& backs,
    const std::vector<std::pair<std::string, std::string>>& hrs,
    const std::vector<std::pair<std::string, std::string>>& hot,
    const std::vector<std::pair<std::string, std::string>>& cpdos) {
  auto has = [](const std::vector<std::pair<std::string, std::string>>& set,
                const std::string& f, const std::string& b) {
    return std::any_of(set.begin(), set.end(), [&](const auto& p) {
      return p.first == f && p.second == b;
    });
  };
  Table table([&] {
    std::vector<std::string> header{"front\\back"};
    header.insert(header.end(), backs.begin(), backs.end());
    return header;
  }());
  for (const auto& f : fronts) {
    std::vector<std::string> row{f};
    for (const auto& b : backs) {
      std::string cell;
      if (has(hrs, f, b)) cell += 'S';    // Smuggling
      if (has(hot, f, b)) cell += 'H';    // Host of Troubles
      if (has(cpdos, f, b)) cell += 'C';  // CPDoS
      if (cell.empty()) cell = '.';
      row.push_back(std::move(cell));
    }
    table.add_row(std::move(row));
  }
  return table.render() +
         "  S = HRS-affected, H = HoT-affected, C = CPDoS-affected pair\n";
}

}  // namespace hdiff::report
