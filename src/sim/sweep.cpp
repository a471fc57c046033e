#include "sim/sweep.hpp"

#include <algorithm>
#include <charconv>
#include <map>

#include "sim/config_file.hpp"
#include "store/key.hpp"

namespace ibsim::sim {

namespace {

constexpr std::size_t kMaxCells = std::size_t{1} << 20;

/// Shortest decimal text that parses back to exactly `v`.
std::string exact(double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string label(const std::vector<SweepAxis>& axes, const std::vector<std::string>& values) {
  std::string out;
  for (std::size_t a = 0; a < axes.size(); ++a) {
    if (a > 0) out += ' ';
    out += axes[a].key + "=" + values[a];
  }
  return out.empty() ? "base" : out;
}

}  // namespace

std::string parse_sweep_axis(const std::string& arg, SweepAxis* axis) {
  const auto eq = arg.find('=');
  if (eq == std::string::npos || eq == 0) return "axis '" + arg + "' is not KEY=V1,V2,...";
  axis->key = arg.substr(0, eq);
  axis->values.clear();
  for (std::size_t begin = eq + 1;;) {
    const auto comma = std::min(arg.find(',', begin), arg.size());
    if (comma == begin) return "axis '" + axis->key + "' has an empty value";
    axis->values.push_back(arg.substr(begin, comma - begin));
    if (comma == arg.size()) return {};
    begin = comma + 1;
  }
}

std::string expand_sweep(const SimConfig& base, const std::vector<SweepAxis>& axes,
                         std::vector<SweepCell>* cells) {
  cells->clear();
  std::size_t total = 1;
  for (std::size_t a = 0; a < axes.size(); ++a) {
    const std::string& key = axes[a].key;
    if (axes[a].values.empty()) return "axis '" + key + "' has no values";
    for (std::size_t b = 0; b < a; ++b) {
      if (axes[b].key == key) return "axis '" + key + "' is given twice";
    }
    // Neither key changes a result, so their cells would be one run.
    if (key == "threads" || key == "result_store") {
      return "axis '" + key + "' does not change the run (use --" +
             (key == "threads" ? "threads" : "result-store") + ")";
    }
    if (axes[a].values.size() > kMaxCells / total) return "sweep has over 2^20 cells";
    total *= axes[a].values.size();
  }

  // Row-major odometer: the last axis ticks fastest, the nesting order a
  // hand-written loop over the axes would produce.
  std::vector<SweepCell> out(total);
  std::map<std::string, std::size_t> cell_of_key;
  std::vector<std::size_t> odometer(axes.size(), 0);
  for (std::size_t n = 0; n < total; ++n) {
    SweepCell& cell = out[n];
    std::string axis_text;
    for (std::size_t a = 0; a < axes.size(); ++a) {
      cell.values.push_back(axes[a].values[odometer[a]]);
      axis_text += axes[a].key + " = " + cell.values.back() + "\n";
    }
    const std::string where = "cell '" + label(axes, cell.values) + "': ";
    cell.config = base;
    std::string err = apply_config_text(axis_text, &cell.config);
    if (err.empty() && (!cell.config.telemetry.trace_path.empty() ||
                        !cell.config.telemetry.counters_csv.empty())) {
      err = "trace_file/counters_csv would be written by every cell";
    }
    if (err.empty()) err = validate(cell.config);
    if (!err.empty()) return where + err;
    cell.run_key = store::run_key(cell.config);
    if (const auto [it, fresh] = cell_of_key.emplace(cell.run_key, n); !fresh) {
      return where + "same run as cell '" + label(axes, out[it->second].values) +
             "' (a repeated value)";
    }
    for (std::size_t a = axes.size(); a-- > 0;) {
      if (++odometer[a] < axes[a].values.size()) break;
      odometer[a] = 0;
    }
  }
  *cells = std::move(out);
  return {};
}

analysis::TextTable sweep_table(const std::vector<SweepAxis>& axes,
                                const std::vector<SweepCell>& cells,
                                const std::vector<SimResult>& results) {
  const bool workload = std::any_of(results.begin(), results.end(),
                                    [](const SimResult& r) { return r.workload.ran; });
  std::vector<std::string> headers;
  for (const SweepAxis& axis : axes) headers.push_back(axis.key);
  for (const char* h : {"run_key", "hotspot_rcv_gbps", "non_hotspot_rcv_gbps", "all_rcv_gbps",
                        "total_throughput_gbps", "jain_non_hotspot", "median_latency_us",
                        "p99_latency_us", "fecn_marked", "cnps_sent", "becn_received",
                        "events_executed"}) {
    headers.emplace_back(h);
  }
  if (workload) headers.emplace_back("makespan_us");

  analysis::TextTable table(std::move(headers));
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const SimResult& r = results[i];
    std::vector<std::string> row = cells[i].values;
    row.push_back(cells[i].run_key);
    for (const double v : {r.hotspot_rcv_gbps, r.non_hotspot_rcv_gbps, r.all_rcv_gbps,
                           r.total_throughput_gbps, r.jain_non_hotspot, r.median_latency_us,
                           r.p99_latency_us}) {
      row.push_back(exact(v));
    }
    for (const std::uint64_t v : {r.fecn_marked, r.cnps_sent, r.becn_received,
                                  r.events_executed}) {
      row.push_back(std::to_string(v));
    }
    // "-": no workload ran, or it did not finish within sim_time.
    if (workload) row.push_back(r.workload.completed ? exact(r.workload.makespan_us()) : "-");
    table.add_row(std::move(row));
  }
  return table;
}

}  // namespace ibsim::sim
