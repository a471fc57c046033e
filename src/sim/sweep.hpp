#pragma once

#include <string>
#include <vector>

#include "analysis/table.hpp"
#include "sim/simulation.hpp"

namespace ibsim::sim {

/// One sweep axis: a config-file key (sim/config_file.hpp) and the value
/// texts it takes, in order.
struct SweepAxis {
  std::string key;
  std::vector<std::string> values;
};

/// One expanded cell: its value on each axis (positionally matched to the
/// axes), the fully resolved config and that config's result-store key.
struct SweepCell {
  std::vector<std::string> values;
  SimConfig config;
  std::string run_key;
};

/// Parse one `KEY=V1,V2,...` argument. Returns "" or a diagnostic (no
/// '=', empty key, empty value).
[[nodiscard]] std::string parse_sweep_axis(const std::string& arg, SweepAxis* axis);

/// Expand `base` x `axes` into cells: the Cartesian product in row-major
/// axis order (last axis varies fastest); no axes is the single base
/// cell. Each cell applies its axis values to `base` as one config text,
/// so an unknown key or bad value gets the config parser's line-numbered
/// (line N = axis N) "did you mean" diagnostic. Every cell is then passed
/// through validate(), so a bad cell fails the whole expansion before
/// anything runs. Inputs that could only waste work or race are also
/// errors: an empty axis, a key on two axes, an axis on `threads` or
/// `result_store`, two cells that are the same run (a repeated value),
/// and cells that set `trace_file` or `counters_csv` (every cell would
/// write the same file). Returns "" or a diagnostic.
[[nodiscard]] std::string expand_sweep(const SimConfig& base, const std::vector<SweepAxis>& axes,
                                       std::vector<SweepCell>* cells);

/// One row per cell, in cell order: the axis values, the run key, then
/// the headline SimResult fields `simulate` prints (plus makespan_us when
/// a cell ran a workload). Doubles print in their shortest exact form,
/// so a row carries its result bit for bit.
[[nodiscard]] analysis::TextTable sweep_table(const std::vector<SweepAxis>& axes,
                                              const std::vector<SweepCell>& cells,
                                              const std::vector<SimResult>& results);

}  // namespace ibsim::sim
