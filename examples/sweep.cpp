// Batch parameter sweep: the Cartesian product of config-file axes over
// a base config, run in parallel, printed as one CSV table (one row per
// cell, last axis varying fastest).
//
//   ./sweep --config=base.conf --result-store=ibsim_store fraction_b=0,1 cc_enabled=0,1
//
// With --result-store a rerun resumes: finished cells come from the
// store, only missing ones simulate, and stdout is byte-identical either
// way. Store hit/miss counts go to stderr.

#include <cstdio>
#include <limits>
#include <string>

#include "sim/cli.hpp"
#include "sim/config_file.hpp"
#include "sim/experiment.hpp"
#include "sim/sweep.hpp"
#include "store/result_store.hpp"
#include "store/version.hpp"

int main(int argc, char** argv) {
  using namespace ibsim;

  sim::Cli cli("sweep: run every combination of config-file axes, print one CSV row each");
  cli.add_string("config", "", "key=value config file every cell starts from");
  cli.add_string("result-store", "",
                 "on-disk result store directory: serve finished cells from it, "
                 "publish fresh ones");
  cli.add_int("threads", 0,
              "sweep worker threads (0 = config-file threads, then IBSIM_THREADS, "
              "then hardware; never more than the hardware threads)");
  cli.add_flag("version", "print the code version stamp and exit");
  cli.add_positionals("KEY=V1,V2,...  one axis per argument, in config-file key vocabulary");
  if (!cli.parse(argc, argv)) return 0;
  if (cli.flag("version")) {
    std::printf("%s\n", store::version_line("sweep").c_str());
    return 0;
  }

  const auto fail = [](const char* what, const std::string& err) {
    std::fprintf(stderr, "%s: %s\n", what, err.c_str());
    return 2;
  };
  sim::SimConfig base;
  if (!cli.get_string("config").empty()) {
    const std::string err = sim::apply_config_file(cli.get_string("config"), &base);
    if (!err.empty()) return fail("config error", err);
  }
  if (cli.was_set("result-store")) base.result_store = cli.get_string("result-store");
  const std::int64_t threads = cli.get_int("threads");
  if (threads < 0 || threads > std::numeric_limits<std::int32_t>::max()) {
    return fail("--threads", "must be >= 0 (0 = config-file threads, IBSIM_THREADS, hardware)");
  }

  std::vector<sim::SweepAxis> axes(cli.positionals().size());
  for (std::size_t a = 0; a < axes.size(); ++a) {
    const std::string err = sim::parse_sweep_axis(cli.positionals()[a], &axes[a]);
    if (!err.empty()) return fail("sweep error", err);
  }
  std::vector<sim::SweepCell> cells;
  if (const std::string err = sim::expand_sweep(base, axes, &cells); !err.empty()) {
    return fail("sweep error", err);
  }

  std::vector<sim::SimConfig> configs;
  configs.reserve(cells.size());
  for (const sim::SweepCell& cell : cells) configs.push_back(cell.config);
  sim::SweepReport report;
  const std::vector<sim::SimResult> results =
      sim::run_parallel(configs, static_cast<std::int32_t>(threads), &report);

  std::fputs(sim::sweep_table(axes, cells, results).render_csv().c_str(), stdout);
  std::fprintf(stderr, "sweep: %zu cells, store hits=%llu misses=%llu, %.3f s\n", cells.size(),
               static_cast<unsigned long long>(report.store_hits),
               static_cast<unsigned long long>(report.store_misses), report.wall_seconds);
  if (!base.result_store.empty()) {
    std::fprintf(stderr, "%s\n",
                 store::StoreRegistry::instance().open(base.result_store)->stats_line().c_str());
  }
  return 0;
}
