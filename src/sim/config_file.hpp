#pragma once

#include <string>

#include "sim/sim_config.hpp"

namespace ibsim::sim {

/// Plain-text configuration for SimConfig: one `key = value` pair per
/// line, `#` comments, whitespace-insensitive — the same flavour of file
/// OpenSM uses for its CC settings, so a deployment-style workflow
/// ("edit the conf, rerun") works without recompiling.
///
/// Recognised keys (all optional; unknown keys are an error):
///
///   topology            clos | single | chain | dumbbell | mesh
///   clos_leaves, clos_spines, clos_nodes_per_leaf
///   single_nodes, chain_switches, chain_nodes
///   dumbbell_nodes, mesh_rows, mesh_cols, mesh_nodes
///   fraction_b, p_percent, fraction_c, hotspots, c_nodes_active (0/1),
///   lifetime_us, inject_gbps
///   workload (a workload::WorkloadRegistry name, or 'file'),
///   workload_file, workload_ranks, workload_bytes, workload_iters,
///   workload_compute_us, workload_background (0/1)
///   cc_enabled (0/1), cc_algo (iba_a10 | dcqcn | aimd | none),
///   threshold_weight, marking_rate, packet_size,
///   victim_mask (0/1), ccti_increase, ccti_limit, ccti_min, ccti_timer,
///   sl_level (0/1), cct_fill (geometric | linear), cct_base
///   wire_gbps, hca_inject_gbps, hca_drain_gbps, n_vls, cut_through (0/1)
///   switch_ibuf_bytes, hca_ibuf_bytes
///   sim_time_us, warmup_us, seed
///   trace_file, trace_categories (cc,credits,queues,arb | all),
///   counters_csv, telemetry_sample_us, trace_ring,
///   telemetry_detailed (0/1), telemetry_counters (0/1)
///   result_store (directory of the on-disk result cache; see src/store)
///
/// Each key may appear at most once; a duplicate is an error naming both
/// lines (silent last-wins would hide typos and merge accidents). An
/// unknown key's diagnostic suggests the closest recognised key when one
/// is within a small edit distance ("did you mean 'topology'?").
///
/// Returns an empty string on success, or a "line N: ..." diagnostic.
[[nodiscard]] std::string apply_config_text(const std::string& text, SimConfig* config);

/// Load and apply a config file; same diagnostics, plus I/O errors.
[[nodiscard]] std::string apply_config_file(const std::string& path, SimConfig* config);

}  // namespace ibsim::sim
