// Cost model: converts observed execution quantities (records processed,
// bytes moved) into simulated task durations.
//
// User code really runs; the cost model only prices it. "Work" and "time"
// in every experiment are derived from these durations, so the knobs below
// are what lets the reproduction recover the *shapes* of the paper's
// results: compute-intensive apps (K-Means, KNN) have large per-record map
// CPU cost and tiny intermediate data; data-intensive apps (HCT, Matrix,
// subStr) are dominated by bytes moved and combiner work.
#pragma once

#include <cstddef>

#include "common/metrics.h"

namespace slider {

// Hardware-like parameters, loosely modeled after the paper's testbed
// (Opteron-252 nodes, GbE, local disks).
struct CostModel {
  double mem_read_sec_per_byte = 1.0e-10;   // ~10 GB/s
  double disk_read_sec_per_byte = 1.0e-8;   // ~100 MB/s
  double disk_seek_sec = 3.0e-4;            // per random persistent read
  double disk_write_sec_per_byte = 1.2e-8;  // ~80 MB/s
  double net_sec_per_byte = 1.0e-8;         // ~100 MB/s
  double net_latency_sec = 5.0e-4;
  double task_overhead_sec = 0.05;  // JVM-ish per-task launch overhead

  SimDuration mem_read(std::size_t bytes) const {
    return mem_read_sec_per_byte * static_cast<double>(bytes);
  }
  SimDuration disk_read(std::size_t bytes) const {
    return disk_seek_sec + disk_read_sec_per_byte * static_cast<double>(bytes);
  }
  SimDuration disk_write(std::size_t bytes) const {
    return disk_write_sec_per_byte * static_cast<double>(bytes);
  }
  SimDuration net_transfer(std::size_t bytes) const {
    return net_latency_sec + net_sec_per_byte * static_cast<double>(bytes);
  }
};

// Cost of visiting one contraction node during change propagation: the
// memo-index RPC + per-subtask dispatch that every visited node pays in
// the distributed implementation. This is the strawman's "linear with a
// small constant" — it visits every node every run, while the
// self-adjusting trees only visit dirty paths.
inline constexpr double kMemoLookupSec = 2.0e-6;

// Per-application compute intensity. Filled in by each app in src/apps.
struct AppCostProfile {
  double map_cpu_per_record = 1.0e-5;   // seconds per input record
  double map_cpu_per_byte = 0.0;        // seconds per input byte
  double combine_cpu_per_row = 2.0e-7;  // seconds per row scanned in merges
  double reduce_cpu_per_row = 5.0e-7;   // seconds per row in final reduce
};

}  // namespace slider
