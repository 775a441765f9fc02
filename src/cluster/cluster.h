// Simulated cluster substrate.
//
// The paper evaluates on 25 machines running Hadoop (§7.1: 1 master + 24
// workers, 2 map + 2 reduce slots each is the Hadoop-0.20 default). We
// reproduce that shape: a Cluster is a set of machines with task slots, a
// per-machine speed factor, and optional straggler / failure injection.
// Machines execute *real* user code; the cluster only accounts for where
// tasks run and how long they take in simulated time.
#pragma once

#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"

namespace slider {

using MachineId = int;

struct MachineState {
  double speed = 1.0;             // >1 means faster
  double straggler_factor = 1.0;  // >1 means slowed down by this factor
  bool failed = false;            // failed machines lose their memo cache
};

struct ClusterConfig {
  int num_machines = 24;
  int slots_per_machine = 2;
  std::uint64_t seed = 1;
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config = {});

  int num_machines() const { return static_cast<int>(machines_.size()); }
  int slots_per_machine() const { return config_.slots_per_machine; }

  const MachineState& machine(MachineId id) const {
    SLIDER_CHECK(id >= 0 && id < num_machines()) << "bad machine id " << id;
    return machines_[id];
  }

  // Effective slowdown multiplier for task durations on this machine.
  double duration_factor(MachineId id) const {
    const MachineState& m = machine(id);
    return m.straggler_factor / m.speed;
  }

  void set_straggler(MachineId id, double factor);

  // Marks a machine failed. The storage layer observes failures through
  // this flag and drops the machine's in-memory cache contents.
  void fail_machine(MachineId id);
  void recover_machine(MachineId id);

  // Deterministic machine choice for data placement (split locality,
  // memo-shard homes). Stable for a given key: the primary ring position is
  // `key % num_machines()`, and once the primary machine is healthy the
  // placement returns to it. While the primary is failed, the choice probes
  // forward around the ring to the first live machine so that new entries
  // are never homed on a machine that is currently down. If every machine
  // is failed the primary is returned unchanged (callers degrade to
  // recompute anyway).
  MachineId place(std::uint64_t key) const {
    const int n = num_machines();
    const MachineId primary =
        static_cast<MachineId>(key % static_cast<std::uint64_t>(n));
    if (!machines_[static_cast<std::size_t>(primary)].failed) return primary;
    for (int probe = 1; probe < n; ++probe) {
      const MachineId candidate = static_cast<MachineId>((primary + probe) % n);
      if (!machines_[static_cast<std::size_t>(candidate)].failed) {
        return candidate;
      }
    }
    return primary;
  }

  // Number of machines currently marked failed.
  int failed_machines() const {
    int count = 0;
    for (const MachineState& m : machines_) count += m.failed ? 1 : 0;
    return count;
  }

  // True if at least one machine is alive.
  bool any_live() const { return failed_machines() < num_machines(); }

 private:
  ClusterConfig config_;
  std::vector<MachineState> machines_;
};

}  // namespace slider
