#include "cluster/cluster.h"

namespace slider {

Cluster::Cluster(ClusterConfig config) : config_(config) {
  SLIDER_CHECK(config.num_machines > 0) << "cluster needs machines";
  SLIDER_CHECK(config.slots_per_machine > 0) << "machines need slots";
  machines_.resize(static_cast<std::size_t>(config.num_machines));
}

void Cluster::set_straggler(MachineId id, double factor) {
  SLIDER_CHECK(factor >= 1.0) << "straggler factor must be >= 1";
  machines_[static_cast<std::size_t>(id)].straggler_factor = factor;
}

void Cluster::fail_machine(MachineId id) {
  machines_[static_cast<std::size_t>(id)].failed = true;
}

void Cluster::recover_machine(MachineId id) {
  machines_[static_cast<std::size_t>(id)].failed = false;
}

}  // namespace slider
