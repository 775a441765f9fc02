// Chaos engine: seeded, deterministic fault injection across the cluster,
// storage, and durability layers (paper §6 fault tolerance, made a
// continuously exercised property).
//
// The paper argues Slider tolerates worker failures because memoized state
// is replicated and lost work is simply recomputed. Before this layer the
// repo only modelled failure as a *pre-run* configuration: a machine could
// be marked failed before a slide, but nothing ever died mid-run, no task
// attempt ever failed, and a durable-tier write error was terminal. The
// chaos engine turns failure into a first-class, replayable input:
//
//   * ChaosSchedule::generate(seed, options, num_machines) draws a sorted
//     event list in simulated time — machine crash / recover, straggler
//     onset / clear, in-memory memo loss, durable-tier write-error windows
//     — under the invariant that at least `min_live_machines` stay alive
//     at every instant (and machine 0 never crashes, so a final task
//     attempt always has a guaranteed-live home).
//   * ChaosController applies those events to the live system: crashes
//     flip Cluster failure flags and drop the victim's in-memory memo
//     copies mid-run; durable error windows attach an always-fail
//     FaultInjector to every replica log (driving MemoStore into its
//     buffered degraded mode) and force a drain when the window closes.
//   * As a StageFaultProvider it also translates upcoming crashes into
//     per-stage StageFaultPlans, so the stage simulator kills running
//     attempts at the crash instant and re-executes them on live slots —
//     plus a deterministic per-(task, attempt, machine) injected-failure
//     draw derived purely from the seed.
//
// Everything is a pure function of (seed, options, num_machines) and the
// sequence of advance_to() calls, so a chaos run replays bit-identically —
// the property tools/chaos_soak turns into a CI invariant: outputs are
// byte-identical to a failure-free control, retries stay within the
// attempt cap, and every recompute is ledger-attributed.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/simulator.h"
#include "durability/fault_injector.h"

namespace slider {
class MemoStore;
}
namespace slider::durability {
class DurableTier;
}

namespace slider::robustness {

enum class ChaosEventType : std::uint8_t {
  kMachineCrash = 0,   // fail the machine; its memory-tier memo copies die
  kMachineRecover,     // machine returns (cold caches)
  kStragglerOnset,     // machine slows down by `factor`
  kStragglerClear,     // straggler returns to speed 1
  kMemoMemoryLoss,     // drop the machine's in-memory memo copies without
                       // failing it (transient cache loss)
  kDurableErrorOnset,  // every durable replica log starts rejecting writes
  kDurableErrorClear,  // write errors clear; degraded buffer drains
  kBitRot,             // flip one bit in a random at-rest segment record
  kReplicaDivergence,  // drop one replica's newest at-rest record (clean
                       // frame-boundary truncation: stale seq, no CRC fail)
};

std::string_view chaos_event_name(ChaosEventType type);

struct ChaosEvent {
  SimDuration at = 0;  // absolute simulated time
  ChaosEventType type = ChaosEventType::kMachineCrash;
  MachineId machine = -1;  // crash / recover / straggler / memo loss
  double factor = 1.0;     // straggler slowdown
  // Pre-drawn random bits for at-rest corruption targeting (which replica,
  // segment, byte, bit) — resolved against the actual files at apply time,
  // since segments do not exist yet when the schedule is generated.
  std::uint64_t entropy = 0;
};

struct ChaosOptions {
  // Events are drawn in [0.02, 0.95) * horizon; callers size the horizon
  // to roughly the simulated duration of the run under test.
  SimDuration horizon = 100.0;
  int crash_events = 2;
  int straggler_events = 2;
  int memo_loss_events = 1;
  int durable_error_events = 1;
  // At-rest corruption (both default 0 so existing seeds replay
  // bit-identically): bit rot flips one bit in a random flushed segment
  // record; replica divergence truncates one replica's newest record at a
  // frame boundary. Both are detected and healed by the integrity
  // scrubber (durability/scrubber.h).
  int bit_rot_events = 0;
  int replica_divergence_events = 0;
  // Probability that a given (task, attempt, machine) draw fails. The
  // draw is a pure hash of the seed and its arguments — no RNG state.
  double attempt_failure_prob = 0.02;
  // Liveness floor: a crash is only scheduled while it leaves at least
  // this many machines alive. Machine 0 never crashes: a stable anchor
  // that guarantees every final task attempt has a slot that cannot die
  // under it.
  int min_live_machines = 2;
  // Attempt / retry knobs forwarded into every StageFaultPlan (whose own
  // default sets the retry backoff).
  int max_attempts = 4;
  int blacklist_threshold = 3;
};

// Immutable, sorted chaos event timeline.
class ChaosSchedule {
 public:
  static ChaosSchedule generate(std::uint64_t seed, const ChaosOptions& options,
                                int num_machines);

  const std::vector<ChaosEvent>& events() const { return events_; }
  std::uint64_t seed() const { return seed_; }
  const ChaosOptions& options() const { return options_; }
  std::string to_string() const;  // one line per event, for logs

 private:
  std::uint64_t seed_ = 0;
  ChaosOptions options_;
  std::vector<ChaosEvent> events_;  // sorted by `at`, ties in draw order
};

// What the controller is allowed to break. Only `cluster` is required;
// null members simply skip the corresponding event effects.
struct ChaosTargets {
  Cluster* cluster = nullptr;
  MemoStore* memo = nullptr;
  durability::DurableTier* durable = nullptr;
};

// Applies a ChaosSchedule to a live system as simulated time advances, and
// serves per-stage fault plans to the stage simulator.
class ChaosController final : public StageFaultProvider {
 public:
  ChaosController(ChaosSchedule schedule, ChaosTargets targets);
  ~ChaosController() override;

  ChaosController(const ChaosController&) = delete;
  ChaosController& operator=(const ChaosController&) = delete;

  // Applies every not-yet-applied event with at <= now. Called at slide
  // boundaries (mid-stage effects are handled by the fault plans below).
  // Returns the number of events applied.
  std::size_t apply_until(SimDuration now);

  // StageFaultProvider: currently-failed machines, all future crash
  // events translated to stage-relative time (crashes beyond the stage's
  // makespan simply never trigger), and the deterministic injected
  // attempt-failure draw.
  StageFaultPlan stage_faults(SimDuration stage_start) const override;

  SimDuration now() const { return now_; }
  const ChaosSchedule& schedule() const { return schedule_; }
  bool exhausted() const { return next_event_ >= schedule_.events().size(); }

  struct Counters {
    std::uint64_t events_applied = 0;
    std::uint64_t crashes = 0;
    std::uint64_t recoveries = 0;
    std::uint64_t stragglers = 0;
    std::uint64_t memo_losses = 0;
    std::uint64_t durable_error_windows = 0;
    std::uint64_t bit_rots = 0;             // bits actually flipped on disk
    std::uint64_t replica_divergences = 0;  // records actually truncated
  };
  const Counters& counters() const { return counters_; }

 private:
  void apply(const ChaosEvent& event);

  // FaultInjector that rejects every write outright (clean failure, no
  // torn byte prefix beyond what the log frames itself).
  class RejectAllInjector final : public durability::FaultInjector {
   public:
    std::size_t admit(std::size_t) override { return 0; }
  };

  ChaosSchedule schedule_;
  ChaosTargets targets_;
  std::size_t next_event_ = 0;
  SimDuration now_ = 0;
  bool durable_error_active_ = false;
  Counters counters_;
  RejectAllInjector reject_all_;
};

}  // namespace slider::robustness
