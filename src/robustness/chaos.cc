#include "robustness/chaos.h"

#include <algorithm>
#include <limits>
#include <sstream>

#include "common/hash.h"
#include "common/logging.h"
#include "common/rng.h"
#include "durability/durable_tier.h"
#include "observability/flight_recorder.h"
#include "observability/stats.h"
#include "storage/memo_store.h"

namespace slider::robustness {
std::string_view chaos_event_name(ChaosEventType type) {
  switch (type) {
    case ChaosEventType::kMachineCrash: return "machine_crash";
    case ChaosEventType::kMachineRecover: return "machine_recover";
    case ChaosEventType::kStragglerOnset: return "straggler_onset";
    case ChaosEventType::kStragglerClear: return "straggler_clear";
    case ChaosEventType::kMemoMemoryLoss: return "memo_memory_loss";
    case ChaosEventType::kDurableErrorOnset: return "durable_error_onset";
    case ChaosEventType::kDurableErrorClear: return "durable_error_clear";
    case ChaosEventType::kBitRot: return "bit_rot";
    case ChaosEventType::kReplicaDivergence: return "replica_divergence";
  }
  return "unknown";
}

ChaosSchedule ChaosSchedule::generate(std::uint64_t seed,
                                      const ChaosOptions& options,
                                      int num_machines) {
  SLIDER_CHECK(num_machines > 0) << "chaos schedule needs machines";
  ChaosSchedule schedule;
  schedule.seed_ = seed;
  schedule.options_ = options;
  Rng rng(hash_combine(seed, 0xC4A05));
  auto draw_time = [&] {
    return options.horizon * (0.02 + 0.93 * rng.next_double());
  };

  // --- machine crashes + recoveries, under the liveness floor ------------
  // Walk candidate crash times in order, tracking which machines are down
  // and when they come back, and only schedule a crash while it leaves
  // min_live_machines alive. Machine 0 never crashes, so a final task
  // attempt always has a machine that cannot die under it.
  constexpr SimDuration kForever = std::numeric_limits<SimDuration>::infinity();
  std::vector<SimDuration> crash_times;
  crash_times.reserve(static_cast<std::size_t>(options.crash_events));
  for (int i = 0; i < options.crash_events; ++i) {
    crash_times.push_back(draw_time());
  }
  std::sort(crash_times.begin(), crash_times.end());
  std::vector<SimDuration> down_until(static_cast<std::size_t>(num_machines),
                                      -1);  // < 0: live
  int live = num_machines;
  const int min_live = std::max(1, options.min_live_machines);
  for (const SimDuration t : crash_times) {
    for (std::size_t m = 0; m < down_until.size(); ++m) {
      if (down_until[m] >= 0 && down_until[m] <= t) {
        down_until[m] = -1;
        ++live;
      }
    }
    if (live - 1 < min_live) continue;  // crashing now would break the floor
    std::vector<MachineId> candidates;
    for (int m = 1; m < num_machines; ++m) {
      if (down_until[static_cast<std::size_t>(m)] < 0) {
        candidates.push_back(static_cast<MachineId>(m));
      }
    }
    if (candidates.empty()) continue;
    const MachineId victim = candidates[rng.next_below(candidates.size())];
    const SimDuration recover_at =
        t + options.horizon * (0.10 + 0.25 * rng.next_double());
    schedule.events_.push_back(
        ChaosEvent{t, ChaosEventType::kMachineCrash, victim, 1.0});
    --live;
    if (recover_at < options.horizon) {
      schedule.events_.push_back(
          ChaosEvent{recover_at, ChaosEventType::kMachineRecover, victim, 1.0});
      down_until[static_cast<std::size_t>(victim)] = recover_at;
    } else {
      down_until[static_cast<std::size_t>(victim)] = kForever;
    }
  }

  // --- stragglers --------------------------------------------------------
  for (int i = 0; i < options.straggler_events; ++i) {
    const SimDuration t = draw_time();
    const auto machine =
        static_cast<MachineId>(rng.next_below(
            static_cast<std::uint64_t>(num_machines)));
    const double factor = 2.0 + 6.0 * rng.next_double();
    const SimDuration clear_at =
        t + options.horizon * (0.05 + 0.20 * rng.next_double());
    schedule.events_.push_back(
        ChaosEvent{t, ChaosEventType::kStragglerOnset, machine, factor});
    if (clear_at < options.horizon) {
      schedule.events_.push_back(
          ChaosEvent{clear_at, ChaosEventType::kStragglerClear, machine, 1.0});
    }
  }

  // --- transient in-memory memo loss -------------------------------------
  for (int i = 0; i < options.memo_loss_events; ++i) {
    const SimDuration t = draw_time();
    const auto machine =
        static_cast<MachineId>(rng.next_below(
            static_cast<std::uint64_t>(num_machines)));
    schedule.events_.push_back(
        ChaosEvent{t, ChaosEventType::kMemoMemoryLoss, machine, 1.0});
  }

  // --- durable-tier write-error windows ----------------------------------
  for (int i = 0; i < options.durable_error_events; ++i) {
    const SimDuration t = draw_time();
    const SimDuration clear_at =
        t + options.horizon * (0.05 + 0.15 * rng.next_double());
    schedule.events_.push_back(
        ChaosEvent{t, ChaosEventType::kDurableErrorOnset, -1, 1.0});
    schedule.events_.push_back(ChaosEvent{
        std::min(clear_at, options.horizon * 0.98),
        ChaosEventType::kDurableErrorClear, -1, 1.0});
  }

  // --- at-rest corruption (bit rot + replica divergence) ------------------
  // Drawn last so enabling them never perturbs the draws above: a legacy
  // seed with both counts at 0 replays bit-identically. Targets (replica,
  // segment, byte, bit) are resolved at apply time from the pre-drawn
  // entropy, since no segment files exist while the schedule is generated.
  for (int i = 0; i < options.bit_rot_events; ++i) {
    const SimDuration t = draw_time();
    schedule.events_.push_back(
        ChaosEvent{t, ChaosEventType::kBitRot, -1, 1.0, rng.next_u64()});
  }
  for (int i = 0; i < options.replica_divergence_events; ++i) {
    const SimDuration t = draw_time();
    schedule.events_.push_back(ChaosEvent{
        t, ChaosEventType::kReplicaDivergence, -1, 1.0, rng.next_u64()});
  }

  std::stable_sort(schedule.events_.begin(), schedule.events_.end(),
                   [](const ChaosEvent& a, const ChaosEvent& b) {
                     return a.at < b.at;
                   });
  return schedule;
}

std::string ChaosSchedule::to_string() const {
  std::ostringstream out;
  out << "chaos schedule seed=" << seed_ << " events=" << events_.size()
      << "\n";
  for (const ChaosEvent& event : events_) {
    out << "  t=" << event.at << " " << chaos_event_name(event.type);
    if (event.machine >= 0) out << " machine=" << event.machine;
    if (event.type == ChaosEventType::kStragglerOnset) {
      out << " factor=" << event.factor;
    }
    out << "\n";
  }
  return out.str();
}

ChaosController::ChaosController(ChaosSchedule schedule, ChaosTargets targets)
    : schedule_(std::move(schedule)), targets_(targets) {
  SLIDER_CHECK(targets_.cluster != nullptr) << "chaos needs a cluster";
}

ChaosController::~ChaosController() {
  // Never leave a dangling injector behind on the durable tier.
  if (durable_error_active_ && targets_.durable != nullptr) {
    for (std::size_t r = 0; r < targets_.durable->replicas(); ++r) {
      targets_.durable->set_fault_injector(r, nullptr);
    }
  }
}

std::size_t ChaosController::apply_until(SimDuration now) {
  std::size_t applied = 0;
  const auto& events = schedule_.events();
  while (next_event_ < events.size() && events[next_event_].at <= now) {
    apply(events[next_event_]);
    ++next_event_;
    ++applied;
  }
  now_ = std::max(now_, now);
  return applied;
}

void ChaosController::apply(const ChaosEvent& event) {
  // Every applied event that breaks something counts once here, as does
  // every task-attempt failure the stage simulator injects.
  static obs::Counter& failures_injected =
      obs::StatsRegistry::global().counter("failures.injected");
  Cluster& cluster = *targets_.cluster;
  ++counters_.events_applied;
  // Every applied event lands in the flight recorder's fault log; the
  // destructive ones also request a post-mortem dump at the next slide
  // boundary. Clears/recoveries are context, not triggers.
  const bool destructive = event.type == ChaosEventType::kMachineCrash ||
                           event.type == ChaosEventType::kStragglerOnset ||
                           event.type == ChaosEventType::kMemoMemoryLoss ||
                           event.type == ChaosEventType::kDurableErrorOnset ||
                           event.type == ChaosEventType::kBitRot ||
                           event.type == ChaosEventType::kReplicaDivergence;
  obs::FlightRecorder::global().note_fault(
      chaos_event_name(event.type),
      event.type == ChaosEventType::kStragglerOnset
          ? "slowdown factor " + std::to_string(event.factor)
          : std::string("chaos schedule seed ") +
                std::to_string(schedule_.seed()),
      event.at, event.machine, /*request_dump=*/destructive);
  switch (event.type) {
    case ChaosEventType::kMachineCrash:
      cluster.fail_machine(event.machine);
      // The victim's in-memory memo copies die with it; persistent
      // replicas on live machines keep serving, and a total loss degrades
      // to recompute billed as failure_reexec.
      if (targets_.memo != nullptr) targets_.memo->drop_memory_on_failed();
      ++counters_.crashes;
      failures_injected.add();
      break;
    case ChaosEventType::kMachineRecover:
      cluster.recover_machine(event.machine);
      ++counters_.recoveries;
      break;
    case ChaosEventType::kStragglerOnset:
      cluster.set_straggler(event.machine, std::max(1.0, event.factor));
      ++counters_.stragglers;
      failures_injected.add();
      break;
    case ChaosEventType::kStragglerClear:
      cluster.set_straggler(event.machine, 1.0);
      break;
    case ChaosEventType::kMemoMemoryLoss:
      // Transient cache loss: drop the machine's memory-tier copies
      // without failing it (fail/drop/recover leaves every other machine
      // untouched and the victim alive with a cold cache).
      if (targets_.memo != nullptr && event.machine >= 0 &&
          event.machine < cluster.num_machines()) {
        const bool was_failed = cluster.machine(event.machine).failed;
        if (!was_failed) cluster.fail_machine(event.machine);
        targets_.memo->drop_memory_on_failed();
        if (!was_failed) cluster.recover_machine(event.machine);
      }
      ++counters_.memo_losses;
      failures_injected.add();
      break;
    case ChaosEventType::kDurableErrorOnset:
      if (targets_.durable != nullptr && !durable_error_active_) {
        for (std::size_t r = 0; r < targets_.durable->replicas(); ++r) {
          targets_.durable->set_fault_injector(r, &reject_all_);
        }
        durable_error_active_ = true;
        ++counters_.durable_error_windows;
        failures_injected.add();
      }
      break;
    case ChaosEventType::kDurableErrorClear:
      if (targets_.durable != nullptr && durable_error_active_) {
        for (std::size_t r = 0; r < targets_.durable->replicas(); ++r) {
          targets_.durable->set_fault_injector(r, nullptr);
        }
        durable_error_active_ = false;
        // The write-error window is over: reopen failed logs and drain
        // the degraded buffer now instead of waiting for the backoff.
        if (targets_.memo != nullptr) targets_.memo->flush_durable();
      }
      break;
    case ChaosEventType::kBitRot: {
      // Silent at-rest corruption: flip one bit in a random flushed
      // segment record. The integrity scrubber must detect it via the
      // frame CRC and quarantine the segment — outputs stay byte-identical
      // to a corruption-free control.
      if (targets_.durable == nullptr) break;
      durability::DurableTier& tier = *targets_.durable;
      tier.flush();  // everything appended so far is at rest
      struct Candidate {
        std::string path;
        std::uint64_t size;
      };
      std::vector<Candidate> candidates;
      for (std::size_t r = 0; r < tier.replicas(); ++r) {
        for (std::string& path :
             durability::SegmentLog::list_segments(tier.log(r).dir())) {
          const auto size = durability::FileFaultInjector::file_size(path);
          if (size.has_value() && *size > 0) {
            candidates.push_back(Candidate{std::move(path), *size});
          }
        }
      }
      if (candidates.empty()) break;  // nothing at rest yet: benign no-op
      const Candidate& target =
          candidates[event.entropy % candidates.size()];
      const std::uint64_t byte = mix64(event.entropy) % target.size;
      const int bit =
          static_cast<int>(mix64(event.entropy ^ 0xB17B17) % 8);
      if (durability::FileFaultInjector::flip_bit(target.path, byte, bit)) {
        ++counters_.bit_rots;
        failures_injected.add();
        SLIDER_LOG(Info) << "chaos: bit rot in " << target.path << " byte "
                         << byte << " bit " << bit;
      }
      break;
    }
    case ChaosEventType::kReplicaDivergence: {
      // Drop one replica's newest at-rest record by truncating exactly at
      // its frame start: every remaining frame stays intact, so the only
      // symptom is a stale/missing newest seq for that key — the pure
      // anti-entropy path of the scrubber, with no CRC failure involved.
      if (targets_.durable == nullptr) break;
      durability::DurableTier& tier = *targets_.durable;
      tier.flush();
      const std::size_t victim = event.entropy % tier.replicas();
      durability::SegmentLog& log = tier.log(victim);
      if (log.failed()) break;
      // Seal the active segment first: truncating under the writer's open
      // stream would leave its append position past EOF.
      log.rotate_now();
      auto segments = durability::SegmentLog::list_segments(log.dir());
      for (auto it = segments.rbegin(); it != segments.rend(); ++it) {
        const auto size = durability::FileFaultInjector::file_size(*it);
        if (!size.has_value()) continue;
        // Start of the last complete frame, intact or not (== size when
        // the segment holds none).
        std::uint64_t frame = *size;
        durability::SegmentCursor cursor(*it, 0, *size);
        for (auto step = cursor.next();
             step == durability::SegmentCursor::Step::kRecord ||
             step == durability::SegmentCursor::Step::kCrcMismatch;
             step = cursor.next()) {
          frame = cursor.frame_offset();
        }
        if (frame >= *size) continue;  // no complete frame in this segment
        if (durability::FileFaultInjector::truncate_tail(*it,
                                                         *size - frame)) {
          ++counters_.replica_divergences;
          failures_injected.add();
          SLIDER_LOG(Info) << "chaos: replica " << victim
                           << " diverged, dropped newest record of " << *it;
        }
        break;  // newest record lives in the last segment that has one
      }
      break;
    }
  }
}

StageFaultPlan ChaosController::stage_faults(SimDuration stage_start) const {
  StageFaultPlan plan;
  const ChaosOptions& options = schedule_.options();
  plan.max_attempts = options.max_attempts;
  plan.blacklist_threshold = options.blacklist_threshold;

  const Cluster& cluster = *targets_.cluster;
  for (MachineId m = 0; m < cluster.num_machines(); ++m) {
    if (cluster.machine(m).failed) plan.dead_machines.push_back(m);
  }

  // Every not-yet-applied crash, translated to stage-relative time. A
  // crash whose absolute time already passed (it fell inside an earlier
  // stage of the same slide) clamps to 0: dead from this stage's start.
  // Crashes far beyond the stage's makespan never trigger — harmless.
  const auto& events = schedule_.events();
  for (std::size_t i = next_event_; i < events.size(); ++i) {
    if (events[i].type != ChaosEventType::kMachineCrash) continue;
    plan.crashes.push_back(StageFaultPlan::Crash{
        events[i].machine,
        std::max<SimDuration>(0, events[i].at - stage_start)});
  }

  // Deterministic injected attempt failures: a pure hash draw over
  // (seed, stage_start, task, attempt, machine). No RNG state — the same
  // stage replayed yields the same failures.
  const double prob = options.attempt_failure_prob;
  if (prob > 0) {
    const std::uint64_t stage_key = hash_combine(
        hash_combine(schedule_.seed(), 0xA77E),
        static_cast<std::uint64_t>(stage_start * 1048576.0));
    plan.attempt_fails = [stage_key, prob](std::size_t task, int attempt,
                                           MachineId machine) {
      const std::uint64_t h = hash_combine(
          hash_combine(stage_key, static_cast<std::uint64_t>(task)),
          hash_combine(static_cast<std::uint64_t>(attempt) + 0x51,
                       static_cast<std::uint64_t>(machine) + 0xA1));
      return static_cast<double>(h >> 11) * 0x1.0p-53 < prob;
    };
  }
  return plan;
}

}  // namespace slider::robustness
