// Black-box flight recorder: on chaos events, degraded-mode entry, or SLO
// breach, atomically dump the process's observability state — trace ring,
// time-series window, ledger and StatsRegistry snapshots, fault-event log,
// SLO verdicts — to a CRC-framed `*.pm.json` post-mortem file (format:
// postmortem.h, tools/slider_doctor.cc reads it back).
//
// Trigger discipline: the places that *detect* trouble are the wrong
// places to dump from. Degraded-mode entry fires inside MemoStore's
// durable mutex, chaos events fire between arbitrary stages — both would
// deadlock or tear state if they snapshotted the world on the spot. So
// triggers are split in two:
//
//   * note_fault() / request_dump() — cheap, lock-light, callable from
//     anywhere (including under storage locks): appends to a bounded
//     fault-event ring and marks a dump pending;
//   * maybe_dump() — called once per slide boundary by the session (the
//     same cold path that commits the ledger), where no subsystem lock is
//     held: if a dump is pending, armed, and not rate-limited, it
//     snapshots the global TimeSeries / WorkLedger / TraceCollector and
//     writes the frame atomically (tmp + rename).
//
// Rate limiting: at most `max_dumps` per arming and at least
// `min_slides_between_dumps` slide boundaries between consecutive dumps,
// so a persistent breach produces a bounded trail instead of a disk full
// of identical post-mortems.
//
// Process-wide singleton (like WorkLedger); disarmed by default. The
// SLIDER_POSTMORTEM_DIR env var arms it at first use.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "observability/slo.h"

namespace slider::obs {

class ProvenanceRecorder;

// One noted fault event (bounded ring; embedded in every dump).
struct FaultNote {
  double sim_time = -1;  // < 0: unknown (the noting layer has no sim clock)
  std::string kind;      // e.g. "machine_crash", "durable_degraded"
  std::string detail;
  std::int64_t machine = -1;  // < 0: not machine-specific
};

class FlightRecorder {
 public:
  struct Options {
    std::string directory;  // empty = disarmed
    std::size_t max_dumps = 8;
    std::uint64_t min_slides_between_dumps = 16;
  };

  // The fault log keeps the newest this many notes.
  static constexpr std::size_t kFaultLogCapacity = 256;

  // Everything maybe_dump() needs from the caller; global state
  // (TimeSeries, WorkLedger, TraceCollector) is snapshotted internally.
  struct DumpContext {
    std::string session;  // label, e.g. the tree variant
    double sim_time = 0;
    const std::vector<SloVerdict>* verdicts = nullptr;  // optional
    // Lineage history of the dumping session (provenance.h); embedded as
    // the dump's "provenance" section when non-null. Not owned.
    const ProvenanceRecorder* provenance = nullptr;
  };

  static FlightRecorder& global();

  FlightRecorder();

  // (Re)arms the recorder. An empty directory disarms it. Resets the dump
  // budget and rate limiter, keeps the fault log.
  void arm(Options options);
  bool armed() const;

  // Cheap fault note from any thread, under any subsystem lock. When
  // `request_dump` is set, the next maybe_dump() fires.
  void note_fault(std::string_view kind, std::string_view detail,
                  double sim_time = -1, std::int64_t machine = -1,
                  bool request_dump = true);

  // Marks a dump pending without recording a fault (SLO breaches: the
  // verdicts travel in the DumpContext instead).
  void request_dump(std::string_view reason);

  // Slide-boundary hook: writes a dump if one is pending, the recorder is
  // armed, and the rate limiter allows it. Returns the dump path, or ""
  // when nothing was written. Thread-safe (concurrent sessions serialize
  // on the dump mutex; each dump gets a unique file).
  std::string maybe_dump(const DumpContext& context);

  // Unconditional dump (ignores pending state and the slide-spacing rate
  // limit; still bounded by max_dumps). For tests and tools.
  std::string dump_now(std::string_view reason, const DumpContext& context);

  std::uint64_t dumps_written() const;
  std::vector<FaultNote> fault_log() const;

  // Disarms and clears all state (tests).
  void reset();

 private:
  std::string write_dump_locked(std::string_view reason,
                                const DumpContext& context);

  mutable std::mutex mutex_;
  Options options_;
  std::deque<FaultNote> fault_log_;
  bool pending_ = false;
  std::string pending_reason_;
  std::uint64_t slide_ticks_ = 0;       // maybe_dump() calls since arming
  std::uint64_t last_dump_tick_ = 0;
  bool dumped_once_ = false;
  std::uint64_t dumps_written_ = 0;
  std::uint64_t dump_counter_ = 0;  // unique filename suffix
};

}  // namespace slider::obs
