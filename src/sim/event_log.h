// Append-only log of management actions taken during a run (scalings,
// migrations, alerts). Benches and tests read it to verify what happened
// and when; the trace benches print it alongside the SLO metric series.
//
// record() is thread-safe (the capacity guard and the event vector move
// together under one mutex); the by-reference events() accessor is the
// quiescent exception. Despite the lock, the log is
// PREPARE_DRIVER_CONFINED: record ORDER is part of the deterministic run
// output (benches diff it across --threads N), so the controllers write
// it only through their decision spine (core/decision_sinks.h), from
// serial sections.
#pragma once

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

#include "common/analyze_annotations.h"
#include "common/mutex.h"
#include "obs/metrics.h"

namespace prepare {

enum class EventKind {
  kCpuScale,
  kMemScale,
  kMigrationStart,
  kMigrationDone,
  kAlert,
  kAlertConfirmed,
  kPrevention,
  kValidation,
  kInfo,
};

const char* event_kind_name(EventKind kind);

struct Event {
  double time = 0.0;
  EventKind kind = EventKind::kInfo;
  std::string subject;  ///< VM or component the event refers to
  std::string detail;
};

class PREPARE_DRIVER_CONFINED EventLog {
 public:
  /// Capacity guard: long runs (ext_scale sweeps) must not grow the log
  /// without bound. Once `capacity` events are held, further records
  /// are dropped and counted (see dropped() / the events.dropped_total
  /// metric).
  static constexpr std::size_t kDefaultCapacity = 262144;

  EventLog() = default;
  /// Copies snapshot the source under its lock; they exist for
  /// end-of-run result plumbing (ScenarioResult), not for copying a log
  /// that other threads keep appending to.
  EventLog(const EventLog& other);
  EventLog& operator=(const EventLog& other);

  void record(double time, EventKind kind, std::string subject,
              std::string detail);

  /// Quiescent-only: callers must ensure no concurrent record() while
  /// holding the reference (tests and benches read after the run).
  const std::vector<Event>& events() const
      PREPARE_NO_THREAD_SAFETY_ANALYSIS {
    return events_;
  }
  std::vector<Event> events_of(EventKind kind) const;
  std::size_t count_of(EventKind kind) const;
  void clear() {
    MutexLock lock(&mu_);
    events_.clear();
    dropped_ = 0;
    warned_dropped_ = false;
  }

  void set_capacity(std::size_t capacity) {
    MutexLock lock(&mu_);
    capacity_ = capacity;
  }
  std::size_t capacity() const {
    MutexLock lock(&mu_);
    return capacity_;
  }
  /// Events discarded by the capacity guard since the last clear().
  std::size_t dropped() const {
    MutexLock lock(&mu_);
    return dropped_;
  }

  /// Attaches observability counters (events.recorded_total,
  /// events.dropped_total). The registry must outlive every subsequent
  /// record() on this log (and on copies of it). Pass nullptr to detach.
  void set_metrics(obs::MetricsRegistry* registry);

  /// Writes one `event` JSONL record per event (schema: see
  /// src/obs/trace_export.h). `run_id` stamps each record.
  void to_jsonl(std::ostream& os, const std::string& run_id = "") const;

 private:
  mutable Mutex mu_;
  std::vector<Event> events_ PREPARE_GUARDED_BY(mu_);
  std::size_t capacity_ PREPARE_GUARDED_BY(mu_) = kDefaultCapacity;
  std::size_t dropped_ PREPARE_GUARDED_BY(mu_) = 0;
  /// Truncation is loud exactly once: the first dropped record emits a
  /// PREPARE_WARN naming its kind; further drops only count.
  bool warned_dropped_ PREPARE_GUARDED_BY(mu_) = false;
  // Counter pointers are set before the run (set_metrics) and read-only
  // afterwards; the counters themselves are internally thread-safe.
  obs::Counter* recorded_counter_ PREPARE_GUARDED_BY(mu_) = nullptr;
  obs::Counter* dropped_counter_ PREPARE_GUARDED_BY(mu_) = nullptr;
};

}  // namespace prepare
