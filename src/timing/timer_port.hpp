#pragma once

// The Timer abstraction (paper §2.1): a service port type accepting
// ScheduleTimeout / CancelTimeout requests and delivering Timeout
// indications. Components that need timeouts *require* a Timer port; the
// providing component is ThreadTimer in production and the simulation
// driver (virtual time) in simulation mode — the same consumer code runs
// under both (paper §3).

#include <atomic>
#include <cstdint>
#include <memory>

#include "kompics/event.hpp"
#include "kompics/port_type.hpp"

namespace kompics::timing {

using TimeoutId = std::uint64_t;

/// Allocates a process-unique timeout id for request/indication correlation.
inline TimeoutId fresh_timeout_id() {
  static std::atomic<TimeoutId> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

/// Base class of all timeout indications. Subclass it to carry protocol
/// data; construct with the id of the ScheduleTimeout it answers.
class Timeout : public Event {
  KOMPICS_EVENT(Timeout, Event);

 public:
  explicit Timeout(TimeoutId id) : id_(id) {}
  TimeoutId id() const { return id_; }

 private:
  TimeoutId id_;
};

using TimeoutPtr = std::shared_ptr<const Timeout>;

/// One-shot timer request: deliver `payload` after `delay_ms`.
class ScheduleTimeout : public Event {
  KOMPICS_EVENT(ScheduleTimeout, Event);

 public:
  ScheduleTimeout(std::int64_t delay_ms, TimeoutPtr payload)
      : delay_ms_(delay_ms), payload_(std::move(payload)) {}

  std::int64_t delay_ms() const { return delay_ms_; }
  const TimeoutPtr& payload() const { return payload_; }
  TimeoutId timeout_id() const { return payload_->id(); }

 private:
  std::int64_t delay_ms_;
  TimeoutPtr payload_;
};

/// Periodic timer request: deliver `payload` after `initial_delay_ms`, then
/// every `period_ms` until cancelled.
class SchedulePeriodicTimeout : public Event {
  KOMPICS_EVENT(SchedulePeriodicTimeout, Event);

 public:
  SchedulePeriodicTimeout(std::int64_t initial_delay_ms, std::int64_t period_ms,
                          TimeoutPtr payload)
      : initial_delay_ms_(initial_delay_ms), period_ms_(period_ms), payload_(std::move(payload)) {}

  std::int64_t initial_delay_ms() const { return initial_delay_ms_; }
  std::int64_t period_ms() const { return period_ms_; }
  const TimeoutPtr& payload() const { return payload_; }
  TimeoutId timeout_id() const { return payload_->id(); }

 private:
  std::int64_t initial_delay_ms_;
  std::int64_t period_ms_;
  TimeoutPtr payload_;
};

/// Cancels a pending (one-shot or periodic) timeout by id.
class CancelTimeout : public Event {
  KOMPICS_EVENT(CancelTimeout, Event);

 public:
  explicit CancelTimeout(TimeoutId id) : id_(id) {}
  TimeoutId id() const { return id_; }

 private:
  TimeoutId id_;
};

/// The Timer port type from the paper:
///   indication: Timeout
///   request:    ScheduleTimeout, SchedulePeriodicTimeout, CancelTimeout
class Timer : public PortType {
 public:
  Timer() {
    set_name("Timer");
    indication<Timeout>();
    request<ScheduleTimeout>();
    request<SchedulePeriodicTimeout>();
    request<CancelTimeout>();
  }
};

/// Convenience: build a one-shot ScheduleTimeout carrying a T (a Timeout
/// subclass) constructed from `args`, with a fresh id. Returns the request
/// event; read ->timeout_id() for cancellation.
template <class T, class... Args>
std::shared_ptr<const ScheduleTimeout> schedule(std::int64_t delay_ms, Args&&... args) {
  kompics::detail::require_registered<T>();
  auto payload = std::make_shared<const T>(fresh_timeout_id(), std::forward<Args>(args)...);
  return std::make_shared<const ScheduleTimeout>(delay_ms, std::move(payload));
}

/// Convenience: periodic variant of schedule<T>.
template <class T, class... Args>
std::shared_ptr<const SchedulePeriodicTimeout> schedule_periodic(std::int64_t initial_delay_ms,
                                                                 std::int64_t period_ms,
                                                                 Args&&... args) {
  kompics::detail::require_registered<T>();
  auto payload = std::make_shared<const T>(fresh_timeout_id(), std::forward<Args>(args)...);
  return std::make_shared<const SchedulePeriodicTimeout>(initial_delay_ms, period_ms,
                                                         std::move(payload));
}

}  // namespace kompics::timing
