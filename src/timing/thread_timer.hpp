#pragma once

// ThreadTimer: the production Timer provider (the paper's "JavaTimer").
// A dedicated thread sleeps on a min-heap of deadlines and triggers the
// scheduled Timeout events back through the provided Timer port. Periodic
// timeouts re-arm themselves until cancelled. A cancelled entry stays in the
// heap until it pops, unless cancelled entries come to fill more than half
// of it: then the heap is rebuilt without them, so an op deadline armed and
// cancelled per request does not leave ops/s x timeout entries behind.

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "kompics/component.hpp"
#include "timing/timer_port.hpp"

namespace kompics::timing {

class ThreadTimer : public ComponentDefinition {
 public:
  ThreadTimer();
  ~ThreadTimer() override;

  /// Joins the timer thread; without this, pending deadlines keep firing
  /// into sibling components while the tree is being torn down.
  void halt() override { stop_thread(); }

  /// Cancellations recorded but not yet consumed by a firing entry. Stays
  /// bounded: cancelling an id with no armed heap entry (already fired, or
  /// never armed) is a no-op instead of leaking into this set forever.
  std::size_t pending_cancellations() const;
  /// Distinct timeout ids with at least one entry still in the heap.
  std::size_t armed_timeouts() const;

 private:
  struct Entry {
    std::int64_t deadline_ms;  // wall clock (runtime clock domain)
    std::uint64_t seq;         // tie-breaker for deterministic ordering
    TimeoutPtr payload;
    std::int64_t period_ms;  // <0 for one-shot
    bool operator>(const Entry& other) const {
      return deadline_ms != other.deadline_ms ? deadline_ms > other.deadline_ms
                                              : seq > other.seq;
    }
  };

  void timer_main();
  void arm(std::int64_t delay_ms, std::int64_t period_ms, TimeoutPtr payload);
  /// Accounts for an entry leaving the heap; true if a cancellation consumed
  /// it (it must not fire). Caller holds mu_.
  bool retire(const Entry& e);
  /// Rebuilds the heap without its cancelled entries. Caller holds mu_.
  void purge_cancelled();
  void ensure_thread();
  void stop_thread();

  Negative<Timer> timer_ = provide<Timer>();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Entry> heap_;  // min-heap under std::greater<>
  std::unordered_set<TimeoutId> cancelled_;
  // id -> number of heap entries carrying it. Lets the cancel path tell a
  // pending timeout (record the cancellation) from one that already fired
  // or never existed (ignore — recording it would leak the id forever).
  std::unordered_map<TimeoutId, std::size_t> armed_;
  std::uint64_t seq_ = 0;
  bool stop_ = false;
  bool thread_running_ = false;
  std::thread thread_;
};

}  // namespace kompics::timing
