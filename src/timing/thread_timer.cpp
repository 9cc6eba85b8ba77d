#include "timing/thread_timer.hpp"

#include <algorithm>
#include <chrono>

#include "kompics/kompics.hpp"

namespace kompics::timing {

ThreadTimer::ThreadTimer() {
  subscribe<ScheduleTimeout>(timer_, [this](const ScheduleTimeout& st) {
    arm(st.delay_ms(), -1, st.payload());
  });
  subscribe<SchedulePeriodicTimeout>(timer_, [this](const SchedulePeriodicTimeout& st) {
    arm(st.initial_delay_ms(), st.period_ms(), st.payload());
  });
  subscribe<CancelTimeout>(timer_, [this](const CancelTimeout& ct) {
    std::lock_guard<std::mutex> g(mu_);
    // Only record cancellations that a pending heap entry will consume;
    // cancel-after-fire and cancel-of-unknown-id must not leak the id.
    if (armed_.count(ct.id()) == 0) return;
    cancelled_.insert(ct.id());
    // Each recorded cancellation pins exactly one heap entry.
    if (cancelled_.size() > 64 && cancelled_.size() * 2 > heap_.size()) purge_cancelled();
  });
  subscribe<Start>(control(), [this](const Start&) { ensure_thread(); });
  subscribe<Stop>(control(), [this](const Stop&) { stop_thread(); });
}

ThreadTimer::~ThreadTimer() { stop_thread(); }

void ThreadTimer::arm(std::int64_t delay_ms, std::int64_t period_ms, TimeoutPtr payload) {
  ensure_thread();
  std::lock_guard<std::mutex> g(mu_);
  ++armed_[payload->id()];
  const std::int64_t deadline = now() + std::max<std::int64_t>(0, delay_ms);
  // The timer thread sleeps until the earliest deadline: only a new earliest
  // one needs to wake it.
  const bool earliest = heap_.empty() || deadline < heap_.front().deadline_ms;
  heap_.push_back(Entry{deadline, seq_++, std::move(payload), period_ms});
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  if (earliest) cv_.notify_one();
}

bool ThreadTimer::retire(const Entry& e) {
  const TimeoutId id = e.payload->id();
  auto armed_it = armed_.find(id);
  if (armed_it != armed_.end() && --armed_it->second == 0) armed_.erase(armed_it);
  return cancelled_.erase(id) != 0;  // consumed; periodic entries are not re-armed
}

void ThreadTimer::purge_cancelled() {
  // Walk in firing order, so each cancellation consumes the entry that would
  // have popped first — the same one timer_main would have dropped.
  std::sort(heap_.begin(), heap_.end(), [](const Entry& a, const Entry& b) { return b > a; });
  std::vector<Entry> kept;
  kept.reserve(heap_.size() - cancelled_.size());
  for (Entry& e : heap_) {
    if (cancelled_.count(e.payload->id()) != 0) {
      retire(e);
    } else {
      kept.push_back(std::move(e));
    }
  }
  heap_ = std::move(kept);  // ascending order is already a valid min-heap
}

std::size_t ThreadTimer::pending_cancellations() const {
  std::lock_guard<std::mutex> g(mu_);
  return cancelled_.size();
}

std::size_t ThreadTimer::armed_timeouts() const {
  std::lock_guard<std::mutex> g(mu_);
  return armed_.size();
}

void ThreadTimer::ensure_thread() {
  std::lock_guard<std::mutex> g(mu_);
  if (thread_running_) return;
  stop_ = false;
  thread_running_ = true;
  thread_ = std::thread([this] { timer_main(); });
}

void ThreadTimer::stop_thread() {
  std::thread to_join;
  {
    std::lock_guard<std::mutex> g(mu_);
    if (!thread_running_) return;
    stop_ = true;
    thread_running_ = false;
    cv_.notify_all();
    to_join = std::move(thread_);
  }
  if (to_join.joinable()) to_join.join();
}

void ThreadTimer::timer_main() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    if (heap_.empty()) {
      cv_.wait(lock, [this] { return stop_ || !heap_.empty(); });
      continue;
    }
    const std::int64_t wake = heap_.front().deadline_ms;
    const std::int64_t current = now();
    if (current < wake) {
      cv_.wait_for(lock, std::chrono::milliseconds(wake - current));
      continue;
    }
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    Entry e = std::move(heap_.back());
    heap_.pop_back();
    if (retire(e)) continue;
    if (e.period_ms >= 0) {
      ++armed_[e.payload->id()];
      heap_.push_back(Entry{e.deadline_ms + std::max<std::int64_t>(1, e.period_ms), seq_++,
                            e.payload, e.period_ms});
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
    }
    TimeoutPtr payload = e.payload;
    lock.unlock();
    trigger(payload, timer_);  // thread-safe: publishes to subscriber queues
    lock.lock();
  }
}

}  // namespace kompics::timing
