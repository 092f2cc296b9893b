// Reference event kernel: the pre-S24 binary-heap + unordered_map
// implementation, preserved verbatim (minus metrics) as an executable
// model of the dispatch-order contract.
//
// It exists for two consumers:
//   - tests/sim/kernel_equivalence_test.cpp drives randomized schedules
//     through this model and the production wheel kernel in lockstep and
//     requires identical fire logs;
//   - bench/bench_e20_kernel.cpp measures the production kernel against
//     it (the old per-fire std::function allocation and map probes are
//     exactly what the refactor removed).
//
// Do not "improve" this type: its value is being the old semantics.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/time.hpp"

namespace decos::sim {

/// The old kernel: priority_queue of (when, seq, id) entries with the
/// callables in an id-keyed hash map; cancel erases the map entry and
/// leaves a tombstone in the heap.
class ReferenceKernel {
 public:
  using EventId = std::uint64_t;
  using Action = std::function<void()>;

  Instant now() const { return now_; }

  EventId schedule_at(Instant when, Action action) {
    if (when < now_) when = now_;
    const EventId id = next_id_++;
    queue_.push(Entry{when, next_seq_++, id});
    actions_.emplace(id, std::move(action));
    ++live_;
    return id;
  }

  EventId schedule_after(Duration delay, Action action) {
    return schedule_at(now_ + delay, std::move(action));
  }

  bool cancel(EventId id) {
    const auto it = actions_.find(id);
    if (it == actions_.end()) return false;
    actions_.erase(it);
    --live_;
    return true;
  }

  bool step() {
    while (!queue_.empty()) {
      const Entry entry = queue_.top();
      queue_.pop();
      if (actions_.find(entry.id) == actions_.end()) continue;  // tombstone
      dispatch(entry);
      return true;
    }
    return false;
  }

  void run_until(Instant deadline) {
    while (!queue_.empty()) {
      const Entry entry = queue_.top();
      if (entry.when > deadline) break;
      queue_.pop();
      dispatch(entry);
    }
    if (now_ < deadline) now_ = deadline;
  }

  std::uint64_t dispatched() const { return dispatched_; }
  std::size_t pending() const { return live_; }

 private:
  struct Entry {
    Instant when;
    std::uint64_t seq;  // tie-breaker: FIFO among same-instant events
    EventId id;
    bool operator>(const Entry& o) const {
      if (when != o.when) return when > o.when;
      return seq > o.seq;
    }
  };

  void dispatch(const Entry& entry) {
    const auto it = actions_.find(entry.id);
    if (it == actions_.end()) return;  // cancelled
    Action action = std::move(it->second);
    actions_.erase(it);
    --live_;
    now_ = entry.when;
    ++dispatched_;
    action();
  }

  Instant now_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_id_ = 1;
  std::uint64_t dispatched_ = 0;
  std::size_t live_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> queue_;
  std::unordered_map<EventId, Action> actions_;
};

}  // namespace decos::sim
