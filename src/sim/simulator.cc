#include "sim/simulator.h"

#include <cassert>

namespace rainbow {

bool TimerHandle::Cancel() {
  if (queue_ == nullptr) return false;
  bool cancelled = queue_->Cancel(id_);
  queue_ = nullptr;
  return cancelled;
}

TimerHandle Simulator::After(SimTime delay, EventQueue::Callback fn) {
  assert(delay >= 0);
  return At(now_ + delay, std::move(fn));
}

TimerHandle Simulator::At(SimTime when, EventQueue::Callback fn) {
  return AtKeyed(when, 0, std::move(fn));
}

TimerHandle Simulator::AtKeyed(SimTime when, uint64_t key,
                               EventQueue::Callback fn) {
  assert(when >= now_);
  EventQueue::EventId id = queue_.Schedule(when, key, std::move(fn));
  return TimerHandle(&queue_, id);
}

bool Simulator::Step() {
  if (queue_.empty()) return false;
  EventQueue::Fired fired = queue_.PopNext();
  assert(fired.time >= now_);
  now_ = fired.time;
  ++executed_;
  fired.cb();
  return true;
}

void Simulator::RunUntil(SimTime t) {
  while (!queue_.empty() && queue_.NextTime() <= t) {
    Step();
  }
  if (now_ < t) now_ = t;
}

size_t Simulator::RunToQuiescence(size_t max_events) {
  size_t n = 0;
  while (n < max_events && Step()) {
    ++n;
  }
  return n;
}

}  // namespace rainbow
