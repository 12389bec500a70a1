#ifndef RAINBOW_SIM_SIMULATOR_H_
#define RAINBOW_SIM_SIMULATOR_H_

#include <cstdint>

#include "common/types.h"
#include "sim/event_queue.h"

namespace rainbow {

/// Handle to a scheduled timer; allows cancellation. Default-constructed
/// handles are inert: id_ is EventQueue::kInvalidId, which Schedule()
/// never returns (slot 0 skips generation 0), so an inert handle can
/// never alias — and cancel — a real event.
class TimerHandle {
 public:
  TimerHandle() = default;

  bool valid() const { return queue_ != nullptr; }

  /// Cancels the timer if still pending; returns true if it was pending.
  /// Safe to call repeatedly.
  bool Cancel();

 private:
  friend class Simulator;
  TimerHandle(EventQueue* queue, EventQueue::EventId id)
      : queue_(queue), id_(id) {}
  EventQueue* queue_ = nullptr;
  EventQueue::EventId id_ = EventQueue::kInvalidId;
};

/// The discrete-event simulation kernel: a virtual clock plus an event
/// queue. All Rainbow "concurrency" — sites processing many
/// transactions, message delays, protocol timeouts — is expressed as
/// events on one Simulator, which makes whole-system executions
/// deterministic and reproducible.
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time.
  SimTime Now() const { return now_; }

  /// Schedules `fn` to run `delay` from now (delay >= 0). Small
  /// closures are stored inline in the event queue (no allocation);
  /// see EventQueue::kInlineCallbackBytes.
  TimerHandle After(SimTime delay, EventQueue::Callback fn);

  /// Schedules `fn` at absolute virtual time `when` (>= Now()).
  TimerHandle At(SimTime when, EventQueue::Callback fn);

  /// Schedules `fn` at `when` with an explicit ordering key: events
  /// fire in (time, key, insertion sequence) order. The network keys
  /// message deliveries by (sender, per-sender sequence), so same-tick
  /// arrivals order by message identity and same-seed runs produce
  /// byte-identical traces. Key 0 == plain At().
  TimerHandle AtKeyed(SimTime when, uint64_t key, EventQueue::Callback fn);

  /// Runs the next pending event, advancing the clock. Returns false if
  /// no events are pending.
  bool Step();

  /// Runs events until the queue is empty or the clock would pass `t`;
  /// then sets the clock to `t`. The clock lands exactly on `t` in both
  /// exits — queue drained early *and* events remaining strictly after
  /// `t` — so back-to-back RunUntil windows observe contiguous time.
  void RunUntil(SimTime t);

  /// Runs until no events remain. `max_events` guards against livelock
  /// in tests; returns the number of events executed.
  size_t RunToQuiescence(size_t max_events = SIZE_MAX);

  bool idle() const { return queue_.empty(); }
  size_t pending_events() const { return queue_.size(); }
  uint64_t executed_events() const { return executed_; }

 private:
  EventQueue queue_;
  SimTime now_ = 0;
  uint64_t executed_ = 0;
};

}  // namespace rainbow

#endif  // RAINBOW_SIM_SIMULATOR_H_
