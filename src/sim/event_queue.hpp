/**
 * @file
 * Discrete-event simulation kernel.
 *
 * Q-VR's pipeline is a set of concurrently operating units (mobile
 * GPU, UCA, LIWC, network streams, remote chiplets, sensors) whose
 * overlap determines the end-to-end latency.  Each pipeline model
 * drives an EventQueue: components schedule callbacks at absolute
 * simulated times and the kernel dispatches them in (time, priority,
 * insertion-order) order, exactly like gem5's event queue but in
 * seconds rather than ticks.
 */

#ifndef QVR_SIM_EVENT_QUEUE_HPP
#define QVR_SIM_EVENT_QUEUE_HPP

#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

#include "common/types.hpp"

namespace qvr::sim
{

/** Dispatch priority for events scheduled at the same instant;
 *  lower value runs first. */
using Priority = std::int32_t;

constexpr Priority kDefaultPriority = 0;

/** Opaque handle used to cancel a pending event. */
using EventId = std::uint64_t;

/**
 * Time-ordered event queue.  Not thread-safe by design: one queue per
 * simulated experiment, driven from a single thread.
 */
class EventQueue
{
  public:
    EventQueue() = default;

    /** Current simulated time; advances only inside run(). */
    Seconds now() const { return now_; }

    /**
     * Schedule @p fn at absolute time @p when (>= now()).
     * @return id usable with deschedule().
     */
    EventId schedule(Seconds when, std::function<void()> fn,
                     Priority prio = kDefaultPriority);

    /** Schedule @p fn at now() + @p delay. */
    EventId scheduleAfter(Seconds delay, std::function<void()> fn,
                          Priority prio = kDefaultPriority);

    /**
     * Cancel a pending event.  @return false if the id is unknown,
     * already cancelled, or — crucially — already fired: a fired id
     * is no longer pending, so cancelling it must not perturb the
     * pending count (this was a corruption bug; see the regression
     * tests).
     */
    bool deschedule(EventId id);

    /** Run until the queue drains. @return final simulated time. */
    Seconds run();

    /** Run until the queue drains or time would pass @p limit. */
    Seconds runUntil(Seconds limit);

    /** Pending (non-cancelled, non-fired) event count. */
    std::size_t pending() const { return live_.size(); }

    bool empty() const { return live_.empty(); }

    /** Total number of events dispatched since construction. */
    std::uint64_t dispatched() const { return dispatched_; }

  private:
    struct Record
    {
        Seconds when;
        Priority prio;
        EventId id;
        std::function<void()> fn;
    };

    struct Later
    {
        bool
        operator()(const Record &a, const Record &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            if (a.prio != b.prio)
                return a.prio > b.prio;
            return a.id > b.id;  // insertion order ties
        }
    };

    void popCancelled();

    /** Binary heap under Later (std::push_heap / std::pop_heap), so
     *  runUntil can move the next record out instead of copying. */
    std::vector<Record> heap_;
    /** Scheduled ids that have neither fired nor been cancelled.
     *  Hash sets keep deschedule()/popCancelled() O(1) — million-
     *  event fleet sweeps cannot afford the linear scan these were
     *  before. */
    std::unordered_set<EventId> live_;
    /** Cancelled ids whose records are still parked in the heap. */
    std::unordered_set<EventId> cancelled_;
    Seconds now_ = 0.0;
    EventId nextId_ = 1;
    std::uint64_t dispatched_ = 0;
};

}  // namespace qvr::sim

#endif  // QVR_SIM_EVENT_QUEUE_HPP
