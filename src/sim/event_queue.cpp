#include "sim/event_queue.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace qvr::sim
{

EventId
EventQueue::schedule(Seconds when, std::function<void()> fn, Priority prio)
{
    QVR_REQUIRE(when >= now_, "scheduling into the past: ", when,
                " < ", now_);
    QVR_REQUIRE(static_cast<bool>(fn), "scheduling empty callback");
    const EventId id = nextId_++;
    heap_.push_back(Record{when, prio, id, std::move(fn)});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    live_.insert(id);
    return id;
}

EventId
EventQueue::scheduleAfter(Seconds delay, std::function<void()> fn,
                          Priority prio)
{
    QVR_REQUIRE(delay >= 0.0, "negative delay: ", delay);
    return schedule(now_ + delay, std::move(fn), prio);
}

bool
EventQueue::deschedule(EventId id)
{
    // Only a live (scheduled, unfired, uncancelled) id may be
    // cancelled.  Fired and double-cancelled ids fall out here, so
    // neither can corrupt pending() or leak into cancelled_.
    if (live_.erase(id) == 0)
        return false;
    cancelled_.insert(id);
    return true;
}

void
EventQueue::popCancelled()
{
    while (!heap_.empty() && cancelled_.erase(heap_.front().id) > 0) {
        std::pop_heap(heap_.begin(), heap_.end(), Later{});
        heap_.pop_back();
    }
}

Seconds
EventQueue::run()
{
    return runUntil(kNoDeadline);
}

Seconds
EventQueue::runUntil(Seconds limit)
{
    for (;;) {
        popCancelled();
        if (heap_.empty())
            break;
        if (heap_.front().when > limit) {
            now_ = limit;
            return now_;
        }
        // Move the record out before dispatch: the callback may
        // schedule new events and reshape the heap.
        std::pop_heap(heap_.begin(), heap_.end(), Later{});
        Record rec = std::move(heap_.back());
        heap_.pop_back();
        live_.erase(rec.id);
        now_ = rec.when;
        dispatched_++;
        rec.fn();
    }
    return now_;
}

}  // namespace qvr::sim
