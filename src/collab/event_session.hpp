/**
 * @file
 * Event-driven session engine.
 *
 * Each user is a state machine — sense → issue request → queue /
 * dispatch on a shard → complete → compose — whose stages run as
 * events on sim::EventQueue under the deterministic (time, priority,
 * seq) tie-break discipline.  Workloads stream frame by frame
 * (core::WorkloadStream) and telemetry can keep only its fold
 * instead of every frame, so memory is O(users): the engine sweeps
 * 10,000+ simulated users per shard.
 *
 * Equivalence contract: the serving policies (EDF, admission,
 * batching) are defined over round cohorts and the shared egress
 * timeline is call-order FIFO, so the engine schedules dispatch as a
 * barrier event that fires when the round's last request has been
 * issued, hands the fleet the identical request batch in the
 * identical issue order, and completes users in that same order.
 * The result is bit-identical to the lockstep engine at EVERY user
 * count — the lockstep path stays alive as the oracle, pinned by
 * tests/integration/test_event_crosscheck.cpp (DESIGN.md §10).
 *
 * Internal header: callers go through runSession(), which dispatches
 * on SessionConfig::engine.
 */

#ifndef QVR_COLLAB_EVENT_SESSION_HPP
#define QVR_COLLAB_EVENT_SESSION_HPP

#include "collab/session.hpp"

namespace qvr::collab
{

/** Run a Served-design session on the discrete-event kernel.
 *  Requires cfg.engine == SessionEngine::Event. */
SessionResult runEventSession(const SessionConfig &cfg);

}  // namespace qvr::collab

#endif  // QVR_COLLAB_EVENT_SESSION_HPP
