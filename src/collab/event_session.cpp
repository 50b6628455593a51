#include "collab/event_session.hpp"

#include <algorithm>
#include <vector>

#include "collab/session_model.hpp"
#include "common/log.hpp"
#include "sim/event_queue.hpp"

namespace qvr::collab
{

namespace
{

/**
 * Stage priorities at an equal timestamp: a round's dispatch barrier
 * runs before completions, completions before the next round's
 * issues.  Within one priority the kernel's seq tie-break preserves
 * scheduling order, which the engine exploits to complete a round's
 * users in issue order (the shared egress timeline is call-order
 * FIFO, so this order is semantic, not cosmetic).
 */
constexpr sim::Priority kDispatch = 0;
constexpr sim::Priority kComplete = 1;
constexpr sim::Priority kIssue = 2;

/**
 * Open-loop stage priorities.  There is no fixed cohort, so the round
 * barrier generalises to a *flush*: at one timestamp, connects fire
 * first (new users join), then every issue at that instant, then one
 * flush dispatches the accumulated cohort to the fleet, then
 * completions.  Time ordering dominates, so issues at later instants
 * can never join an earlier cohort.
 */
constexpr sim::Priority kOpenConnect = 0;
constexpr sim::Priority kOpenIssue = 1;
constexpr sim::Priority kOpenFlush = 2;
constexpr sim::Priority kOpenComplete = 3;

/** One Served session run as per-user state machines on the event
 *  kernel.  See event_session.hpp for the equivalence contract. */
class EventEngine
{
  public:
    explicit EventEngine(const SessionConfig &cfg)
        : cfg_(cfg),
          setup_(model::makeSetup(cfg)),
          pending_(cfg.users), arrivedIssue_(cfg.users)
    {
        QVR_REQUIRE(setup_.fleet != nullptr,
                    "event engine requires the Served design");
    }

    SessionResult run()
    {
        // Sense stage: every user's first issue event at its issue
        // clock (all zero at t = 0; the kernel's seq tie-break makes
        // the firing order user-index order, which is immaterial —
        // phase A touches only private state).
        for (std::size_t ui = 0; ui < setup_.users.size(); ui++)
            scheduleIssue(ui);
        queue_.run();
        QVR_REQUIRE(round_ == cfg_.numFrames,
                    "event session drained early: round ", round_,
                    " of ", cfg_.numFrames);
        return model::finalise(setup_);
    }

  private:
    void scheduleIssue(std::size_t ui)
    {
        // A user's issue clock can lag the round barrier (its
        // resources freed early); the clamp only moves the EVENT
        // time, not the model time — phase A reads u.issue from
        // state, so the computed frame is unchanged.
        model::UserState &u = setup_.users[ui];
        queue_.schedule(std::max(u.issue, queue_.now()),
                        [this, ui] { onIssue(ui); }, kIssue);
    }

    void onIssue(std::size_t ui)
    {
        model::UserState &u = setup_.users[ui];
        arrivedIssue_[ui] = u.issue;
        pending_[ui] = model::prepareServedFrame(*setup_.shared, u, ui,
                                                 u.fetchFrame());
        arrived_++;
        if (arrived_ == setup_.users.size()) {
            // Round cohort complete: dispatch barrier at this
            // instant, ahead of any equal-time issue events.
            queue_.schedule(queue_.now(), [this] { onDispatch(); },
                            kDispatch);
        }
    }

    void onDispatch()
    {
        // Phase B: submission seq numbers, the request batch and the
        // fleet tick all in issue order — the exact inputs the
        // lockstep engine hands the serving stack.
        const std::vector<std::size_t> order =
            issueOrder(arrivedIssue_);
        std::vector<serve::RenderRequest> reqs;
        reqs.reserve(order.size());
        for (std::size_t ui : order) {
            pending_[ui].request.seq = setup_.fleet->nextSeq();
            reqs.push_back(pending_[ui].request);
        }
        const std::vector<serve::ServeOutcome> outcomes =
            setup_.fleet->submitTick(reqs);

        // Phase C as events: equal time and priority, scheduled in
        // issue order, so the kernel's seq tie-break fires them in
        // issue order.
        for (std::size_t k = 0; k < order.size(); k++) {
            const std::size_t ui = order[k];
            const serve::ServeOutcome o = outcomes[k];
            queue_.schedule(queue_.now(),
                            [this, ui, o] { onComplete(ui, o); },
                            kComplete);
        }
        arrived_ = 0;
        round_++;
    }

    void onComplete(std::size_t ui, const serve::ServeOutcome &o)
    {
        model::UserState &u = setup_.users[ui];
        model::commitFrame(
            *setup_.shared, u,
            model::finishServedFrame(*setup_.shared, u, pending_[ui],
                                     o));
        if (u.nextFrame < cfg_.numFrames)
            scheduleIssue(ui);
    }

    const SessionConfig &cfg_;
    model::SessionSetup setup_;
    sim::EventQueue queue_;

    /** Round collector, indexed by user. */
    std::vector<model::ServedPending> pending_;
    std::vector<Seconds> arrivedIssue_;
    std::size_t arrived_ = 0;
    std::size_t round_ = 0;
};

/**
 * Arrival-driven Served session: users connect when the arrival
 * process says so, play a session of their own length, and
 * disconnect.  Same timing models, same flush-cohort dispatch
 * discipline as the closed-loop event engine — the population is just
 * dynamic.  Deterministic: arrivals are materialised up front from
 * the seeded process, roam gaps come from per-user split RNG streams,
 * and the kernel's (time, priority, seq) tie-break orders everything
 * else.
 */
class OpenLoopEngine
{
  public:
    explicit OpenLoopEngine(const SessionConfig &cfg)
        : cfg_(cfg),
          setup_(model::makeSetup(cfg)),
          arrivals_(core::generateArrivals(cfg.openLoop.arrivals,
                                           cfg.openLoop.horizon))
    {
        QVR_REQUIRE(setup_.fleet != nullptr,
                    "open-loop traffic requires the Served design");
        setup_.users.reserve(arrivals_.size());
        pending_.reserve(arrivals_.size());
        roamRng_.reserve(arrivals_.size());
        departed_.reserve(arrivals_.size());
    }

    SessionResult run()
    {
        for (std::size_t ai = 0; ai < arrivals_.size(); ai++)
            queue_.schedule(arrivals_[ai].connect,
                            [this, ai] { onConnect(ai); },
                            kOpenConnect);
        queue_.run();
        QVR_REQUIRE(active_ == 0,
                    "open-loop session did not drain: ", active_,
                    " users still connected");

        SessionResult result = model::finalise(setup_);
        result.openLoop.enabled = true;
        result.openLoop.arrivals = setup_.users.size();
        result.openLoop.departures = departures_;
        result.openLoop.roams = roams_;
        result.openLoop.peakActiveUsers = peak_;
        if (lastPop_ > 0.0)
            result.openLoop.meanActiveUsers = popIntegral_ / lastPop_;
        return result;
    }

  private:
    /** Advance the population time-integral to @p t. */
    void accountPopulation(Seconds t)
    {
        popIntegral_ +=
            static_cast<double>(active_) * (t - lastPop_);
        lastPop_ = t;
    }

    void onConnect(std::size_t ai)
    {
        const core::UserArrival &a = arrivals_[ai];
        accountPopulation(queue_.now());
        active_++;
        peak_ = std::max(peak_, active_);

        const std::size_t ui = setup_.users.size();
        setup_.users.emplace_back();
        pending_.emplace_back();
        departed_.push_back(0);
        model::UserState &u = setup_.users.back();

        const auto &mix = cfg_.openLoop.arrivals.mix;
        const std::string &benchmark =
            mix.empty() ? cfg_.benchmark : mix[a.profile].benchmark;
        model::initUser(cfg_, setup_, u, benchmark,
                        /*workload_seed=*/a.seed,
                        /*channel_seed=*/a.seed,
                        /*channel_stream=*/0xbeef, a.frames);
        u.batchKey =
            mix.empty() ? 0 : static_cast<std::uint32_t>(a.profile);
        u.issue = a.connect;

        roamRng_.emplace_back(a.seed, 0xa777);
        if (cfg_.openLoop.arrivals.roamRate > 0.0)
            scheduleRoam(ui);
        scheduleIssue(ui);
    }

    void scheduleIssue(std::size_t ui)
    {
        model::UserState &u = setup_.users[ui];
        queue_.schedule(std::max(u.issue, queue_.now()),
                        [this, ui] { onIssue(ui); }, kOpenIssue);
    }

    void onIssue(std::size_t ui)
    {
        model::UserState &u = setup_.users[ui];
        pending_[ui] = model::prepareServedFrame(*setup_.shared, u, ui,
                                                 u.fetchFrame());
        cohort_.emplace_back(u.issue, ui);
        if (!flushArmed_) {
            flushArmed_ = true;
            queue_.schedule(queue_.now(), [this] { onFlush(); },
                            kOpenFlush);
        }
    }

    void onFlush()
    {
        flushArmed_ = false;

        // Scheduled autoscaling takes effect at dispatch boundaries:
        // the shard set is fixed within one fleet tick.
        const auto &scale = cfg_.openLoop.scaleEvents;
        while (scaleIdx_ < scale.size() &&
               scale[scaleIdx_].at <= queue_.now()) {
            setup_.fleet->scaleTo(scale[scaleIdx_].shards);
            scaleIdx_++;
        }

        // Dispatch the cohort in (issue clock, user index) order — a
        // total order, so the schedule is byte-identical regardless
        // of arrival interleaving.
        std::sort(cohort_.begin(), cohort_.end());
        std::vector<serve::RenderRequest> reqs;
        reqs.reserve(cohort_.size());
        for (const auto &[issue, ui] : cohort_) {
            (void)issue;
            pending_[ui].request.seq = setup_.fleet->nextSeq();
            reqs.push_back(pending_[ui].request);
        }
        const std::vector<serve::ServeOutcome> outcomes =
            setup_.fleet->submitTick(reqs);
        for (std::size_t k = 0; k < cohort_.size(); k++) {
            const std::size_t ui = cohort_[k].second;
            const serve::ServeOutcome o = outcomes[k];
            queue_.schedule(queue_.now(),
                            [this, ui, o] { onComplete(ui, o); },
                            kOpenComplete);
        }
        cohort_.clear();
    }

    void onComplete(std::size_t ui, const serve::ServeOutcome &o)
    {
        model::UserState &u = setup_.users[ui];
        model::commitFrame(
            *setup_.shared, u,
            model::finishServedFrame(*setup_.shared, u, pending_[ui],
                                     o));
        if (u.nextFrame < u.totalFrames) {
            scheduleIssue(ui);
        } else {
            departed_[ui] = 1;
            accountPopulation(queue_.now());
            active_--;
            departures_++;
        }
    }

    void scheduleRoam(std::size_t ui)
    {
        const Seconds gap = roamRng_[ui].exponential(
            cfg_.openLoop.arrivals.roamRate);
        queue_.schedule(queue_.now() + gap,
                        [this, ui] { onRoam(ui); }, kOpenConnect);
    }

    void onRoam(std::size_t ui)
    {
        if (departed_[ui])
            return;
        model::UserState &u = setup_.users[ui];
        // Re-key the placement hash: affinity balancers migrate the
        // user to a fresh shard preference, deterministically.
        u.placement = serve::placementMix(
            u.placement != 0
                ? u.placement
                : static_cast<std::uint64_t>(ui) +
                      0x51ed2701a3c5e9bfull);
        roams_++;
        scheduleRoam(ui);
    }

    const SessionConfig &cfg_;
    model::SessionSetup setup_;
    sim::EventQueue queue_;
    std::vector<core::UserArrival> arrivals_;

    /** Per-user round state, indexed like setup_.users. */
    std::vector<model::ServedPending> pending_;
    std::vector<Rng> roamRng_;
    std::vector<char> departed_;

    /** Issues accumulated since the last flush: (issue clock, ui). */
    std::vector<std::pair<Seconds, std::size_t>> cohort_;
    bool flushArmed_ = false;
    std::size_t scaleIdx_ = 0;

    std::size_t active_ = 0;
    std::size_t peak_ = 0;
    std::uint64_t departures_ = 0;
    std::uint64_t roams_ = 0;
    double popIntegral_ = 0.0;
    Seconds lastPop_ = 0.0;
};

}  // namespace

SessionResult
runEventSession(const SessionConfig &cfg)
{
    cfg.validate();
    QVR_REQUIRE(cfg.engine == SessionEngine::Event,
                "runEventSession called with the lockstep engine");
    if (cfg.openLoop.enabled)
        return OpenLoopEngine(cfg).run();
    return EventEngine(cfg).run();
}

}  // namespace qvr::collab
