#include "collab/session.hpp"

#include <algorithm>
#include <numeric>

#include "collab/event_session.hpp"
#include "collab/session_model.hpp"
#include "common/log.hpp"

namespace qvr::collab
{

void
SessionConfig::validate() const
{
    QVR_REQUIRE(users >= 1, "session needs at least one user");
    QVR_REQUIRE(numFrames >= 1, "session needs at least one frame");
    QVR_REQUIRE(totalChiplets >= 1,
                "session needs at least one chiplet");
    QVR_REQUIRE(chipletsPerRequest >= 1,
                "chiplets per request must be at least one");
    QVR_REQUIRE(chipletsPerRequest <= totalChiplets,
                "a request cannot span more chiplets than the pool");
    QVR_REQUIRE(serverEgress > 0.0, "server egress must be positive");
    QVR_REQUIRE(design == SessionDesign::Static ||
                    design == SessionDesign::Qvr ||
                    design == SessionDesign::Served,
                "unsupported session design");
    if (design == SessionDesign::Served) {
        QVR_REQUIRE(renderDeadline > 0.0,
                    "render deadline must be positive");
        QVR_REQUIRE(shedPeripheryScale > 0.0 &&
                        shedPeripheryScale <= 1.0,
                    "shed periphery scale outside (0, 1]");
        QVR_REQUIRE(serving.shards >= 1,
                    "fleet needs at least one shard");
        serving.admission.validate();
        serving.batching.validate();
    }
    QVR_REQUIRE(engine == SessionEngine::Lockstep ||
                    design == SessionDesign::Served,
                "the event engine only runs the Served design");
    if (openLoop.enabled) {
        QVR_REQUIRE(design == SessionDesign::Served,
                    "open-loop traffic requires the Served design");
        QVR_REQUIRE(engine == SessionEngine::Event,
                    "open-loop traffic requires the event engine");
        QVR_REQUIRE(openLoop.horizon > 0.0,
                    "open-loop horizon must be positive");
        openLoop.arrivals.validate();
        Seconds prev = 0.0;
        for (const FleetScaleEvent &e : openLoop.scaleEvents) {
            QVR_REQUIRE(e.shards >= 1,
                        "scale event needs at least one shard");
            QVR_REQUIRE(e.at >= prev,
                        "scale events must be sorted by time");
            prev = e.at;
        }
    }
    QVR_REQUIRE(!aggregateTelemetry ||
                    engine == SessionEngine::Event,
                "aggregate telemetry requires the event engine");
    // The LIWC SRAM indexing needs motion-bits + 5 = 15 bits, so the
    // override can only deepen the table.
    QVR_REQUIRE(liwcTableDepthLog2 == 0 ||
                    (liwcTableDepthLog2 >= 15 &&
                     liwcTableDepthLog2 <= 20),
                "LIWC table depth override outside [15, 20]");
}

std::vector<std::size_t>
issueOrder(const std::vector<Seconds> &issue)
{
    std::vector<std::size_t> order(issue.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&issue](std::size_t a, std::size_t b) {
                  return issue[a] < issue[b];
              });
    return order;
}

SessionResult
runSession(const SessionConfig &cfg)
{
    cfg.validate();
    if (cfg.engine == SessionEngine::Event)
        return runEventSession(cfg);

    model::SessionSetup su = model::makeSetup(cfg);
    model::Shared &shared = *su.shared;
    std::vector<model::UserState> &users = su.users;
    serve::Fleet *fleet = su.fleet.get();

    // Round-based simulation: each round serves every user's next
    // frame in issue-clock order, keeping the shared timelines
    // time-consistent.  (A deliberate non-feature: priority
    // scheduling at frame granularity was prototyped and REMOVED —
    // in a call-order-FIFO resource model, reordering whole frames
    // distorts causality and punishes everyone; genuine priority
    // needs preemption inside the shared resources.)
    for (std::size_t round = 0; round < cfg.numFrames; round++) {
        std::vector<Seconds> issues(cfg.users);
        for (std::size_t i = 0; i < cfg.users; i++)
            issues[i] = users[i].issue;
        const std::vector<std::size_t> order = issueOrder(issues);

        if (cfg.design == SessionDesign::Served) {
            // Phase A: local work + request creation in issue order
            // (the dispatch order, so submission seq numbers are
            // assigned here); phase B: one fleet scheduling tick over
            // the round's requests (this is what lets EDF/SJF reorder
            // across users and the composer coalesce them); phase C:
            // completion, in the same order.
            std::vector<model::ServedPending> pending;
            pending.reserve(cfg.users);
            std::vector<serve::RenderRequest> reqs;
            reqs.reserve(cfg.users);
            for (std::size_t ui : order) {
                model::UserState &u = users[ui];
                pending.push_back(model::prepareServedFrame(
                    shared, u, ui, u.fetchFrame()));
                pending.back().request.seq = fleet->nextSeq();
                reqs.push_back(pending.back().request);
            }
            const std::vector<serve::ServeOutcome> outcomes =
                fleet->submitTick(reqs);
            for (std::size_t k = 0; k < order.size(); k++) {
                model::UserState &u = users[order[k]];
                model::commitFrame(
                    shared, u,
                    model::finishServedFrame(shared, u, pending[k],
                                             outcomes[k]));
            }
            continue;
        }

        for (std::size_t ui : order) {
            model::UserState &u = users[ui];
            const auto &frame = u.fetchFrame();
            core::FrameStats s =
                cfg.design == SessionDesign::Qvr
                    ? model::simulateQvrFrame(shared, u, ui, frame)
                    : model::simulateStaticFrame(shared, u, frame);
            model::commitFrame(shared, u, s);
        }
    }

    return model::finalise(su);
}

std::size_t
findUserCapacity(SessionConfig cfg, double min_fps, std::size_t limit)
{
    std::size_t best = 0;
    for (std::size_t n = 1; n <= limit; n = (n < 4 ? n + 1 : n + 2)) {
        cfg.users = n;
        const SessionResult r = runSession(cfg);
        if (r.worstUserFps() >= min_fps) {
            best = n;
        } else {
            break;
        }
    }
    return best;
}

}  // namespace qvr::collab
