/**
 * @file
 * Session timing layer ("core_simulate"): the per-frame models every
 * session engine shares.
 *
 * Every Q-VR frame, whoever arbitrates the shared chiplets, runs in
 * three phases, and every frame of every design ends in one fold:
 *
 *  - UserState / Shared: everything one user owns privately (its
 *    workload stream, SoC timelines, link, LIWC and telemetry), and
 *    the shared infrastructure and models all users contend on,
 *    including the PipelineConfig whose stage latencies every design
 *    pays;
 *  - phase A, prepareServedFrame: sense, local render and the render
 *    request for the periphery;
 *  - phase B, the chiplet arbitration: one Fleet::submitTick over a
 *    round's requests (Served), or a call-order grab of
 *    Shared::serverPool admitted at rung 0 (Qvr, simulateQvrFrame);
 *  - phase C, finishServedFrame: streaming or on-device fallback,
 *    composition and LIWC feedback;
 *  - simulateStaticFrame: the Static design's whole frame;
 *  - commitFrame: the bookkeeping tail, which folds every frame into
 *    its user's UserAggregate and also stores it unless the session
 *    runs with aggregateTelemetry;
 *  - makeSetup / initUser / finalise: setup and result assembly.
 *
 * Engines ("core_system") own *when* these run: the lockstep engine
 * loops rounds directly; the event engine schedules them as events on
 * sim::EventQueue.  Policies stay in qvr::serve.  Keeping the three
 * layers separable is what lets the lockstep path act as a bit-exact
 * oracle for the event-driven one (DESIGN.md section 10).
 *
 * Internal header: everything here is an implementation detail of
 * qvr::collab; the stable surface is session.hpp.
 */

#ifndef QVR_COLLAB_SESSION_MODEL_HPP
#define QVR_COLLAB_SESSION_MODEL_HPP

#include <memory>
#include <vector>

#include "collab/session.hpp"
#include "core/workload_stream.hpp"

namespace qvr::collab::model
{

/**
 * Per-user telemetry fold: the running sums PipelineResult's
 * aggregate helpers would compute from the stored frames, accumulated
 * in frame order so the finalised numbers are bit-identical to them
 * — without the O(frames) per-user storage.
 */
struct UserAggregate
{
    /** First frame the mean* helpers count (warm-up skip). */
    std::size_t warmupStart = 0;

    std::uint64_t frames = 0;
    double sumInterval = 0.0;    ///< post-warmup
    double sumMtp = 0.0;         ///< post-warmup
    double sumBytes = 0.0;       ///< post-warmup
    std::uint64_t counted = 0;   ///< post-warmup frame count
    std::uint64_t meetsRate = 0; ///< post-warmup 90 Hz frames

    /** SLO counters over ALL frames. */
    std::uint64_t shed = 0;
    std::uint64_t downgraded = 0;
    std::uint64_t late = 0;
    /** Queue waits of admitted requests (fleet-level percentiles). */
    std::vector<Seconds> waits;

    void add(const core::FrameStats &s);

    double meanFps() const;
    double meanMtp() const;
    double meanBytes() const;
    double fpsCompliance() const;
    /** Nearest-rank queue-wait percentiles and SLO rates. */
    UserSloStats slo() const;
};

/** Everything one user owns privately. */
struct UserState
{
    /** The user's frames, generated lazily: O(1) memory per user. */
    std::unique_ptr<core::WorkloadStream> stream;

    std::unique_ptr<core::Liwc> liwc;       // Qvr/Served designs
    sim::BusyResource cpu;
    sim::BusyResource gpu;
    sim::BusyResource lastMile;
    sim::MultiServerResource decoders{2};
    std::unique_ptr<net::Channel> channel;
    core::UcaTimingModel uca;
    /** Scene profile this user renders (closed loop: the session
     *  benchmark; open loop: drawn from the arrival mix). */
    const scene::BenchmarkInfo *bench = nullptr;
    /** Affinity key for the hash balancers; 0 derives from the user
     *  index, roam events re-key it. */
    std::uint64_t placement = 0;
    /** Batching compatibility class (the scene profile index — only
     *  same-profile requests may coalesce). */
    std::uint32_t batchKey = 0;
    /** Frames this user plays before disconnecting (closed loop:
     *  cfg.numFrames; open loop: the arrival's session length). */
    std::size_t totalFrames = 0;
    Seconds issue = 0.0;
    Seconds lastDisplay = 0.0;
    bool hasLastDisplay = false;
    std::size_t nextFrame = 0;
    /** Static design: completion times of in-flight prefetches. */
    std::vector<Seconds> prefetchReady;

    /** Per-frame telemetry (no frames under aggregateTelemetry). */
    core::PipelineResult result;
    /** Every committed frame, folded. */
    UserAggregate agg;

    /** The next frame's workload; advances nextFrame.  Returns a
     *  reference valid until the following call. */
    const scene::FrameWorkload &fetchFrame();
};

/** Shared infrastructure + immutable models. */
struct Shared
{
    const SessionConfig *cfg;
    /** Models and stage latencies of the session's benchmark. */
    core::PipelineConfig pc;
    /** Also the session's one partition cache: every user's LIWC
     *  and phase A resolve through it. */
    foveation::LayerGeometry geometry;
    gpu::MobileGpuModel gpuModel;
    remote::RemoteServer requestServer;  // one request's chiplet share
    net::VideoCodec codec;
    sim::MultiServerResource serverPool;
    sim::BusyResource egress;

    Shared(const SessionConfig &c, const core::PipelineConfig &pipeline,
           const remote::ServerConfig &request_cfg);
};

/** Ship one payload: shared egress, then the user's last mile. */
Seconds shipAndDecode(Shared &sh, UserState &u, Seconds ready,
                      Bytes bytes, double pixels);

/** Per-user state carried from a frame's phase A (local work and
 *  request creation) to phase C (completion). */
struct ServedPending
{
    core::FrameStats s;
    Vec2 gaze;
    foveation::LayerGeometry::Resolved resolved;
    core::LiwcDecision decision;
    gpu::RenderJob remoteJob;
    serve::RenderRequest request;
    Seconds cpuDone = 0.0;
    Seconds localDone = 0.0;
};

/**
 * Phase A: everything up to and including the render request, priced
 * on Shared::requestServer (one request's chiplet share).  Touches
 * only @p u's private state plus const shared models, so engines may
 * run different users' phase A in any order.  The request's seq is
 * NOT assigned here: the engine assigns it in round dispatch order
 * (the lockstep and event engines must hand the fleet identical seq
 * numbers).
 */
ServedPending prepareServedFrame(Shared &sh, UserState &u,
                                 std::size_t user_index,
                                 const scene::FrameWorkload &frame);

/**
 * Phase C: turn the chiplet arbitration's outcome into photons.
 * Admitted requests stream their (possibly downgraded) layers from
 * the dispatch times; shed requests render the periphery on-device
 * at shedPeripheryScale — the degradation ladder's LocalOnly cost
 * model — serialised after the fovea on the same mobile GPU.
 * Mutates the SHARED egress timeline: engines must run a round's
 * phase Cs in issue order.
 */
core::FrameStats finishServedFrame(Shared &sh, UserState &u,
                                   ServedPending &p,
                                   const serve::ServeOutcome &o);

/** The Qvr design's frame: phases A and C around a call-order grab of
 *  the shared chiplet pool, admitted at rung 0 with no queue wait. */
core::FrameStats simulateQvrFrame(Shared &sh, UserState &u,
                                  std::size_t user_index,
                                  const scene::FrameWorkload &frame);

core::FrameStats simulateStaticFrame(Shared &sh, UserState &u,
                                     const scene::FrameWorkload &frame);

/** Per-frame bookkeeping tail every design runs: interval, SLO
 *  flags, issue clock, then the telemetry fold. */
void commitFrame(Shared &sh, UserState &u, core::FrameStats s);

/** Everything an engine needs to run a session. */
struct SessionSetup
{
    std::unique_ptr<Shared> shared;
    /** Null unless design == Served. */
    std::unique_ptr<serve::Fleet> fleet;
    std::vector<UserState> users;
};

/**
 * Initialise one user's private state in place: seeded workload
 * stream, channel, LIWC, telemetry.  Closed-loop setup calls it with
 * the historical seed derivations (workload seed cfg.seed + i*101,
 * channel Rng(cfg.seed + i, 0xbeef + i)); the open-loop engine calls
 * it at connect time with the arrival's seed and scene profile.
 */
void initUser(const SessionConfig &cfg, SessionSetup &su, UserState &u,
              const std::string &benchmark,
              std::uint64_t workload_seed, std::uint64_t channel_seed,
              std::uint64_t channel_stream, std::size_t num_frames);

/**
 * Build the shared infrastructure, fleet (Served only; slot count 0
 * derives equal hardware from the session's chiplet fields) and
 * per-user states.  @p cfg must outlive the returned setup.
 * Open-loop sessions start with zero users — the engine materialises
 * them from the arrival process.
 */
SessionSetup makeSetup(const SessionConfig &cfg);

/**
 * Result assembly shared by every engine: horizon, utilisations,
 * serving counters and the summary in SessionResult::aggregate; with
 * per-frame telemetry also the per-user results and SLO summaries.
 * Consumes the users' results.
 */
SessionResult finalise(SessionSetup &su);

}  // namespace qvr::collab::model

#endif  // QVR_COLLAB_SESSION_MODEL_HPP
