/**
 * @file
 * Multi-user collaborative VR sessions.
 *
 * The paper frames Q-VR as the building block for planet-scale
 * *collaborative* VR: many headsets sharing one edge server.  This
 * module models that deployment — N users, each with their own
 * mobile SoC, LIWC instance and last-mile link, all contending for a
 * shared chiplet pool on the render server and a shared egress pipe.
 *
 * The experiment it enables (bench_multiuser_scaling) is the
 * Firefly/Coterie-style question the paper cites as related work:
 * how many users can one edge server sustain at 90 Hz?  Q-VR's
 * per-user transmitted-data reduction translates directly into user
 * capacity; the static design saturates the egress pipe almost
 * immediately.
 *
 * SessionDesign::Served swaps the bare call-order chiplet pool for
 * the qvr::serve stack (deadline-aware scheduling, admission
 * control, cross-user batching, fleet sharding) — the serving-policy
 * question bench_fleet_capacity sweeps.
 */

#ifndef QVR_COLLAB_SESSION_HPP
#define QVR_COLLAB_SESSION_HPP

#include <string>
#include <vector>

#include "core/arrivals.hpp"
#include "core/pipeline.hpp"
#include "core/qvr_system.hpp"
#include "serve/fleet.hpp"

namespace qvr::collab
{

/** How each user's frames are partitioned. */
enum class SessionDesign
{
    Static,  ///< interactive-local / background-remote, prefetched
    Qvr,     ///< collaborative foveated with LIWC + UCA
    Served,  ///< Qvr with the qvr::serve edge-serving stack
};

/**
 * How the session is executed.  Both engines run the same timing
 * models (collab/session_model.hpp) and produce bit-identical
 * results; they differ in orchestration and memory footprint.
 */
enum class SessionEngine
{
    /** Round loop over every user's next frame — the original
     *  engine, kept as the bit-exact oracle. */
    Lockstep,
    /** Per-user state machines (sense → issue → dispatch → complete →
     *  compose) scheduled on sim::EventQueue with the deterministic
     *  (time, priority, seq) tie-break.  Served design only. */
    Event,
};


/** A scheduled fleet-resize during an open-loop run. */
struct FleetScaleEvent
{
    Seconds at = 0.0;          ///< simulated time of the resize
    std::uint32_t shards = 1;  ///< target active shard count
};

/**
 * Open-loop traffic: instead of a fixed closed-loop cohort issuing
 * frames back to back, users connect when the arrival process says
 * so, play a session of their own length, and disconnect.  The
 * arrival horizon caps admissions, not sessions — users connected
 * before the horizon play out in full, so the fleet always drains.
 * Requires the Served design on the event engine.
 */
struct OpenLoopConfig
{
    bool enabled = false;
    /** Who connects, and when (Poisson/MMPP/diurnal/mix). */
    core::ArrivalConfig arrivals;
    /** Admit arrivals with connect < horizon (seconds). */
    Seconds horizon = 10.0;
    /** Autoscaling schedule, applied at dispatch time in order (must
     *  be sorted by FleetScaleEvent::at). */
    std::vector<FleetScaleEvent> scaleEvents;
};

/** Population telemetry of an open-loop run. */
struct OpenLoopStats
{
    bool enabled = false;
    std::uint64_t arrivals = 0;    ///< users that connected
    std::uint64_t departures = 0;  ///< users that finished
    std::uint64_t roams = 0;       ///< placement re-keys
    /** Time-weighted mean of the connected-user count (the per-epoch
     *  population integral over the run). */
    double meanActiveUsers = 0.0;
    std::size_t peakActiveUsers = 0;
};

/** Shared-infrastructure session description. */
struct SessionConfig
{
    std::size_t users = 4;
    std::string benchmark = "HL2-H";
    SessionDesign design = SessionDesign::Qvr;

    /** Per-user last-mile link (each user gets an independent
     *  instance with its own noise stream). */
    net::ChannelConfig lastMile = net::ChannelConfig::wifi();

    /** Shared edge-server egress capacity. */
    BitsPerSecond serverEgress = fromMbps(1000.0);

    /** Shared chiplet pool: total chiplets and how many one render
     *  request occupies (pool/chipletsPerRequest concurrent jobs). */
    std::uint32_t totalChiplets = 16;
    std::uint32_t chipletsPerRequest = 2;

    std::size_t numFrames = 300;
    std::uint64_t seed = 1;

    /** Serving stack used by SessionDesign::Served.  A scheduler
     *  slot count of 0 derives pool/chipletsPerRequest/shards from
     *  the chiplet fields above (equal hardware at any shard
     *  count). */
    serve::FleetConfig serving;

    /** Served: render-completion deadline, measured from a request's
     *  arrival at the server — finishing later leaves too little of
     *  the MTP budget for shipping, decode and composition. */
    Seconds renderDeadline = 6e-3;

    /** Served: linear resolution of the on-device periphery when a
     *  request is shed (the degradation ladder's LocalOnly scale). */
    double shedPeripheryScale = 0.25;

    /** Execution engine (Event requires design == Served). */
    SessionEngine engine = SessionEngine::Lockstep;

    /** Open-loop traffic (off: the classic closed-loop cohort of
     *  `users` users x `numFrames` frames).  When enabled, `users`
     *  and `numFrames` are ignored — the arrival process decides the
     *  population and per-user session lengths. */
    OpenLoopConfig openLoop;

    /**
     * Event engine only: keep only the per-user running sums, not
     * every FrameStats, shrinking a 10k-user sweep's result from
     * gigabytes to kilobytes.  SessionResult::perUser and perUserSlo
     * stay empty; the summary accessors read SessionResult::aggregate
     * either way.
     */
    bool aggregateTelemetry = false;

    /**
     * Override of LiwcConfig::tableDepthLog2 (0 = keep the model's
     * default of 15, i.e. 64 KB of fp16 per user).  The motion-tag
     * indexing needs 15 bits, so only deepening is legal ([15, 20]);
     * 64 KB/user is also the dominant per-user memory cost of a
     * fleet sweep — 10k users ≈ 640 MB of simulated SRAM.
     */
    std::uint32_t liwcTableDepthLog2 = 0;

    /** Panic on impossible values (runSession calls this). */
    void validate() const;
};

/** Per-user serving SLO summary (Served design only). */
struct UserSloStats
{
    /** Median queue wait of admitted requests (seconds). */
    Seconds p50QueueWait = 0.0;
    /** 99th-percentile queue wait of admitted requests (seconds). */
    Seconds p99QueueWait = 0.0;
    /** Admitted-but-late requests over all frames (zero whenever
     *  admission control is enabled — its contract). */
    double deadlineMissRate = 0.0;
    /** Frames whose periphery request was shed. */
    std::uint64_t shedFrames = 0;
    /** Frames admitted at a reduced quality rung. */
    std::uint64_t downgradedFrames = 0;
};

/**
 * Session summary, folded from every committed frame.  Every number
 * equals what PipelineResult's helpers compute from the per-user
 * frames — accumulated in frame order with the same warm-up skip, so
 * the equality is bitwise.
 */
struct SessionAggregate
{
    /** True when the per-user frames were dropped
     *  (SessionConfig::aggregateTelemetry). */
    bool enabled = false;
    std::size_t users = 0;
    std::size_t framesPerUser = 0;

    double meanFps = 0.0;
    double worstUserFps = 0.0;
    double meanMtp = 0.0;
    double fpsCompliance = 0.0;
    double bytesPerFrame = 0.0;

    /** Simulated-time horizon of the run (latest display across
     *  users, seconds) — turns the serve counters into rates, which
     *  is what the capacity model in bench_fleet_capacity --large
     *  calibrates against. */
    Seconds horizon = 0.0;

    /** Fleet-wide nearest-rank percentiles over every admitted
     *  request's queue wait (pooled across users). */
    Seconds p50QueueWait = 0.0;
    Seconds p99QueueWait = 0.0;
    double deadlineMissRate = 0.0;
    std::uint64_t shedFrames = 0;
    std::uint64_t downgradedFrames = 0;
};

/** Aggregate outcome of a session. */
struct SessionResult
{
    SessionConfig config;
    std::vector<core::PipelineResult> perUser;

    /** Summary of every user's frames (filled in both modes). */
    SessionAggregate aggregate;

    /** Across-user mean of per-user mean FPS. */
    double meanFps() const { return aggregate.meanFps; }
    /** Slowest user's mean FPS (the fairness-critical number). */
    double worstUserFps() const { return aggregate.worstUserFps; }
    /** Across-user mean MTP (seconds). */
    double meanMtp() const { return aggregate.meanMtp; }
    /** Across-user mean of the per-user fraction of frames meeting
     *  90 Hz. */
    double fpsCompliance() const { return aggregate.fpsCompliance; }
    /** Total downlink bytes per frame across users. */
    double aggregateBytesPerFrame() const
    {
        return aggregate.bytesPerFrame;
    }
    /** Shared-egress utilisation over the run. */
    double egressUtilisation = 0.0;
    /** Shared chiplet-pool utilisation over the run. */
    double serverUtilisation = 0.0;

    /** Population telemetry (enabled only for open-loop runs). */
    OpenLoopStats openLoop;

    /** Serving telemetry (all zero unless design == Served). */
    serve::FleetCounters serveCounters;
    /** Per-shard chiplet-slot utilisation over the run. */
    std::vector<double> shardUtilisation;
    /** Per-user SLO summaries, indexed like perUser. */
    std::vector<UserSloStats> perUserSlo;
};

/**
 * Round scheduling order: user indices sorted by issue clock with
 * std::sort and `<` on Seconds — the exact comparator runSession has
 * always used, exposed so tests can pin it (strict weak ordering,
 * byte-identical schedule across repeated runs).
 */
std::vector<std::size_t> issueOrder(const std::vector<Seconds> &issue);

/** Run a session end to end (deterministic in config.seed). */
SessionResult runSession(const SessionConfig &cfg);

/**
 * Capacity search: largest user count in [1, limit] for which the
 * slowest user still averages at least @p min_fps.
 */
std::size_t findUserCapacity(SessionConfig cfg, double min_fps,
                             std::size_t limit = 32);

}  // namespace qvr::collab

#endif  // QVR_COLLAB_SESSION_HPP
