/**
 * @file
 * Fleet sharding: N remote-server shards behind a load balancer.
 *
 * One chiplet pool saturates; the ROADMAP's north star does not.
 * The Fleet scales the serving stack horizontally: each shard is its
 * own deadline-aware ChipletScheduler over homogeneous hardware
 * (FleetConfig::server, one request's chiplet share, which clients
 * price their requests on), and a pluggable
 * Balancer (serve/balancer.hpp) maps requests onto shards — JSQ,
 * bounded-load rendezvous, legacy unbounded rendezvous, bounded-load
 * consistent hashing, or power-of-two-choices.
 *
 * The fleet also scales *elastically*: scaleTo(n) grows the shard set
 * with fresh shards or shrinks it by draining — a shrinking shard
 * stops receiving new work immediately but keeps its committed
 * backlog until it runs dry, and only then retires (drain-before-
 * retire).  Affinity balancers re-place only the keys whose shard
 * left, so scale events migrate a deterministic, minimal key set.
 *
 * The fleet is deterministic: no RNG, no wall clock — outcomes are a
 * pure function of the request stream and the scale-event sequence,
 * so sessions replay bit-exact at any worker-thread count.
 */

#ifndef QVR_SERVE_FLEET_HPP
#define QVR_SERVE_FLEET_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "remote/server.hpp"
#include "serve/balancer.hpp"
#include "serve/scheduler.hpp"

namespace qvr::serve
{

/** Whole-fleet description. */
struct FleetConfig
{
    std::uint32_t shards = 1;
    /** Placement policy and its tuning knobs. */
    BalancerConfig balancer;
    /** Per-shard queueing discipline and slot pool. */
    SchedulerConfig scheduler;
    AdmissionConfig admission;
    BatchConfig batching;
    /** Hardware of one request's chiplet share (every shard is
     *  homogeneous; chiplets = chiplets-per-request). */
    remote::ServerConfig server;

    void validate() const;
};

/** Whole-run serving telemetry. */
struct FleetCounters
{
    std::uint64_t submitted = 0;
    std::uint64_t admitted = 0;
    std::uint64_t shed = 0;
    std::uint64_t downgraded = 0;       ///< admitted at rung > 0
    std::uint64_t deadlineMisses = 0;   ///< admitted but late
    std::uint64_t batches = 0;          ///< coalesced dispatches
    std::uint64_t batchedRequests = 0;  ///< members of those
    std::uint64_t scaleEvents = 0;      ///< scaleTo calls that acted
    std::uint64_t retiredShards = 0;    ///< drained and shut down
};

/** N shards behind a deterministic balancer. */
class Fleet
{
  public:
    explicit Fleet(const FleetConfig &cfg);

    const FleetConfig &config() const { return cfg_; }

    /** Next submission sequence number (the FIFO/tie-break key). */
    std::uint64_t nextSeq() { return seq_++; }

    /**
     * Serve one scheduling tick: assign every request to a shard,
     * run each shard's dispatch walk, and return outcomes in input
     * order (ServeOutcome::shard records the placement).  Draining
     * shards whose backlog ran dry before the tick retire first.
     */
    std::vector<ServeOutcome>
    submitTick(const std::vector<RenderRequest> &reqs);

    /**
     * Autoscale to @p n active shards.  Growing appends fresh shards
     * (new ids; retired ids are never reused, so telemetry stays
     * stable).  Shrinking marks the highest-id active shards as
     * draining: they take no new work and retire once their committed
     * backlog drains.  No-op when already at @p n.
     */
    void scaleTo(std::uint32_t n);

    /** Every shard ever created (including draining/retired ones —
     *  ids are stable for telemetry). */
    std::size_t shards() const { return shards_.size(); }
    /** Shards currently accepting new work. */
    std::size_t activeShards() const { return active_.size(); }
    bool shardDraining(std::size_t i) const
    {
        return shards_[i].draining && !shards_[i].retired;
    }
    bool shardRetired(std::size_t i) const
    {
        return shards_[i].retired;
    }

    const FleetCounters &counters() const { return counters_; }

    /** Chiplet-slot busy seconds of shard @p i. */
    Seconds shardBusyTime(std::size_t i) const;
    /** Sum of slot busy seconds across the fleet. */
    Seconds busyTime() const;
    /** Slots per shard (for utilisation accounting). */
    std::size_t slotsPerShard() const;

    /** The shard pure rendezvous hashing maps @p user to over the
     *  active set (exposed for tests). */
    std::uint32_t shardForUser(std::uint32_t user) const;

    /** The shard the configured balancer would pick for @p r if it
     *  arrived now with an otherwise idle tick (exposed so scaling
     *  tests can measure key migration without dispatching). */
    std::uint32_t probePlacement(const RenderRequest &r) const;

  private:
    struct Shard
    {
        ChipletScheduler scheduler;
        bool draining = false;
        bool retired = false;
    };

    /** Placement key: explicit when set, else the user id (keeps the
     *  pre-placement request streams bit-identical). */
    static std::uint64_t placementKey(const RenderRequest &r)
    {
        return r.placement != 0 ? r.placement : r.user;
    }

    void rebuildActive();
    void retireDrained(Seconds at);

    FleetConfig cfg_;
    std::vector<Shard> shards_;
    std::vector<std::uint32_t> active_;  ///< routable ids, ascending
    std::unique_ptr<Balancer> balancer_;
    FleetCounters counters_;
    std::uint64_t seq_ = 0;
};

}  // namespace qvr::serve

#endif  // QVR_SERVE_FLEET_HPP
