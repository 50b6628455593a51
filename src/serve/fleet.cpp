#include "serve/fleet.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace qvr::serve
{

void
FleetConfig::validate() const
{
    QVR_REQUIRE(shards >= 1, "fleet needs at least one shard");
    balancer.validate();
    scheduler.validate();
    admission.validate();
    batching.validate();
    server.validate();
}

Fleet::Fleet(const FleetConfig &cfg) : cfg_(cfg)
{
    cfg.validate();
    shards_.reserve(cfg.shards);
    for (std::uint32_t i = 0; i < cfg.shards; i++) {
        shards_.push_back(Shard{
            ChipletScheduler(cfg.scheduler, cfg.admission,
                             cfg.batching),
            false, false});
    }
    balancer_ = makeBalancer(cfg.balancer);
    rebuildActive();
}

void
Fleet::rebuildActive()
{
    active_.clear();
    for (std::uint32_t i = 0;
         i < static_cast<std::uint32_t>(shards_.size()); i++) {
        if (!shards_[i].draining && !shards_[i].retired)
            active_.push_back(i);
    }
    QVR_REQUIRE(!active_.empty(), "fleet has no active shard");
    balancer_->rebuild(active_);
}

void
Fleet::scaleTo(std::uint32_t n)
{
    QVR_REQUIRE(n >= 1, "fleet needs at least one shard");
    if (n == active_.size())
        return;
    counters_.scaleEvents++;
    if (n > active_.size()) {
        // Grow: append fresh shards.  Draining shards keep draining —
        // reviving a half-drained queue would make placement depend
        // on drain progress, which scale replay must not.
        const std::size_t add = n - active_.size();
        for (std::size_t i = 0; i < add; i++) {
            shards_.push_back(Shard{
                ChipletScheduler(cfg_.scheduler, cfg_.admission,
                                 cfg_.batching),
                false, false});
        }
    } else {
        // Shrink: drain the highest-id active shards.  They stop
        // taking new work now and retire once their backlog runs dry.
        std::size_t drop = active_.size() - n;
        for (std::size_t i = active_.size(); drop > 0 && i > 0;
             i--, drop--) {
            shards_[active_[i - 1]].draining = true;
        }
    }
    rebuildActive();
}

void
Fleet::retireDrained(Seconds at)
{
    bool changed = false;
    for (Shard &s : shards_) {
        if (s.draining && !s.retired &&
            s.scheduler.backlog(at) <= 0.0) {
            s.retired = true;
            counters_.retiredShards++;
            changed = true;
        }
    }
    // Retiring does not change the routable set (draining shards were
    // already excluded), so no rebuild is needed; @p changed only
    // gates the counter bookkeeping above.
    (void)changed;
}

std::uint32_t
Fleet::shardForUser(std::uint32_t user) const
{
    // Rendezvous hashing over the active set: every (user, shard)
    // pair gets a stable weight; the user goes to the highest.
    // Adding or removing a shard only moves the users whose maximum
    // moved.
    std::uint32_t best = active_.front();
    std::uint64_t best_weight = 0;
    for (std::size_t i = 0; i < active_.size(); i++) {
        const std::uint32_t s = active_[i];
        const std::uint64_t w = placementMix(
            (static_cast<std::uint64_t>(user) << 32) | s);
        if (i == 0 || w > best_weight) {
            best = s;
            best_weight = w;
        }
    }
    return best;
}

std::uint32_t
Fleet::probePlacement(const RenderRequest &r) const
{
    RenderRequest keyed = r;
    keyed.placement = placementKey(r);
    std::vector<Seconds> committed(shards_.size(), 0.0);
    std::vector<Seconds> pending(shards_.size(), 0.0);
    for (const std::uint32_t s : active_)
        committed[s] = shards_[s].scheduler.backlog(r.arrival);
    const ShardLoadView view{&committed, &pending, &active_};
    return balancer_->pick(keyed, view);
}

std::vector<ServeOutcome>
Fleet::submitTick(const std::vector<RenderRequest> &reqs)
{
    if (!reqs.empty())
        retireDrained(reqs.front().arrival);

    const std::size_t n_shards = shards_.size();
    std::vector<std::vector<RenderRequest>> per(n_shards);
    std::vector<std::vector<std::size_t>> origin(n_shards);
    std::vector<Seconds> pending(n_shards, 0.0);
    std::vector<Seconds> committed(n_shards, 0.0);
    const ShardLoadView view{&committed, &pending, &active_};

    for (std::size_t i = 0; i < reqs.size(); i++) {
        RenderRequest r = reqs[i];
        r.placement = placementKey(r);
        // Predicted load = committed slot work still pending at this
        // request's arrival plus what this tick already assigned.
        for (const std::uint32_t s : active_)
            committed[s] = shards_[s].scheduler.backlog(r.arrival);
        const std::uint32_t s = balancer_->pick(r, view);
        per[s].push_back(reqs[i]);
        origin[s].push_back(i);
        pending[s] += r.service;
    }

    std::vector<ServeOutcome> out(reqs.size());
    for (std::size_t s = 0; s < n_shards; s++) {
        if (per[s].empty())
            continue;
        const TickReport rep =
            shards_[s].scheduler.scheduleTick(per[s]);
        counters_.batches += rep.batches;
        counters_.batchedRequests += rep.batchedRequests;
        for (std::size_t j = 0; j < per[s].size(); j++) {
            ServeOutcome o = rep.outcomes[j];
            o.shard = static_cast<std::uint32_t>(s);
            out[origin[s][j]] = o;
        }
    }

    counters_.submitted += reqs.size();
    for (const ServeOutcome &o : out) {
        if (!o.admitted) {
            counters_.shed++;
            continue;
        }
        counters_.admitted++;
        if (o.level > 0)
            counters_.downgraded++;
        if (!o.deadlineMet)
            counters_.deadlineMisses++;
    }
    return out;
}

Seconds
Fleet::shardBusyTime(std::size_t i) const
{
    return shards_[i].scheduler.busyTime();
}

Seconds
Fleet::busyTime() const
{
    Seconds sum = 0.0;
    for (const Shard &s : shards_)
        sum += s.scheduler.busyTime();
    return sum;
}

std::size_t
Fleet::slotsPerShard() const
{
    return shards_.front().scheduler.slots();
}

}  // namespace qvr::serve
