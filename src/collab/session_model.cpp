#include "collab/session_model.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/log.hpp"

namespace qvr::collab::model
{

using core::FrameStats;

namespace
{

double
safeInverse(double x)
{
    return x > 0.0 ? 1.0 / x : 0.0;
}

/** Nearest-rank percentile over a sorted sample. */
Seconds
nearestRank(const std::vector<Seconds> &sorted, double q)
{
    const std::size_t n = sorted.size();
    std::size_t i = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n)));
    if (i == 0)
        i = 1;
    if (i > n)
        i = n;
    return sorted[i - 1];
}

}  // namespace

void
UserAggregate::add(const FrameStats &s)
{
    // Mirror of PipelineResult::meanOver: frames before warmupStart
    // are skipped by every mean* helper; accumulation stays in frame
    // order so the double sums round identically.
    if (frames >= warmupStart) {
        sumInterval += s.frameInterval;
        sumMtp += s.mtpLatency;
        sumBytes += static_cast<double>(s.transmittedBytes);
        if (s.meetsFrameRate)
            meetsRate++;
        counted++;
    }
    frames++;

    // SLO counters span ALL frames.
    if (!s.serveAdmitted) {
        shed++;
        return;
    }
    waits.push_back(s.serveQueueWait);
    if (s.degradationLevel > 0)
        downgraded++;
    if (!s.serveDeadlineMet)
        late++;
}

double
UserAggregate::meanFps() const
{
    return safeInverse(
        counted ? sumInterval / static_cast<double>(counted) : 0.0);
}

double
UserAggregate::meanMtp() const
{
    return counted ? sumMtp / static_cast<double>(counted) : 0.0;
}

double
UserAggregate::meanBytes() const
{
    return counted ? sumBytes / static_cast<double>(counted) : 0.0;
}

double
UserAggregate::fpsCompliance() const
{
    return counted ? static_cast<double>(meetsRate) /
                         static_cast<double>(counted)
                   : 0.0;
}

UserSloStats
UserAggregate::slo() const
{
    UserSloStats out;
    out.shedFrames = shed;
    out.downgradedFrames = downgraded;
    if (frames > 0)
        out.deadlineMissRate = static_cast<double>(late) /
                               static_cast<double>(frames);
    if (!waits.empty()) {
        std::vector<Seconds> sorted = waits;
        std::sort(sorted.begin(), sorted.end());
        out.p50QueueWait = nearestRank(sorted, 0.50);
        out.p99QueueWait = nearestRank(sorted, 0.99);
    }
    return out;
}

const scene::FrameWorkload &
UserState::fetchFrame()
{
    nextFrame++;
    return stream->next();
}

Shared::Shared(const SessionConfig &c,
               const core::PipelineConfig &pipeline,
               const remote::ServerConfig &request_cfg)
    : cfg(&c), pc(pipeline), geometry(pc.display(), pc.mar),
      gpuModel(pc.gpuConfig, pc.gpuCost),
      requestServer(request_cfg), codec(pc.codecConfig),
      serverPool(std::max<std::uint32_t>(
          1, c.totalChiplets / c.chipletsPerRequest)),
      egress()
{
}

Seconds
shipAndDecode(Shared &sh, UserState &u, Seconds ready, Bytes bytes,
              double pixels)
{
    const double egress_serialise =
        static_cast<double>(bytes) * 8.0 / sh.cfg->serverEgress;
    const Seconds left_edge = sh.egress.serve(ready, egress_serialise);

    const net::TransferResult xfer = u.channel->transfer(bytes);
    const Seconds serialise =
        xfer.duration - u.channel->config().baseLatency;
    const Seconds sent = u.lastMile.serve(left_edge, serialise);
    const Seconds arrived = sent + u.channel->config().baseLatency;
    return u.decoders.serve(arrived, sh.codec.decodeTime(pixels));
}

FrameStats
simulateStaticFrame(Shared &sh, UserState &u,
                    const scene::FrameWorkload &frame)
{
    const auto &bench = *u.bench;
    FrameStats s;
    s.index = frame.index;
    const Seconds cpu_done = u.cpu.serve(u.issue, sh.pc.controlLogicTime);

    // Local: the interactive objects.
    gpu::RenderJob local;
    local.triangles = frame.interactiveTriangles() * 2;
    double coverage = 0.0;
    for (const auto &b : frame.batches) {
        if (b.interactive)
            coverage += b.screenCoverage;
    }
    coverage = clamp(coverage, 0.01, 0.6);
    local.shadedPixels =
        static_cast<double>(bench.pixelsPerEye()) * 2.0 * coverage;
    local.batches = 8;
    local.shadingCost = bench.shadingCost;
    s.tLocalRender =
        sh.gpuModel.renderSeconds(local) *
        (1.0 + sh.pc.postCosts.contentionInflation);
    const Seconds local_done = u.gpu.serve(cpu_done, s.tLocalRender);

    // Remote: full background + depth, prefetched one frame ahead.
    const double bg_pixels =
        static_cast<double>(bench.pixelsPerEye()) * 2.0;
    gpu::RenderJob bg;
    bg.triangles =
        (frame.totalTriangles() - frame.interactiveTriangles()) * 2;
    bg.shadedPixels = bg_pixels;
    bg.batches = bench.numBatches * 2;
    bg.shadingCost = bench.shadingCost;
    s.tRemoteRender = sh.requestServer.renderSeconds(bg);
    const Seconds render_done = sh.serverPool.serve(
        cpu_done + sh.pc.uplinkLatency, s.tRemoteRender);

    const Bytes bytes = sh.codec.compressedSize(bg_pixels, 1.0, 1.0,
                                                /*with_depth=*/true);
    const Seconds decoded = shipAndDecode(
        sh, u, render_done + 0.3 * sh.codec.encodeTime(bg_pixels),
        bytes, bg_pixels);
    s.transmittedBytes = bytes;
    s.tNetwork = static_cast<double>(bytes) * 8.0 /
                 u.channel->ackThroughput();

    // Prefetch pipelining: this fetch serves the NEXT frame; the
    // current frame composites the previous fetch.
    Seconds bg_ready = cpu_done;
    u.prefetchReady.push_back(decoded);
    if (u.prefetchReady.size() > 1) {
        bg_ready = u.prefetchReady.front();
        u.prefetchReady.erase(u.prefetchReady.begin());
    } else {
        bg_ready = decoded;  // cold start: wait for the first fetch
    }
    s.tRemoteBranch = std::max(0.0, bg_ready - cpu_done);

    s.tComposition = gpu::postprocess::depthCompositionTime(
        sh.gpuModel, bg_pixels, sh.pc.postCosts);
    s.tAtw = gpu::postprocess::atwTime(sh.gpuModel, bg_pixels,
                                       sh.pc.postCosts);
    const Seconds comp_start = std::max(local_done, bg_ready) +
                               0.6 * (s.tComposition + s.tAtw);
    const Seconds done =
        u.gpu.serve(comp_start, s.tComposition + s.tAtw);

    s.displayTime = done + sh.pc.displayLatency;
    s.mtpLatency = sh.pc.sensorLatency + (s.displayTime - u.issue);
    s.gpuBusy = s.tLocalRender + s.tComposition + s.tAtw;
    s.renderedResolutionFraction = 1.0;
    return s;
}

ServedPending
prepareServedFrame(Shared &sh, UserState &u, std::size_t user_index,
                   const scene::FrameWorkload &frame)
{
    const auto &bench = *u.bench;
    ServedPending p;
    FrameStats &s = p.s;
    s.index = frame.index;
    p.cpuDone = u.cpu.serve(u.issue, sh.pc.controlLogicTime);

    p.gaze = Vec2{frame.motionSeen.gaze.x, frame.motionSeen.gaze.y};
    p.decision = u.liwc->selectEccentricity(
        frame.motionDelta, frame.totalTriangles() * 2, p.gaze);
    p.resolved = sh.geometry.resolve(p.decision.e1, p.gaze);
    s.e1 = p.resolved.partition.e1;
    s.e2 = p.resolved.partition.e2;

    const double area =
        sh.geometry.foveaAreaFraction(p.resolved.partition.e1,
                                      p.gaze);
    const double work = std::pow(std::max(1e-9, area),
                                 1.0 / bench.centerConcentration);

    gpu::RenderJob local;
    local.triangles = static_cast<std::uint64_t>(
        static_cast<double>(frame.totalTriangles()) * 2.0 * work);
    local.shadedPixels = p.resolved.pixels.foveaPixels * 2.0;
    local.batches = std::max<std::uint32_t>(
        1,
        static_cast<std::uint32_t>(bench.numBatches * work * 2.0));
    local.shadingCost = bench.shadingCost;
    s.tLocalRender = sh.gpuModel.renderSeconds(local);
    s.localTriangles = local.triangles;
    p.localDone = u.gpu.serve(p.cpuDone, s.tLocalRender);

    p.remoteJob.triangles = static_cast<std::uint64_t>(
        static_cast<double>(frame.totalTriangles()) * 2.0 *
        (1.0 - work));
    p.remoteJob.shadedPixels =
        p.resolved.pixels.peripheryPixels() * 2.0;
    p.remoteJob.batches = bench.numBatches * 2;
    p.remoteJob.shadingCost = bench.shadingCost;
    s.tRemoteRender = sh.requestServer.renderSeconds(p.remoteJob);

    serve::RenderRequest &r = p.request;
    r.user = static_cast<std::uint32_t>(user_index);
    r.placement = u.placement;  // 0: the fleet derives it from user
    r.frame = frame.index;
    r.arrival = p.cpuDone + sh.pc.uplinkLatency;
    r.deadline = r.arrival + sh.cfg->renderDeadline;
    r.service = s.tRemoteRender;
    r.triangles = p.remoteJob.triangles;
    // Scene-profile compatibility class: closed-loop sessions run one
    // benchmark (key 0, all coalescible); open-loop mixes coalesce
    // only within a profile.
    r.batchKey = u.batchKey;
    return p;
}

FrameStats
finishServedFrame(Shared &sh, UserState &u, ServedPending &p,
                  const serve::ServeOutcome &o)
{
    FrameStats &s = p.s;
    s.serveQueueWait = o.queueWait;
    s.serveAdmitted = o.admitted;
    s.serveDeadlineMet = o.deadlineMet;
    s.degradationLevel = o.level;

    Seconds all_decoded = 0.0;
    double periphery_pixels = 0.0;
    if (o.admitted) {
        const Seconds stream_start = o.completion - 0.7 * o.service;
        const double rs2 = o.resolutionScale * o.resolutionScale;
        for (int eye = 0; eye < 2; eye++) {
            for (int layer = 0; layer < 2; layer++) {
                const double pixels =
                    (layer == 0 ? p.resolved.pixels.middlePixels
                                : p.resolved.pixels.outerPixels) *
                    rs2;
                const double factor =
                    layer == 0 ? p.resolved.pixels.middleFactor
                               : p.resolved.pixels.outerFactor;
                const Bytes bytes = sh.codec.compressedSize(
                    pixels, o.qualityFactor, factor);
                const Seconds ready =
                    stream_start + 0.3 * sh.codec.encodeTime(pixels);
                const Seconds decoded =
                    shipAndDecode(sh, u, ready, bytes, pixels);
                all_decoded = std::max(all_decoded, decoded);
                s.transmittedBytes += bytes;
                s.tNetwork += static_cast<double>(bytes) * 8.0 /
                              u.channel->ackThroughput();
                periphery_pixels += pixels;
            }
        }
        s.peripheryQuality = o.qualityFactor;
        s.gpuBusy = s.tLocalRender;
        s.renderedResolutionFraction =
            p.resolved.linearResolution * o.resolutionScale;
    } else {
        const double lp = sh.cfg->shedPeripheryScale;
        gpu::RenderJob fallback = p.remoteJob;
        fallback.triangles = static_cast<std::uint64_t>(
            static_cast<double>(p.remoteJob.triangles) * lp);
        fallback.shadedPixels = p.remoteJob.shadedPixels * lp * lp;
        const Seconds t_fallback =
            sh.gpuModel.renderSeconds(fallback);
        all_decoded = u.gpu.serve(p.localDone, t_fallback);
        s.localFallback = true;
        s.gpuBusy = s.tLocalRender + t_fallback;
        s.renderedResolutionFraction = p.resolved.linearResolution * lp;
    }
    s.tRemoteBranch = std::max(0.0, all_decoded - p.cpuDone);

    const auto &display = sh.geometry.display();
    core::PixelPartition pp;
    const double ppd = display.pixelsPerDegree();
    pp.centerX = display.width / 2.0 + p.gaze.x * ppd;
    pp.centerY = display.height / 2.0 + p.gaze.y * ppd;
    pp.foveaRadius = p.resolved.partition.e1 * ppd;
    pp.middleRadius = p.resolved.partition.e2 * ppd;
    const core::TileCensus tiles =
        u.uca.census(display.width, display.height, pp);
    const core::UcaTimingResult eye0 =
        u.uca.schedule(tiles, p.localDone, all_decoded);
    const core::UcaTimingResult eye1 =
        u.uca.schedule(tiles, p.localDone, all_decoded);
    const Seconds done = std::max(eye0.done, eye1.done);
    s.tComposition = (eye0.busy + eye1.busy) / 2.0;

    s.displayTime = done + sh.pc.displayLatency;
    s.mtpLatency = sh.pc.sensorLatency + (s.displayTime - u.issue);

    if (o.admitted) {
        // Shed frames carry no remote measurement, so the LIWC
        // controller only learns from admitted ones.
        core::LiwcFeedback fb;
        fb.measuredLocal = s.tLocalRender;
        fb.measuredRemote = s.tRemoteBranch;
        fb.renderedTriangles = s.localTriangles;
        fb.peripheryPixels = periphery_pixels;
        fb.peripheryBytes = s.transmittedBytes;
        fb.ackThroughput = u.channel->ackThroughput();
        u.liwc->update(p.decision, fb);
    }
    return s;
}

FrameStats
simulateQvrFrame(Shared &sh, UserState &u, std::size_t user_index,
                 const scene::FrameWorkload &frame)
{
    ServedPending p = prepareServedFrame(sh, u, user_index, frame);
    serve::ServeOutcome o;  // admitted at rung 0, never queued
    o.service = p.request.service;
    o.completion = sh.serverPool.serve(p.request.arrival, o.service);
    return finishServedFrame(sh, u, p, o);
}

void
commitFrame(Shared &sh, UserState &u, FrameStats s)
{
    s.frameInterval = u.hasLastDisplay ? s.displayTime - u.lastDisplay
                                       : s.displayTime;
    u.lastDisplay = s.displayTime;
    u.hasLastDisplay = true;
    s.meetsFrameRate =
        s.frameInterval <= vr_requirements::kFrameBudget + 1e-9;
    s.meetsMtp =
        s.mtpLatency <= vr_requirements::kMaxMotionToPhoton + 1e-9;
    u.agg.add(s);
    if (!sh.cfg->aggregateTelemetry)
        u.result.frames.push_back(s);

    u.issue = std::max({u.issue + 0.2e-3, u.gpu.nextFree(),
                        u.lastMile.nextFree(), sh.egress.nextFree()});
}

void
initUser(const SessionConfig &cfg, SessionSetup &su, UserState &u,
         const std::string &benchmark, std::uint64_t workload_seed,
         std::uint64_t channel_seed, std::uint64_t channel_stream,
         std::size_t num_frames)
{
    const auto &bench = scene::findBenchmark(benchmark);
    const Shared &sh = *su.shared;
    u.bench = &bench;
    u.totalFrames = num_frames;

    core::ExperimentSpec user_spec;
    user_spec.benchmark = benchmark;
    user_spec.channel = cfg.lastMile;
    user_spec.numFrames = num_frames;
    user_spec.seed = workload_seed;
    u.stream = std::make_unique<core::WorkloadStream>(user_spec);
    u.channel = std::make_unique<net::Channel>(
        cfg.lastMile, Rng(channel_seed, channel_stream));
    if (cfg.design != SessionDesign::Static) {
        const double pixels_per_tri =
            static_cast<double>(bench.pixelsPerEye()) /
            static_cast<double>(bench.meanTriangles);
        u.liwc = std::make_unique<core::Liwc>(
            sh.pc.liwcConfig, sh.geometry,
            sh.gpuModel.triangleThroughput(bench.shadingCost,
                                           pixels_per_tri),
            cfg.lastMile.nominalDownlink *
                cfg.lastMile.protocolEfficiency,
            sh.pc.codecConfig.baseBitsPerPixel, 5.0,
            bench.centerConcentration);
    }
    u.agg.warmupStart = num_frames > u.result.warmupFrames
                            ? u.result.warmupFrames
                            : 0;
    u.result.design =
        cfg.design == SessionDesign::Qvr      ? "Q-VR"
        : cfg.design == SessionDesign::Served ? "Served"
                                              : "Static";
    u.result.benchmark = benchmark;
}

SessionSetup
makeSetup(const SessionConfig &cfg)
{
    SessionSetup su;

    core::ExperimentSpec spec;
    spec.benchmark = cfg.benchmark;
    spec.channel = cfg.lastMile;
    spec.numFrames = cfg.numFrames;
    core::PipelineConfig pc = spec.toConfig();
    if (cfg.liwcTableDepthLog2 != 0)
        pc.liwcConfig.tableDepthLog2 = cfg.liwcTableDepthLog2;

    remote::ServerConfig request_cfg = remote::ServerConfig{};
    request_cfg.chiplets = cfg.chipletsPerRequest;

    // Served: stand up the serving stack.  Slot count 0 derives
    // equal hardware from the session's chiplet fields, split across
    // the shards; every shard's per-request hardware share matches
    // the bare pool's so designs compare at identical silicon, and
    // phase A prices requests on the shards' own server config.
    if (cfg.design == SessionDesign::Served) {
        serve::FleetConfig fc = cfg.serving;
        fc.server.chiplets = cfg.chipletsPerRequest;
        fc.batching.syncOverhead = fc.server.syncOverhead;
        if (fc.scheduler.slots == 0) {
            const std::uint32_t pool_slots = std::max<std::uint32_t>(
                1, cfg.totalChiplets / cfg.chipletsPerRequest);
            fc.scheduler.slots =
                std::max<std::uint32_t>(1, pool_slots / fc.shards);
        }
        su.fleet = std::make_unique<serve::Fleet>(fc);
        request_cfg = fc.server;
    }
    su.shared = std::make_unique<Shared>(cfg, pc, request_cfg);

    // Open loop: the population is the arrival process's to decide —
    // the engine calls initUser at each connect.
    if (cfg.openLoop.enabled)
        return su;

    su.users.resize(cfg.users);
    for (std::size_t i = 0; i < cfg.users; i++) {
        initUser(cfg, su, su.users[i], cfg.benchmark,
                 cfg.seed + i * 101, cfg.seed + i, 0xbeef + i,
                 cfg.numFrames);
    }
    return su;
}

SessionResult
finalise(SessionSetup &su)
{
    const SessionConfig &cfg = *su.shared->cfg;
    SessionResult result;
    result.config = cfg;
    SessionAggregate &a = result.aggregate;
    a.enabled = cfg.aggregateTelemetry;
    a.users = su.users.size();
    a.framesPerUser = cfg.numFrames;

    // Users fold in index order, so the across-user sums round
    // exactly as sums over SessionResult::perUser do.
    Seconds horizon = 0.0;
    double sum_fps = 0.0, sum_mtp = 0.0, sum_comp = 0.0;
    a.worstUserFps = std::numeric_limits<double>::infinity();
    std::vector<Seconds> waits;
    std::uint64_t late = 0, total_frames = 0;
    for (auto &u : su.users) {
        horizon = std::max(horizon, u.lastDisplay);
        const double fps = u.agg.meanFps();
        sum_fps += fps;
        a.worstUserFps = std::min(a.worstUserFps, fps);
        sum_mtp += u.agg.meanMtp();
        sum_comp += u.agg.fpsCompliance();
        a.bytesPerFrame += u.agg.meanBytes();
        a.shedFrames += u.agg.shed;
        a.downgradedFrames += u.agg.downgraded;
        late += u.agg.late;
        total_frames += u.agg.frames;
        waits.insert(waits.end(), u.agg.waits.begin(),
                     u.agg.waits.end());
        if (!cfg.aggregateTelemetry) {
            if (su.fleet)
                result.perUserSlo.push_back(u.agg.slo());
            result.perUser.push_back(std::move(u.result));
        }
    }
    a.horizon = horizon;
    const double n = static_cast<double>(su.users.size());
    if (su.users.empty()) {
        a.worstUserFps = 0.0;
    } else {
        a.meanFps = sum_fps / n;
        a.meanMtp = sum_mtp / n;
        a.fpsCompliance = sum_comp / n;
    }
    if (total_frames > 0)
        a.deadlineMissRate = static_cast<double>(late) /
                             static_cast<double>(total_frames);
    if (!waits.empty()) {
        std::sort(waits.begin(), waits.end());
        a.p50QueueWait = nearestRank(waits, 0.50);
        a.p99QueueWait = nearestRank(waits, 0.99);
    }

    if (horizon > 0.0) {
        result.egressUtilisation =
            su.shared->egress.busyTime() / horizon;
        result.serverUtilisation =
            su.shared->serverPool.busyTime() /
            (horizon *
             static_cast<double>(su.shared->serverPool.servers()));
    }
    if (su.fleet) {
        result.serveCounters = su.fleet->counters();
        const double slots =
            static_cast<double>(su.fleet->slotsPerShard());
        result.shardUtilisation.assign(su.fleet->shards(), 0.0);
        if (horizon > 0.0) {
            for (std::size_t s = 0; s < su.fleet->shards(); s++)
                result.shardUtilisation[s] =
                    su.fleet->shardBusyTime(s) / (horizon * slots);
            result.serverUtilisation =
                su.fleet->busyTime() /
                (horizon * slots *
                 static_cast<double>(su.fleet->shards()));
        }
    }
    return result;
}

}  // namespace qvr::collab::model
