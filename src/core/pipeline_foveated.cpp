#include "core/pipeline_foveated.hpp"

#include <algorithm>
#include <cmath>

#include "common/log.hpp"

namespace qvr::core
{

FoveatedPolicy
FoveatedPolicy::ffr()
{
    FoveatedPolicy p;
    p.eccentricity = EccentricityPolicy::Fixed;
    p.composition = CompositionPath::GpuKernels;
    return p;
}

FoveatedPolicy
FoveatedPolicy::dfr()
{
    FoveatedPolicy p;
    p.eccentricity = EccentricityPolicy::Liwc;
    p.composition = CompositionPath::GpuKernels;
    return p;
}

FoveatedPolicy
FoveatedPolicy::swQvr()
{
    FoveatedPolicy p;
    p.eccentricity = EccentricityPolicy::SoftwareHistory;
    p.composition = CompositionPath::GpuKernels;
    return p;
}

FoveatedPolicy
FoveatedPolicy::qvr()
{
    FoveatedPolicy p;
    p.eccentricity = EccentricityPolicy::Liwc;
    p.composition = CompositionPath::Uca;
    // Fill in dropped frames from the previous layers once the
    // remote path slips past two frame budgets.
    p.reprojectionDeadline = 2.0 * vr_requirements::kFrameBudget;
    return p;
}

FoveatedPolicy
FoveatedPolicy::qvrCompressed()
{
    FoveatedPolicy p = qvr();
    p.compressedLayout = true;
    return p;
}

FoveatedPolicy
FoveatedPolicy::resilient()
{
    FoveatedPolicy p = qvr();
    p.adaptiveQuality = true;
    p.degradation.enabled = true;
    return p;
}

FoveatedPipeline::FoveatedPipeline(const PipelineConfig &cfg,
                                   const FoveatedPolicy &policy)
    : Pipeline(cfg), policy_(policy), uca_(cfg.ucaConfig),
      e1_(geometry_.clampE1(policy.eccentricity ==
                                    EccentricityPolicy::Fixed
                                ? policy.fixedE1
                                : policy.initialE1))
{
    if (policy_.eccentricity == EccentricityPolicy::Liwc) {
        const double pixels_per_tri =
            static_cast<double>(cfg.benchmark.pixelsPerEye()) /
            static_cast<double>(cfg.benchmark.meanTriangles);
        const double gpu_rate =
            gpuModel_.triangleThroughput(cfg.benchmark.shadingCost,
                                         pixels_per_tri) *
            cfg.gpuFrequencyScale;
        liwc_.emplace(cfg.liwcConfig, geometry_, gpu_rate,
                      cfg.channelConfig.nominalDownlink *
                          cfg.channelConfig.protocolEfficiency,
                      cfg.codecConfig.baseBitsPerPixel,
                      policy_.initialE1,
                      cfg.benchmark.centerConcentration);
    }
    if (policy_.degradation.enabled)
        degradation_.emplace(policy_.degradation);
}

std::string
FoveatedPipeline::name() const
{
    const bool uca_on = policy_.composition == CompositionPath::Uca;
    switch (policy_.eccentricity) {
      case EccentricityPolicy::Fixed:
        return uca_on ? "FFR+UCA" : "FFR";
      case EccentricityPolicy::Liwc:
        if (uca_on) {
            if (policy_.degradation.enabled)
                return "Q-VR-R";
            return policy_.compressedLayout ? "Q-VR+CL" : "Q-VR";
        }
        return "DFR";
      case EccentricityPolicy::SoftwareHistory:
        return uca_on ? "SW-QVR+UCA" : "SW-QVR";
    }
    return "Foveated";
}

double
FoveatedPipeline::chooseE1(const scene::FrameWorkload &frame, Vec2 gaze,
                           LiwcDecision &decision_out)
{
    switch (policy_.eccentricity) {
      case EccentricityPolicy::Fixed:
        return geometry_.clampE1(policy_.fixedE1);

      case EccentricityPolicy::Liwc:
        decision_out = liwc_->selectEccentricity(
            frame.motionDelta, frame.totalTriangles() * 2, gaze);
        return decision_out.e1;

      case EccentricityPolicy::SoftwareHistory: {
        // The software loop only sees measurements swDelayFrames old
        // (it must wait for rendering to complete and results to be
        // read back, Fig. 4-(b)).
        if (history_.size() >= policy_.swDelayFrames) {
            const auto &[t_local, t_remote] =
                history_[history_.size() - policy_.swDelayFrames];
            const double gap_ms = toMs(t_remote - t_local);
            // Proportional step, quantised to the software tuning
            // granularity and clamped to one step per frame.
            double step = clamp(gap_ms * 0.5, -1.0, 1.0) *
                          policy_.swStepDeg;
            if (std::abs(step) < 0.1)
                step = 0.0;
            e1_ = geometry_.clampE1(e1_ + step);
        }
        return e1_;
      }
    }
    QVR_PANIC("unhandled eccentricity policy");
}

FrameStats
FoveatedPipeline::simulateFrame(const scene::FrameWorkload &frame,
                                Seconds issue_time)
{
    FrameStats s;

    // Degradation decision for this frame (identity when disabled:
    // level 0, factors 1.0, no local fallback).  Probe frames inside
    // LocalOnly come out with localOnly=false and take the normal
    // remote path; a failed probe just reprojects.
    DegradationDecision deg;
    if (degradation_)
        deg = degradation_->decide();
    const bool local_fallback = deg.localOnly;
    s.degradationLevel = deg.level;
    s.localFallback = local_fallback;

    Seconds control = cfg().controlLogicTime;
    if (policy_.eccentricity == EccentricityPolicy::SoftwareHistory)
        control += policy_.swControlOverhead;
    const Seconds cpu_done = cpu_.serve(issue_time, control);

    const Vec2 gaze{frame.motionSeen.gaze.x, frame.motionSeen.gaze.y};
    LiwcDecision decision;
    double e1 = chooseE1(frame, gaze, decision);
    if (degradation_ && deg.clampLocalWork) {
        // Under fault pressure the ladder sheds remote latency by
        // cutting periphery bitrate; cap the fovea so LIWC cannot
        // chase the faulty link by ballooning local work past the
        // mobile GPU's budget (the two controllers must not fight),
        // and pin LIWC's internal setpoint to the clamp so recovery
        // ramps up from here rather than down from a runaway value.
        e1 = std::min(e1, geometry_.clampE1(policy_.initialE1));
        if (liwc_)
            liwc_->overrideE1(e1);
    }
    const auto &resolved = geometry_.resolve(e1, gaze);
    s.e1 = resolved.partition.e1;
    s.e2 = resolved.partition.e2;

    const double fovea_work =
        foveaWorkloadFraction(resolved.partition.e1, gaze);

    // Native-pixel partition of this frame, shared by the UCA pass
    // below and the compressed frame layout.
    const auto &display = geometry_.display();
    const double ppd = display.pixelsPerDegree();
    PixelPartition pp;
    pp.centerX = display.width / 2.0 + gaze.x * ppd;
    pp.centerY = display.height / 2.0 + gaze.y * ppd;
    pp.foveaRadius = resolved.partition.e1 * ppd;
    pp.middleRadius = resolved.partition.e2 * ppd;

    // ---- Local branch: full-resolution fovea on the mobile GPU. ---
    gpu::RenderJob local;
    local.triangles = static_cast<std::uint64_t>(
        static_cast<double>(frame.totalTriangles()) * 2.0 *
        fovea_work);
    local.shadedPixels = resolved.pixels.foveaPixels * 2.0;
    local.batches = std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(
               cfg().benchmark.numBatches * fovea_work * 2.0));
    local.shadingCost = cfg().benchmark.shadingCost;
    local.frequencyScale = cfg().gpuFrequencyScale;
    s.tLocalRender = gpuModel_.renderSeconds(local);
    if (policy_.composition == CompositionPath::GpuKernels) {
        // Composition/ATW preempt rendering on the shader cores
        // (Fig. 4-(c)); UCA eliminates this inflation.
        s.tLocalRender *=
            1.0 + cfg().postCosts.contentionInflation;
    }
    s.localTriangles = local.triangles;
    const Seconds local_done = gpu_.serve(cpu_done, s.tLocalRender);

    // When the downlink is so backed up that this frame's layers
    // could never arrive inside the reprojection deadline, skip the
    // fetch entirely: the client keeps displaying from the resident
    // (stale) layers and lets the link drain.
    const bool skip_fetch =
        !local_fallback && policy_.reprojectionDeadline > 0.0 &&
        havePrevLayers_ &&
        stream_.linkNextFree() >
            issue_time + policy_.reprojectionDeadline;

    // ---- Remote branch: periphery layers on the server, streamed
    //      as one stream per layer per eye (Section 3.2).  In the
    //      LocalOnly fallback the whole branch is skipped and the
    //      periphery renders on-device below. ----------------------
    const double complexity = clamp(
        static_cast<double>(frame.totalTriangles()) /
            static_cast<double>(cfg().benchmark.meanTriangles),
        0.7, 1.4);

    // ABR ladder: linear-resolution downgrade of the streamed
    // periphery (pixel counts scale quadratically).  Guarded so the
    // level-0 path multiplies by nothing and stays bit-exact.
    double res_area = 1.0;
    if (deg.resolutionScale != 1.0)
        res_area = deg.resolutionScale * deg.resolutionScale;

    // Encoder-aligned compressed frame layout, derived per frame
    // from the resolved partition.  The ABR resolution downgrade
    // folds into the layout's subsample factors (coarser transported
    // buffers) instead of the analytic res_area multiplier, so the
    // degraded frame is still a legal, aligned layout.
    const bool compressed = policy_.compressedLayout;
    foveation::CompressedFrameLayout layout;
    if (compressed && !local_fallback) {
        foveation::CompressedLayoutParams lp;
        lp.centerX = pp.centerX;
        lp.centerY = pp.centerY;
        lp.foveaRadius = pp.foveaRadius;
        lp.middleRadius = pp.middleRadius;
        lp.blendBand = pp.blendBand;
        lp.sMiddle =
            resolved.pixels.middleFactor / deg.resolutionScale;
        lp.sOuter = resolved.pixels.outerFactor / deg.resolutionScale;
        lp.frameWidth = display.width;
        lp.frameHeight = display.height;
        layout = foveation::makeCompressedLayout(lp);
    }

    net::StreamResult streamed;
    double periphery_pixels_stereo = 0.0;
    if (!local_fallback) {
        gpu::RenderJob remote_job;
        remote_job.triangles = static_cast<std::uint64_t>(
            static_cast<double>(frame.totalTriangles()) * 2.0 *
            (1.0 - fovea_work));
        remote_job.shadedPixels =
            resolved.pixels.peripheryPixels() * 2.0;
        if (res_area != 1.0)
            remote_job.shadedPixels *= res_area;
        remote_job.batches = cfg().benchmark.numBatches * 2;
        remote_job.shadingCost = cfg().benchmark.shadingCost;
        s.tRemoteRender =
            compressed
                ? server_.renderPeriphery(remote_job, layout,
                                          cpu_done +
                                              cfg().uplinkLatency)
                : server_.renderSeconds(
                      remote_job, cpu_done + cfg().uplinkLatency);

        if (!skip_fetch) {
            const Seconds render_done = serverBusy_.serve(
                cpu_done + cfg().uplinkLatency, s.tRemoteRender);

            // Section 2.3/3.2: remote rendering, encoding and
            // transmission are chunk-pipelined within the frame —
            // streaming starts once the first slices of a layer are
            // rendered, so only a fraction of the render time sits
            // ahead of the transfer.
            const Seconds stream_start =
                render_done - 0.7 * s.tRemoteRender;

            std::vector<net::LayerPayload> payloads;
            double quality =
                policy_.adaptiveQuality ? peripheryQuality_ : 1.0;
            if (deg.qualityFactor != 1.0)
                quality *= deg.qualityFactor;
            // Compressed layout: payloads are the actual transported
            // buffers (tagged with their aligned dimensions, which
            // streamFrame verifies); the codec sees the buffer's
            // effective per-dimension subsample factor.  Legacy
            // path: analytic annulus pixel counts, untagged.
            auto layerPayload = [&](const foveation::CompressedLayer
                                        &cl,
                                    double analytic_pixels,
                                    double analytic_factor) {
                net::LayerPayload pl;
                if (compressed) {
                    pl.pixels = cl.pixels();
                    pl.bufWidth = cl.bufWidth;
                    pl.bufHeight = cl.bufHeight;
                    pl.compressed = codec_.compressedSize(
                        pl.pixels, complexity * quality,
                        std::sqrt(cl.map.scaleX * cl.map.scaleY));
                } else {
                    pl.pixels = analytic_pixels;
                    if (res_area != 1.0)
                        pl.pixels *= res_area;
                    pl.compressed = codec_.compressedSize(
                        pl.pixels, complexity * quality,
                        analytic_factor);
                }
                pl.renderReady = stream_start +
                                 0.3 * codec_.encodeTime(pl.pixels);
                return pl;
            };
            for (int eye = 0; eye < 2; eye++) {
                const net::LayerPayload middle = layerPayload(
                    layout.middle, resolved.pixels.middlePixels,
                    resolved.pixels.middleFactor);
                payloads.push_back(middle);

                periphery_pixels_stereo += middle.pixels;
                if (deg.dropOuterLayer)
                    continue;  // deepest rung: UCA extrapolates the
                               // outer ring from the middle layer
                const net::LayerPayload outer = layerPayload(
                    layout.outer, resolved.pixels.outerPixels,
                    resolved.pixels.outerFactor);
                payloads.push_back(outer);

                periphery_pixels_stereo += outer.pixels;
            }
            streamed = stream_.streamFrame(std::move(payloads));
            s.tDecode =
                codec_.decodeTime(periphery_pixels_stereo / 2.0);
        }
    }

    // ---- LocalOnly fallback: the collaborative split collapses and
    //      the periphery renders on-device at a fraction of native
    //      resolution (coarser LOD cuts geometry too). -------------
    Seconds local_periphery_done = 0.0;
    Seconds t_local_periphery = 0.0;
    if (local_fallback) {
        const double lp = policy_.degradation.localPeripheryScale;
        gpu::RenderJob fallback_job;
        fallback_job.triangles = static_cast<std::uint64_t>(
            static_cast<double>(frame.totalTriangles()) * 2.0 *
            (1.0 - fovea_work) * lp);
        fallback_job.shadedPixels =
            resolved.pixels.peripheryPixels() * 2.0 * lp * lp;
        fallback_job.batches = cfg().benchmark.numBatches;
        fallback_job.shadingCost = cfg().benchmark.shadingCost;
        fallback_job.frequencyScale = cfg().gpuFrequencyScale;
        t_local_periphery = gpuModel_.renderSeconds(fallback_job);
        local_periphery_done =
            gpu_.serve(local_done, t_local_periphery);
    }

    s.transmittedBytes = streamed.totalBytes;
    s.tNetwork = streamed.networkTime;
    s.tRemoteBranch =
        skip_fetch ? 0.0
                   : std::max(0.0, streamed.allDecoded - cpu_done);

    // ---- Composition + ATW. ---------------------------------------
    const double native_stereo =
        static_cast<double>(display.pixelCount()) * 2.0;
    Seconds done;
    Seconds gpu_post = 0.0;
    if (policy_.composition == CompositionPath::GpuKernels) {
        const double band_px = 16.0;
        const double edge_area =
            2.0 * kPi * band_px * ppd *
            (resolved.partition.e1 + resolved.partition.e2);
        const double edge_fraction = clamp(
            edge_area / static_cast<double>(display.pixelCount()),
            0.0, 0.15);
        s.tComposition = gpu::postprocess::foveatedCompositionTime(
                             gpuModel_, native_stereo, edge_fraction,
                             cfg().postCosts) /
                         cfg().gpuFrequencyScale;
        s.tAtw = gpu::postprocess::atwTime(gpuModel_, native_stereo,
                                           cfg().postCosts) /
                 cfg().gpuFrequencyScale;
        // Fig. 4-(c): the composition/ATW kernels contend with
        // rendering for the shader cores — kernel launch/drain,
        // coarse-grained preemption and cache refill stall the GPU
        // around them for roughly another 60% of their runtime
        // (Leng et al. [32] measure bursty slowdowns of this size).
        const Seconds queue_penalty =
            0.6 * (s.tComposition + s.tAtw);
        const Seconds start =
            std::max(local_done, streamed.allDecoded) + queue_penalty;
        done = gpu_.serve(start, s.tComposition + s.tAtw);
        gpu_post = s.tComposition + s.tAtw;
    } else {
        Seconds periphery_ready =
            local_fallback ? local_periphery_done
                           : streamed.allDecoded;
        Seconds deadline = issue_time + policy_.reprojectionDeadline;
        if (degradation_ && havePrevLayers_) {
            // Hardened pacing, display side: waiting on periphery
            // that lands more than one budget after the previous
            // display would blow the vsync cadence — reproject
            // instead (and let the controller read it as a miss).
            deadline = std::min(
                deadline,
                lastFrameDone_ + vr_requirements::kFrameBudget);
        }
        // A layer that exhausted its retry budget never arrived
        // intact: the resident (stale) layers are the only usable
        // periphery, exactly like a deadline miss.
        const bool unusable =
            streamed.lostLayers > 0 && havePrevLayers_ &&
            policy_.reprojectionDeadline > 0.0;
        if (!local_fallback &&
            shouldReproject(skip_fetch, unusable, streamed.allDecoded,
                            deadline, policy_.reprojectionDeadline,
                            havePrevLayers_)) {
            // Dropped-frame fill-in (Section 4.2): the resident
            // layers in DRAM are reprojected to the new pose instead
            // of stalling on the late transfer.  Staleness: when the
            // fetch was skipped the resident set ages another frame;
            // when it merely arrived late, it still refreshed the
            // resident set one pipeline-depth (~2 frames) behind.
            s.reprojected = true;
            reprojected_++;
            const double frame_motion =
                frame.motionDelta.dOrientation.norm() +
                frame.motionDelta.dGaze.norm();
            if (skip_fetch) {
                staleFrames_++;
                staleErrorDeg_ += frame_motion;
            } else {
                staleFrames_ = 2;
                staleErrorDeg_ = 2.0 * frame_motion;
            }
            s.reprojectionErrorDeg = staleErrorDeg_;
            periphery_ready = cpu_done;
        } else {
            staleFrames_ = 0;
            staleErrorDeg_ = 0.0;
        }

        // Both eyes tile the same census through the same two UCA
        // instances.
        const TileCensus tiles =
            uca_.census(display.width, display.height, pp);
        const UcaTimingResult eye0 =
            uca_.schedule(tiles, local_done, periphery_ready);
        const UcaTimingResult eye1 =
            uca_.schedule(tiles, local_done, periphery_ready);
        done = std::max(eye0.done, eye1.done);
        s.tComposition = (eye0.busy + eye1.busy) / 2.0;
        s.tAtw = 0.0;  // fused into the unified pass
        havePrevLayers_ = true;
    }

    s.displayTime = done + cfg().displayLatency;
    s.mtpLatency = cfg().sensorLatency + (s.displayTime - issue_time);
    s.gpuBusy = s.tLocalRender + gpu_post + t_local_periphery;
    s.renderedResolutionFraction = resolved.linearResolution;
    lastFrameDone_ = done;

    const bool liwc_on =
        policy_.eccentricity == EccentricityPolicy::Liwc;
    const bool uca_on = policy_.composition == CompositionPath::Uca;
    s.energy = frameEnergy(
        s.gpuBusy, s.tNetwork, s.tDecode,
        std::max({s.gpuBusy, s.tRemoteBranch,
                  vr_requirements::kFrameBudget}),
        liwc_on, uca_on);

    // ---- Controller feedback (needs a fresh, unfaulted remote
    //      measurement: an outage stall, a lost transfer, or a frame
    //      whose e1 was clamped by the degradation ladder would
    //      poison the latency table with samples that do not match
    //      the decision LIWC actually made). ----------------------
    if (liwc_on && !skip_fetch && !local_fallback &&
        streamed.lostLayers == 0 && streamed.stallTime == 0.0 &&
        (!degradation_ || !deg.clampLocalWork)) {
        LiwcFeedback fb;
        fb.measuredLocal = s.tLocalRender;
        fb.measuredRemote = s.tRemoteBranch;
        fb.renderedTriangles = local.triangles;
        fb.peripheryPixels = periphery_pixels_stereo;
        fb.peripheryBytes = streamed.totalBytes;
        fb.ackThroughput = channel_.ackThroughput();
        liwc_->update(decision, fb);
    }
    history_.emplace_back(s.tLocalRender, s.tRemoteBranch);

    // AIMD periphery-quality controller (Section 3.2's quality
    // knob): multiplicative decrease under branch overrun, additive
    // recovery with headroom.
    s.peripheryQuality = peripheryQuality_;
    if (policy_.adaptiveQuality && !skip_fetch && !local_fallback) {
        const Seconds budget = vr_requirements::kFrameBudget;
        if (s.tRemoteBranch > policy_.qualityPressure * budget) {
            peripheryQuality_ =
                clamp(peripheryQuality_ * 0.85, policy_.minQuality,
                      policy_.maxQuality);
        } else if (s.tRemoteBranch < 0.8 * budget) {
            peripheryQuality_ =
                clamp(peripheryQuality_ + 0.02, policy_.minQuality,
                      policy_.maxQuality);
        }
    }

    // ---- Fault accounting + degradation feedback. -----------------
    s.linkRetries = streamed.retries;
    s.lostLayers = streamed.lostLayers;
    s.linkStall = streamed.stallTime;
    if (degradation_) {
        FrameHealth health;
        health.remoteAttempted = !local_fallback;
        health.remoteMiss = s.reprojected || streamed.lostLayers > 0;
        health.transferLost = streamed.lostLayers > 0;
        health.linkStall = streamed.stallTime;
        const double derated = cfg().channelConfig.nominalDownlink *
                               cfg().channelConfig.protocolEfficiency;
        health.ackFraction =
            derated > 0.0 ? channel_.ackThroughput() / derated : 1.0;
        degradation_->observe(health);
    }

    return s;
}

Seconds
FoveatedPipeline::bottleneckFree() const
{
    Seconds link_gate = stream_.linkNextFree();
    if (policy_.reprojectionDeadline > 0.0 && havePrevLayers_) {
        // With the fill-in fallback armed, a congested link does not
        // stall frame issue: new frames reproject from the resident
        // layers while the link drains.
        link_gate = std::min(
            link_gate, lastFrameDone_ + policy_.reprojectionDeadline);
        if (degradation_) {
            // Hardened pacing: the degradation controller guarantees
            // displayable content for every vsync (reprojection,
            // ABR-downgraded stream, or local fallback), so the link
            // may never push issue past one frame budget.
            link_gate =
                std::min(link_gate, lastFrameDone_ +
                                        vr_requirements::kFrameBudget);
        }
    }
    Seconds free = std::max({gpu_.nextFree(), link_gate,
                             serverBusy_.nextFree()});
    if (policy_.eccentricity == EccentricityPolicy::SoftwareHistory) {
        // Software control depends on reading back the previous
        // frame's results before it can configure the next one: the
        // pipeline loses its cross-frame overlap (Fig. 4-(b)).
        free = std::max(free, lastFrameDone_);
    }
    return free;
}

}  // namespace qvr::core
