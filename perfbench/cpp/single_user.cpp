/**
 * @file
 * single-user workload: the Fig. 12 grid in closed loop, one simulated
 * user per cell, plus Q-VR / Q-VR-R under the worst-case fault
 * schedule.  Host time goes to scene generation, foveation, LIWC and
 * UCA timing; no serve or event-kernel work.
 */

#include "single_user.hpp"

#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>

#include "core/workload_stream.hpp"
#include "fault/schedule.hpp"
#include "sim/parallel.hpp"

namespace perfbench
{

using namespace qvr;

namespace
{

constexpr std::uint64_t kFaultSeedTag = 0xfa17;

/** The paper's headline ratios (Fig. 12). */
constexpr double kPaperSpeedupVsLocal = 3.4;
constexpr double kPaperFpsGainVsStatic = 4.1;

double
meanOf(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

/** p50 (ms) of a per-frame component over the frames where the
 *  component did work (> 0), pooled across @p runs. */
template <typename F>
double
p50Ms(const std::vector<CellRun> &runs, F &&field)
{
    std::vector<double> v;
    for (const CellRun &c : runs)
        for (const core::FrameStats &f : c.result.frames)
            if (field(f) > 0.0)
                v.push_back(toMs(field(f)));
    return percentile(std::move(v), 0.5);
}

/** Issue time of a frame, recovered from its MTP accounting. */
Seconds
issueTime(const core::FrameStats &f, const core::PipelineConfig &cfg)
{
    return f.displayTime - (f.mtpLatency - cfg.sensorLatency);
}

bool
isFoveated(core::DesignPoint d)
{
    return d == core::DesignPoint::Qvr ||
           d == core::DesignPoint::QvrCompressed ||
           d == core::DesignPoint::Resilient;
}

/** Host seconds of the layer replays over one traced grid. */
struct ReplayTimes
{
    double foveation = 0.0;
    double liwc = 0.0;
    double uca = 0.0;
    std::uint64_t resolves = 0;
    std::uint64_t cacheEntries = 0;
    std::uint64_t ucaEyes = 0;
    double borderTiles = 0.0;
    double interiorTiles = 0.0;
    double ucaBusy = 0.0;  ///< both eyes, summed over frames
    std::uint64_t ucaFrames = 0;
    double checksum = 0.0;  ///< consumes the foveation results
};

/**
 * Replay the layers FoveatedPipeline calls internally, through their
 * public functions, on the inputs the traced run recorded: fresh
 * (cold) objects per cell, exactly as each pipeline starts.
 */
void
replayCell(const SuCell &cell, const CellRun &run, ReplayTimes &rt,
           Tracer *tracer, std::uint32_t parent)
{
    const core::PipelineConfig cfg = cell.spec.toConfig();
    const foveation::LayerGeometry geometry(cfg.display(), cfg.mar);
    const auto &frames = run.result.frames;
    const auto &inputs = run.inputs;
    const std::size_t n = frames.size();

    // Foveation: partition resolve (cold cache), the fovea workload
    // fraction and the linear resolution fraction.
    std::vector<double> periphery(n);
    {
        const ScopedSpan span(tracer, "foveation.replay", parent);
        const auto t0 = Clock::now();
        foveation::PartitionOracle oracle(geometry);
        for (std::size_t i = 0; i < n; i++) {
            const auto &r = oracle.resolve(frames[i].e1, inputs[i].gaze);
            rt.checksum += geometry.foveaAreaFraction(r.partition.e1,
                                                      inputs[i].gaze) +
                           geometry.linearResolutionFraction(r.partition);
            periphery[i] = r.pixels.peripheryPixels() * 2.0;
        }
        rt.foveation += secondsSince(t0);
        rt.resolves += n;
        rt.cacheEntries += oracle.cacheSize();
    }

    // LIWC: one selection and one update per frame.
    {
        const ScopedSpan span(tracer, "core.liwc.replay", parent);
        const auto t0 = Clock::now();
        const gpu::MobileGpuModel gpu_model(cfg.gpuConfig, cfg.gpuCost);
        const double pixels_per_tri =
            static_cast<double>(cfg.benchmark.pixelsPerEye()) /
            static_cast<double>(cfg.benchmark.meanTriangles);
        const BitsPerSecond ack = cfg.channelConfig.nominalDownlink *
                                  cfg.channelConfig.protocolEfficiency;
        core::Liwc liwc(cfg.liwcConfig, geometry,
                        gpu_model.triangleThroughput(
                            cfg.benchmark.shadingCost, pixels_per_tri) *
                            cfg.gpuFrequencyScale,
                        ack, cfg.codecConfig.baseBitsPerPixel, 5.0,
                        cfg.benchmark.centerConcentration);
        for (std::size_t i = 0; i < n; i++) {
            const core::LiwcDecision d = liwc.selectEccentricity(
                inputs[i].delta, inputs[i].triangles * 2, inputs[i].gaze);
            const core::FrameStats &f = frames[i];
            if (f.reprojected || f.localFallback || f.lostLayers > 0)
                continue;
            core::LiwcFeedback fb;
            fb.measuredLocal = f.tLocalRender;
            fb.measuredRemote = f.tRemoteBranch;
            fb.renderedTriangles = f.localTriangles;
            fb.peripheryPixels = periphery[i];
            fb.peripheryBytes = f.transmittedBytes;
            fb.ackThroughput = ack;
            liwc.update(d, fb);
        }
        rt.liwc += secondsSince(t0);
    }

    // UCA timing: both eyes through the same two instances.
    {
        const ScopedSpan span(tracer, "core.uca.replay", parent);
        const auto t0 = Clock::now();
        core::UcaTimingModel uca(cfg.ucaConfig);
        const auto &display = geometry.display();
        const double ppd = display.pixelsPerDegree();
        for (std::size_t i = 0; i < n; i++) {
            const core::FrameStats &f = frames[i];
            core::PixelPartition pp;
            pp.centerX = display.width / 2.0 + inputs[i].gaze.x * ppd;
            pp.centerY = display.height / 2.0 + inputs[i].gaze.y * ppd;
            pp.foveaRadius = f.e1 * ppd;
            pp.middleRadius = f.e2 * ppd;
            const Seconds issue = issueTime(f, cfg);
            const Seconds cpu_done = issue + cfg.controlLogicTime;
            const Seconds fovea_ready = cpu_done + f.tLocalRender;
            const Seconds periphery_ready =
                f.reprojected ? cpu_done : cpu_done + f.tRemoteBranch;
            for (int eye = 0; eye < 2; eye++) {
                const core::UcaTimingResult r =
                    uca.processFrame(display.width, display.height, pp,
                                     fovea_ready, periphery_ready);
                rt.borderTiles += r.borderTiles;
                rt.interiorTiles += r.interiorTiles;
                rt.ucaBusy += r.busy;
                rt.ucaEyes++;
            }
            rt.ucaFrames++;
        }
        rt.uca += secondsSince(t0);
    }
}

/** The Wi-Fi cell of @p design on scene @p s. */
const CellRun &
wifiCell(const std::vector<SuCell> &grid, const std::vector<CellRun> &runs,
         core::DesignPoint design, std::size_t s)
{
    std::size_t k = 0;
    for (std::size_t i = 0; i < grid.size(); i++) {
        if (grid[i].faulted || grid[i].design != design)
            continue;
        if (k++ == s)
            return runs[i];
    }
    throw std::logic_error("no such cell");
}

/** Byte-faithful digest of a result (hexfloat, no rounding). */
std::string
digest(const core::PipelineResult &r)
{
    std::ostringstream os;
    os << std::hexfloat;
    for (const auto &f : r.frames)
        os << f.mtpLatency << ';' << f.displayTime << ';'
           << f.frameInterval << ';' << f.transmittedBytes << ';' << f.e1
           << ';' << f.e2 << ';' << f.gpuBusy << ';' << f.reprojected
           << ';' << f.degradationLevel << ';' << f.localFallback << ';'
           << f.linkRetries << ';' << f.lostLayers << ';'
           << f.energy.total() << '\n';
    return os.str();
}

/** Bitwise equality of the fields digest() covers, cheap enough to
 *  run inside a timed run. */
bool
sameFrames(const core::PipelineResult &a, const core::PipelineResult &b)
{
    if (a.frames.size() != b.frames.size())
        return false;
    for (std::size_t i = 0; i < a.frames.size(); i++) {
        const core::FrameStats &x = a.frames[i];
        const core::FrameStats &y = b.frames[i];
        if (x.mtpLatency != y.mtpLatency || x.displayTime != y.displayTime ||
            x.frameInterval != y.frameInterval ||
            x.transmittedBytes != y.transmittedBytes || x.e1 != y.e1 ||
            x.e2 != y.e2 || x.gpuBusy != y.gpuBusy ||
            x.reprojected != y.reprojected ||
            x.degradationLevel != y.degradationLevel ||
            x.localFallback != y.localFallback ||
            x.linkRetries != y.linkRetries || x.lostLayers != y.lostLayers)
            return false;
    }
    return true;
}

}  // namespace

std::vector<SuCell>
makeSingleUserGrid(std::uint64_t seed, std::size_t frames)
{
    // Fault windows are placed against the nominal 90 Hz run length.
    const Seconds horizon = static_cast<double>(frames) /
                            vr_requirements::kMinFrameRate;
    const fault::FaultSchedule worst =
        fault::standardSuite(deriveSeed(seed, kFaultSeedTag), horizon)
            .back()
            .schedule;

    std::vector<SuCell> grid;
    const auto add = [&](core::DesignPoint d, const std::string &scene,
                         std::size_t scene_index, bool faulted) {
        SuCell c;
        c.design = d;
        c.spec.benchmark = scene;
        c.spec.numFrames = frames;
        c.spec.seed = deriveSeed(seed, scene_index);
        c.faulted = faulted;
        if (faulted)
            c.spec.faults = worst;
        grid.push_back(std::move(c));
    };
    const auto &scenes = scene::table3Benchmarks();
    for (const core::DesignPoint d :
         {core::DesignPoint::Local, core::DesignPoint::Static,
          core::DesignPoint::Qvr, core::DesignPoint::QvrCompressed})
        for (std::size_t s = 0; s < scenes.size(); s++)
            add(d, scenes[s].name, s, false);
    for (const core::DesignPoint d :
         {core::DesignPoint::Qvr, core::DesignPoint::Resilient})
        for (std::size_t s = 0; s < scenes.size(); s++)
            add(d, scenes[s].name, s, true);
    return grid;
}

CellRun
runCell(const SuCell &cell, bool record, StepTimes *times, Tracer *tracer,
        std::uint32_t parent, std::uint64_t frameBase)
{
    CellRun out;
    core::WorkloadStream stream(cell.spec);
    const auto pipeline =
        core::makePipeline(cell.design, cell.spec.toConfig());
    out.result.design = pipeline->name();
    out.result.benchmark = cell.spec.benchmark;
    out.result.frames.reserve(stream.numFrames());
    if (record)
        out.inputs.reserve(stream.numFrames());

    for (std::size_t i = 0; i < stream.numFrames(); i++) {
        if (!times) {
            out.result.frames.push_back(pipeline->step(stream.next()));
            continue;
        }
        const auto t0 = Clock::now();
        const scene::FrameWorkload &frame = stream.next();
        const auto t1 = Clock::now();
        out.result.frames.push_back(pipeline->step(frame));
        const auto t2 = Clock::now();
        times->scene += std::chrono::duration<double>(t1 - t0).count();
        times->step += std::chrono::duration<double>(t2 - t1).count();
        if (tracer) {
            const std::uint64_t id = frameBase + i + 1;
            tracer->add("scene.next", t0, t1, parent, id);
            tracer->add("core.pipeline.step", t1, t2, parent, id);
        }
        if (record)
            out.inputs.push_back(
                {Vec2{frame.motionSeen.gaze.x, frame.motionSeen.gaze.y},
                 frame.motionDelta, frame.totalTriangles(),
                 frame.batches.size()});
    }
    return out;
}

Outcome
runSingleUser(const Options &opt)
{
    Outcome out;
    const std::vector<SuCell> grid =
        makeSingleUserGrid(opt.seed, kSingleUserFrames);
    const std::size_t scenes = scene::table3Benchmarks().size();
    // One timed unit is one cell.
    const double unit_frames = static_cast<double>(kSingleUserFrames);
    markSetupDone();
    if (opt.setupOnly)
        return out;

    // A unit's first run is the reference; every later run must
    // reproduce it bit for bit.
    std::vector<CellRun> ref(grid.size());
    std::uint64_t rep_mismatches = 0;
    const auto untracedRep = [&](std::size_t c, std::size_t pass) {
        CellRun r = runCell(grid[c], false, nullptr, nullptr, 0, 0);
        if (pass == 0)
            ref[c] = std::move(r);
        else if (!sameFrames(r.result, ref[c].result))
            rep_mismatches++;
        return unit_frames;
    };

    // Traced runs time the two public calls per frame; a unit's first
    // one also records spans and the replay inputs.
    Tracer tracer;
    StepTimes times;
    std::vector<CellRun> recorded(grid.size());
    const auto tracedRep = [&](std::size_t c, std::size_t pass) {
        Tracer *t = pass == 0 ? &tracer : nullptr;
        const std::uint32_t cell_span = t ? t->begin("cell") : 0;
        CellRun r = runCell(grid[c], pass == 0, &times, t, cell_span,
                            c * kSingleUserFrames);
        if (t)
            t->end(cell_span);
        if (pass == 0)
            recorded[c] = std::move(r);
        return unit_frames;
    };

    // Replays re-run the layers Pipeline::step calls inside, on the
    // inputs the unit's first traced run recorded.
    ReplayTimes rt;
    const auto replayRep = [&](std::size_t c, std::size_t pass) {
        Tracer *t = pass == 0 ? &tracer : nullptr;
        const std::uint32_t span = t ? t->begin("replay") : 0;
        if (isFoveated(grid[c].design))
            replayCell(grid[c], recorded[c], rt, t, span);
        if (t)
            t->end(span);
        return unit_frames;
    };

    const std::vector<TimedUnits> sides =
        opt.trace ? timeUnits(opt.seconds, grid.size(),
                              {untracedRep, tracedRep, replayRep})
                  : timeUnits(opt.seconds, grid.size(), {untracedRep});
    const TimedUnits &untraced = sides[0];
    const double peak_rss = peakRssMb();

    // ---- Correctness ------------------------------------------------
    out.checks.check(rep_mismatches == 0,
                     "single-user runs of a unit are not bit-identical");
    const auto parallel = sim::runParallel(
        grid.size(),
        [&grid](std::size_t c) {
            return runCell(grid[c], false, nullptr, nullptr, 0, 0).result;
        },
        opt.workers);
    for (std::size_t c = 0; c < grid.size(); c++)
        out.checks.check(digest(parallel[c]) == digest(ref[c].result),
                         "cell " + std::to_string(c) + " (" +
                             ref[c].result.design + "/" +
                             ref[c].result.benchmark +
                             ") differs at 1 vs " +
                             std::to_string(opt.workers) + " workers");
    // Paper ordering (Fig. 12): Q-VR out-runs both baselines in FPS on
    // every scene.  (Local vs Static is reported, not checked: this
    // model's Static is within a few percent of Local, either side.)
    for (std::size_t s = 0; s < scenes; s++) {
        const auto &local =
            wifiCell(grid, ref, core::DesignPoint::Local, s).result;
        const auto &stat =
            wifiCell(grid, ref, core::DesignPoint::Static, s).result;
        const auto &qvr =
            wifiCell(grid, ref, core::DesignPoint::Qvr, s).result;
        out.checks.check(std::max(local.meanFps(), stat.meanFps()) <
                             qvr.meanFps(),
                         "Q-VR FPS does not exceed Local and Static on " +
                             scene::table3Benchmarks()[s].name);
    }

    // ---- Simulated metrics (deterministic for the seed) -------------
    std::vector<double> mtp, comp, bytes, energy, gpu_busy, e1, tail;
    core::FaultCounters faults;
    for (std::size_t c = 0; c < grid.size(); c++) {
        const core::PipelineResult &r = ref[c].result;
        mtp.push_back(r.meanMtp());
        comp.push_back(r.fpsCompliance());
        bytes.push_back(r.meanTransmittedBytes());
        energy.push_back(r.meanEnergy());
        gpu_busy.push_back(r.meanGpuBusy());
        if (grid[c].design != core::DesignPoint::Local &&
            grid[c].design != core::DesignPoint::Static)
            e1.push_back(r.meanE1());
        for (std::size_t i = r.warmupFrames; i < r.frames.size(); i++)
            tail.push_back(toMs(r.frames[i].mtpLatency));
        const core::FaultCounters fc = r.faultCounters();
        faults.reprojectedFrames += fc.reprojectedFrames;
        faults.localFallbackFrames += fc.localFallbackFrames;
        faults.degradedFrames += fc.degradedFrames;
        faults.linkRetries += fc.linkRetries;
        faults.lostLayers += fc.lostLayers;
    }
    std::vector<double> speedup, fps_gain;
    for (std::size_t s = 0; s < scenes; s++) {
        const auto &local =
            wifiCell(grid, ref, core::DesignPoint::Local, s).result;
        const auto &stat =
            wifiCell(grid, ref, core::DesignPoint::Static, s)
                .result;
        const auto &qvr =
            wifiCell(grid, ref, core::DesignPoint::Qvr, s).result;
        speedup.push_back(local.meanMtp() / qvr.meanMtp());
        fps_gain.push_back(qvr.meanFps() / stat.meanFps());
    }
    const Tail mtp_tail = tailPercentile(tail, 0.99);

    Report &rep = out.report;
    rep.set("user_frames_per_s", untraced.rate(), "frames/s");
    rep.set("peak_rss_mb", peak_rss, "MB");
    rep.set("mtp_ms_mean", toMs(meanOf(mtp)), "ms");
    rep.set("fps_compliance", meanOf(comp), "ratio");
    rep.set("downlink_kb_per_frame", meanOf(bytes) / 1e3, "KB");
    rep.set("mtp_ms_p99", mtp_tail.value, "ms");
    rep.set("speedup_vs_local", meanOf(speedup), "x");
    rep.set("fps_gain_vs_static", meanOf(fps_gain), "x");
    rep.set("energy_mj_per_frame", meanOf(energy) * 1e3, "mJ");
    rep.set("core.liwc.e1_deg_mean", meanOf(e1), "deg");
    rep.set("gpu.local_render_ms_p50",
            p50Ms(ref, [](const core::FrameStats &f) {
                return f.tLocalRender;
            }),
            "ms");
    rep.set("remote.render_ms_p50",
            p50Ms(ref, [](const core::FrameStats &f) {
                return f.tRemoteRender;
            }),
            "ms");
    rep.set("net.network_ms_p50",
            p50Ms(ref,
                  [](const core::FrameStats &f) { return f.tNetwork; }),
            "ms");
    rep.set("net.decode_ms_p50",
            p50Ms(ref,
                  [](const core::FrameStats &f) { return f.tDecode; }),
            "ms");
    rep.set("net.link_retries", static_cast<double>(faults.linkRetries),
            "count");
    rep.set("net.lost_layers", static_cast<double>(faults.lostLayers),
            "count");
    rep.set("fault.reprojected_frames",
            static_cast<double>(faults.reprojectedFrames), "count");
    rep.set("fault.local_fallback_frames",
            static_cast<double>(faults.localFallbackFrames), "count");
    rep.set("fault.degraded_frames",
            static_cast<double>(faults.degradedFrames), "count");
    rep.set("power.gpu_busy_ms_per_frame", toMs(meanOf(gpu_busy)), "ms");

    section("single-user grid (" + std::to_string(grid.size()) +
            " cells x " + std::to_string(kSingleUserFrames) +
            " frames, seed " + std::to_string(opt.seed) + ")");
    std::printf("  host: %s\n", untraced.describe().c_str());
    std::printf("  %-8s %9s %9s %9s %11s   (mean over scenes)\n",
                "design", "MTP ms", "FPS", "90 Hz", "KB/frame");
    for (std::size_t c = 0; c < grid.size(); c += scenes) {
        double m = 0.0, f = 0.0, k = 0.0, b = 0.0;
        for (std::size_t s = c; s < c + scenes; s++) {
            m += toMs(ref[s].result.meanMtp());
            f += ref[s].result.meanFps();
            k += ref[s].result.fpsCompliance();
            b += ref[s].result.meanTransmittedBytes() / 1e3;
        }
        const double n = static_cast<double>(scenes);
        std::printf("  %-8s %9.2f %9.1f %9.3f %11.1f   %s\n",
                    ref[c].result.design.c_str(), m / n, f / n, k / n,
                    b / n, grid[c].faulted ? "worst-case faults" : "Wi-Fi");
    }
    std::printf("  mtp_ms_p99 at p%.2f over %zu post-warm-up frames\n",
                100.0 * mtp_tail.p, mtp_tail.samples);
    std::printf("  fidelity (validated against the paper, Fig. 12):\n");
    const auto fidelity = [](const char *name, double got, double paper) {
        std::printf("    %-20s %6.2fx  paper %.1fx  relative error %+.1f%%\n",
                    name, got, paper, 100.0 * (got / paper - 1.0));
    };
    fidelity("speedup_vs_local", meanOf(speedup), kPaperSpeedupVsLocal);
    fidelity("fps_gain_vs_static", meanOf(fps_gain),
             kPaperFpsGainVsStatic);
    std::printf("  every other sim metric is unvalidated against the "
                "paper\n");

    if (!opt.trace)
        return out;

    // ---- Traced run: the per-layer split ---------------------------
    const TimedUnits &traced = sides[1];
    const double traced_frames = traced.totalFrames();
    const double traced_seconds = traced.totalSeconds();
    const double replayed_frames = sides[2].totalFrames();
    double batches = 0.0, recorded_frames = 0.0;
    for (const CellRun &r : recorded)
        for (const FrameInput &in : r.inputs) {
            batches += static_cast<double>(in.batches);
            recorded_frames += 1.0;
        }

    const double us = 1e6;
    const double scene_us = times.scene / traced_frames * us;
    const double step_us = times.step / traced_frames * us;
    const double fov_us = rt.foveation / replayed_frames * us;
    const double liwc_us = rt.liwc / replayed_frames * us;
    const double uca_us = rt.uca / replayed_frames * us;
    const double other_us = step_us - fov_us - liwc_us - uca_us;
    const double residual_us =
        (traced_seconds - times.scene - times.step) / traced_frames * us;
    const double overhead = 1.0 - traced.wallRate() / untraced.wallRate();

    rep.set("scene.host_us_per_frame", scene_us, "us");
    rep.set("scene.batches_per_frame", batches / recorded_frames, "count");
    rep.set("foveation.host_us_per_frame", fov_us, "us");
    rep.set("foveation.resolve_hit_ratio",
            1.0 - static_cast<double>(rt.cacheEntries) /
                      static_cast<double>(rt.resolves),
            "ratio");
    rep.set("core.liwc.host_us_per_frame", liwc_us, "us");
    rep.set("core.uca.host_us_per_frame", uca_us, "us");
    rep.set("core.uca.border_tiles_per_eye",
            rt.borderTiles / static_cast<double>(rt.ucaEyes), "count");
    rep.set("core.uca.interior_tiles_per_eye",
            rt.interiorTiles / static_cast<double>(rt.ucaEyes), "count");
    rep.set("core.uca.busy_ms_per_frame",
            toMs(rt.ucaBusy / static_cast<double>(rt.ucaFrames)), "ms");
    rep.set("core.pipeline.step_host_us", step_us, "us");
    rep.set("core.pipeline.other_host_us", other_us, "us");
    rep.set("residual.host_us_per_frame", residual_us, "us");
    rep.set("trace.overhead_frac", overhead, "ratio");

    printLayerSplit("single-user",
                    {{"scene (WorkloadStream::next)", scene_us},
                     {"foveation (replayed)", fov_us},
                     {"core.liwc (replayed)", liwc_us},
                     {"core.uca (replayed)", uca_us},
                     {"core.pipeline.other (step - replays)", other_us},
                     {"residual (harness)", residual_us}},
                    1e6 / untraced.wallRate(), overhead);
    const std::string path = opt.traceDir + "/single-user-" +
                             std::to_string(opt.seed) + ".json";
    if (tracer.writeChromeJson(path))
        std::printf("  wrote %zu spans to %s\n", tracer.size(),
                    path.c_str());
    else
        std::cerr << "cannot write " << path << "\n";
    return out;
}

}  // namespace perfbench
