/**
 * @file
 * The single-user grid (Fig. 12 closed loop plus the worst-case fault
 * cells), shared by the single-user workload and by pixel-compose,
 * which composes partitions taken from its Q-VR trace.
 */

#ifndef QVR_PERFBENCH_SINGLE_USER_HPP
#define QVR_PERFBENCH_SINGLE_USER_HPP

#include <vector>

#include "core/qvr_system.hpp"
#include "harness.hpp"

namespace perfbench
{

/** Frames per single-user cell (the Fig. 12 run length). */
constexpr std::size_t kSingleUserFrames = 300;

/** One closed-loop user: a design on a scene, optionally faulted. */
struct SuCell
{
    qvr::core::DesignPoint design = qvr::core::DesignPoint::Qvr;
    qvr::core::ExperimentSpec spec;
    bool faulted = false;
};

/**
 * The grid: the 7 Table-3 scenes x {Local, Static, Q-VR, Q-VR+CL} on
 * Wi-Fi, then the same scenes x {Q-VR, Q-VR-R} under
 * fault::standardSuite's worst-case schedule.
 */
std::vector<SuCell> makeSingleUserGrid(std::uint64_t seed,
                                       std::size_t frames);

/** Per-frame inputs a traced run keeps for the layer replays. */
struct FrameInput
{
    qvr::Vec2 gaze;
    qvr::motion::MotionDelta delta;
    std::uint64_t triangles = 0;
    std::size_t batches = 0;
};

/** Host time the traced loop measured around the two public calls. */
struct StepTimes
{
    double scene = 0.0;  ///< WorkloadStream::next, seconds
    double step = 0.0;   ///< Pipeline::step, seconds
};

struct CellRun
{
    qvr::core::PipelineResult result;
    std::vector<FrameInput> inputs;  ///< filled when recording
};

/**
 * Run one cell frame by frame: WorkloadStream::next then
 * Pipeline::step.  With @p times the two calls are timed; with
 * @p tracer each frame also gets spans (ids frameBase + i + 1).
 */
CellRun runCell(const SuCell &cell, bool record, StepTimes *times,
                Tracer *tracer, std::uint32_t parent,
                std::uint64_t frameBase);

}  // namespace perfbench

#endif  // QVR_PERFBENCH_SINGLE_USER_HPP
