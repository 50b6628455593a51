/**
 * @file
 * Section 4.3 reproduction — design-overhead analysis.
 *
 * Printed table pins the paper's McPAT-derived accounting: LIWC's
 * 2^15-entry fp16 SRAM (~64 KB, 0.66 mm^2, <=25 mW), UCA at 1.6 mm^2
 * and 94 mW per instance with 532 cycles per 32x32 border tile, and
 * nanosecond-class eccentricity selection that hides behind the
 * pipeline.
 */

#include "bench_util.hpp"
#include "core/liwc.hpp"
#include "core/uca.hpp"

namespace
{

using namespace qvr;

foveation::LayerGeometry &
geometry()
{
    static foveation::LayerGeometry g{foveation::DisplayConfig{},
                                      foveation::MarModel{}};
    return g;
}

core::Liwc
makeLiwc()
{
    return core::Liwc(core::LiwcConfig{}, geometry(), 50e6, 134e6,
                      0.55);
}

void
printOverheadTable()
{
    using namespace qvr::bench;
    printHeader("Section 4.3 — design overhead analysis");

    core::Liwc liwc = makeLiwc();
    core::UcaConfig uca;

    TextTable table("Hardware overhead accounting (model | paper)");
    table.setHeader({"Component", "Quantity", "Model", "Paper"});
    table.addRow({"LIWC", "SRAM table",
                  std::to_string(liwc.tableBytes() / 1024) + " KB",
                  "~64 KB (2^15 x fp16)"});
    table.addRow({"LIWC", "area",
                  TextTable::num(liwc.areaMm2(), 2) + " mm^2",
                  "0.66 mm^2"});
    table.addRow({"LIWC", "power",
                  TextTable::num(liwc.maxPowerW() * 1000, 0) + " mW",
                  "<= 25 mW"});
    table.addRow({"LIWC", "selection latency",
                  TextTable::num(liwc.selectionLatency() * 1e9, 0) +
                      " ns",
                  "nanoseconds (hidden)"});
    table.addRow({"UCA", "border tile",
                  std::to_string(uca.borderTileCycles) + " cycles",
                  "532 cycles / 32x32 block"});
    table.addRow({"UCA", "instances",
                  std::to_string(uca.units) + " @ 500 MHz",
                  "2 @ 500 MHz"});
    table.addRow({"UCA", "area",
                  TextTable::num(uca.areaMm2, 1) + " mm^2",
                  "1.6 mm^2"});
    table.addRow({"UCA", "power",
                  TextTable::num(uca.powerW * 1000, 0) + " mW",
                  "94 mW"});
    table.print(std::cout);

    // Full-frame UCA latency at the default partition.
    core::UcaTimingModel model(uca);
    core::PixelPartition pp;
    pp.centerX = 960.0;
    pp.centerY = 1080.0;
    pp.foveaRadius = 15.0 * (1920.0 / 110.0);
    pp.middleRadius = 35.0 * (1920.0 / 110.0);
    const core::UcaTimingResult r =
        model.processFrame(1920, 2160, pp, 0.0, 0.0);
    std::cout << "\nUCA full-eye pass: " << r.borderTiles
              << " border + " << r.interiorTiles
              << " interior tiles in "
              << TextTable::num(toMs(r.done), 2)
              << " ms (budget 11.1 ms)\n\n";
}

}  // namespace

int
main()
{
    printOverheadTable();
    return 0;
}
