// Metal-layer OPC with CAMO, demonstrating the measure-point protocol and
// the modulator's effect on a complex layer.
//
// Build & run:  ./build/examples/metal_opc
#include <cstdio>

#include "common/logging.hpp"
#include "core/experiment.hpp"

int main() {
    using namespace camo;
    set_log_level(LogLevel::kInfo);

    litho::LithoSim sim(core::Experiment::litho_config());
    const auto opt = core::Experiment::metal_options();

    core::CamoEngine camo(core::Experiment::metal_camo_config());
    core::ensure_trained(camo, "metal");

    const auto clips = layout::metal_test_set(core::Experiment::kDatasetSeed);
    const auto layouts = core::fragment_metal_clips({clips[7]});  // M8: regular pattern
    const geo::SegmentedLayout& layout = layouts[0];

    const int points = static_cast<int>(layout.measure_points().size());
    std::printf("%s: %zu wires, %d segments, %d measure points\n", clips[7].name.c_str(),
                clips[7].targets.size(), layout.num_segments(), points);

    const opc::EngineResult res = camo.optimize(layout, sim, opt);
    std::printf("sum|EPE|: %.1f -> %.1f nm (%.2f nm per point) in %d iterations, %.2f s\n",
                res.epe_history.front(), res.final_metrics.sum_abs_epe,
                res.final_metrics.sum_abs_epe / points, res.iterations, res.runtime_s);
    std::printf("PV band: %.0f -> %.0f nm^2\n", res.pvb_history.front(),
                res.final_metrics.pvband_nm2);

    // Show the modulator's contribution on this clip (paper Section 4.4).
    camo.set_modulator_enabled(false);
    const opc::EngineResult un = camo.optimize(layout, sim, opt);
    std::printf("without modulator: sum|EPE| = %.1f nm in %d iterations\n",
                un.final_metrics.sum_abs_epe, un.iterations);
    return 0;
}
