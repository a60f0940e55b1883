// Via-layer OPC with the full CAMO engine.
//
// Loads the pre-trained via policy (training it on first use), optimizes a
// test clip, prints the per-iteration EPE trajectory and exports the result
// as a GDSII file with targets (layer 1), SRAFs (layer 2) and the optimized
// mask (layer 10).
//
// Build & run:  ./build/examples/via_opc
#include <cstdio>

#include "common/logging.hpp"
#include "core/experiment.hpp"
#include "layout/gdsii.hpp"

int main() {
    using namespace camo;
    set_log_level(LogLevel::kInfo);

    litho::LithoSim sim(core::Experiment::litho_config());
    const auto opt = core::Experiment::via_options();

    // Train or load the CAMO policy.
    core::CamoEngine camo(core::Experiment::via_camo_config());
    core::ensure_trained(camo, "via");

    // Optimize one unseen test clip.
    const auto clips = layout::via_test_set(core::Experiment::kDatasetSeed);
    const auto layouts = core::fragment_via_clips({clips[4]});  // V5: 4 vias
    const opc::EngineResult res = camo.optimize(layouts[0], sim, opt);

    std::printf("%s on %s (%zu vias):\n", camo.name().c_str(), clips[4].name.c_str(),
                clips[4].targets.size());
    for (std::size_t t = 0; t < res.epe_history.size(); ++t) {
        std::printf("  step %zu: sum|EPE| = %.1f nm, PVB = %.0f nm^2\n", t, res.epe_history[t],
                    res.pvb_history[t]);
    }
    std::printf("finished in %d iterations, %.2f s\n", res.iterations, res.runtime_s);

    // Export everything to GDSII.
    layout::GdsLibrary lib;
    lib.name = "CAMO_VIA";
    lib.layers[1] = layouts[0].targets();
    lib.layers[2] = layouts[0].srafs();
    lib.layers[10] = layouts[0].reconstruct_mask(res.final_offsets);
    layout::write_gds("via_opc_result.gds", lib);
    std::printf("mask exported to via_opc_result.gds\n");
    return 0;
}
