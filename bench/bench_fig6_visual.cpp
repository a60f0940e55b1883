// Reproduces paper Figure 6: visualization of an OPC result on metal case
// M10 — (a) target pattern, (b) mask pattern, (c) printed contour, (d) PV
// band — written as PPM images under data/.
#include <cstdio>

#include "common/logging.hpp"
#include "core/experiment.hpp"
#include "layout/render.hpp"

int main() {
    using namespace camo;
    set_log_level(LogLevel::kInfo);

    litho::LithoSim sim(core::Experiment::litho_config());
    const opc::OpcOptions opt = core::Experiment::metal_options();

    core::CamoEngine camo(core::Experiment::metal_camo_config());
    core::ensure_trained(camo, "metal");

    const auto test = layout::metal_test_set(core::Experiment::kDatasetSeed);
    const auto layouts = core::fragment_metal_clips({test[9]});  // M10
    const geo::SegmentedLayout& layout = layouts[0];

    const opc::EngineResult res = camo.optimize(layout, sim, opt);
    std::printf("M10: sum|EPE| %.1f -> %.1f nm, PVB %.0f nm^2\n", res.epe_history.front(),
                res.final_metrics.sum_abs_epe, res.final_metrics.pvband_nm2);

    const auto mask_polys = layout.reconstruct_mask(res.final_offsets);
    const geo::Raster mask = sim.rasterize(mask_polys, layout.srafs(), layout.clip_size_nm());
    const geo::Raster nominal = sim.aerial_nominal(mask);
    const geo::Raster defocus = sim.aerial_defocus(mask);
    const geo::Raster printed = sim.printed(nominal);

    // PV band image: outer corner minus inner corner.
    geo::Raster pvband(printed.n(), printed.pixel_nm());
    const geo::Raster outer = sim.printed(nominal, sim.config().dose_max);
    const geo::Raster inner = sim.printed(defocus, sim.config().dose_min);
    for (int r = 0; r < pvband.n(); ++r) {
        for (int c = 0; c < pvband.n(); ++c) {
            pvband.at(r, c) = (outer.at(r, c) > 0.5F && inner.at(r, c) < 0.5F) ? 1.0F : 0.0F;
        }
    }

    layout::Fig6Inputs in;
    in.target = layout.targets();
    in.mask = mask_polys;
    in.mask.insert(in.mask.end(), layout.srafs().begin(), layout.srafs().end());
    in.printed_nominal = printed;
    in.pvband = pvband;
    in.clip_nm = layout.clip_size_nm();
    in.offset_nm = sim.clip_offset_nm(layout.clip_size_nm());
    layout::render_fig6("data/fig6_m10", in);

    std::printf("Figure 6 panels written:\n");
    for (const char* s : {"_target.ppm", "_mask.ppm", "_contour.ppm", "_pvband.ppm"}) {
        std::printf("  data/fig6_m10%s\n", s);
    }
    return 0;
}
