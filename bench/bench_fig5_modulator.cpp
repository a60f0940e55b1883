// Reproduces paper Figure 5: sum-|EPE| trajectories of CAMO on metal cases
// M2 and M4 with and without the OPC-inspired modulator, over 15 full
// optimization steps (early exit disabled so the whole trajectory is
// visible).
//
// Expected shape vs the paper: with the modulator both curves descend and
// settle; without it the policy wanders in the huge action space and the
// EPE fluctuates without converging.
#include <cstdio>

#include "common/logging.hpp"
#include "core/experiment.hpp"

int main() {
    using namespace camo;
    set_log_level(LogLevel::kInfo);

    litho::LithoSim sim(core::Experiment::litho_config());
    opc::OpcOptions opt = core::Experiment::metal_options();
    opt.exit_epe_per_point = 0.0;  // no early exit: show all 15 steps

    core::CamoEngine camo(core::Experiment::metal_camo_config());
    core::ensure_trained(camo, "metal");

    const auto test = layout::metal_test_set(core::Experiment::kDatasetSeed);
    const auto layouts = core::fragment_metal_clips(test);

    std::printf("\n=== Figure 5: EPE trajectories with / without modulator ===\n");
    std::printf("%-5s %-18s", "step", "");
    std::printf("\n");

    struct Series {
        std::string label;
        std::vector<double> epe;
    };
    std::vector<Series> series;

    for (int case_idx : {1, 3}) {  // M2 and M4
        for (bool modulated : {true, false}) {
            camo.set_modulator_enabled(modulated);
            const opc::EngineResult r = camo.optimize(layouts[static_cast<std::size_t>(case_idx)],
                                                      sim, opt);
            series.push_back({test[static_cast<std::size_t>(case_idx)].name +
                                  (modulated ? " w. modulator" : " w.o. modulator"),
                              r.epe_history});
        }
    }
    camo.set_modulator_enabled(true);

    std::printf("%-6s", "step");
    for (const Series& s : series) std::printf(" %22s", s.label.c_str());
    std::printf("\n");
    std::size_t steps = 0;
    for (const Series& s : series) steps = std::max(steps, s.epe.size());
    for (std::size_t t = 0; t < steps; ++t) {
        std::printf("%-6zu", t);
        for (const Series& s : series) {
            if (t < s.epe.size()) {
                std::printf(" %22.1f", s.epe[t]);
            } else {
                std::printf(" %22s", "-");
            }
        }
        std::printf("\n");
    }

    // The paper's qualitative claim: the modulated runs end lower.
    for (std::size_t i = 0; i + 1 < series.size(); i += 2) {
        const double with = series[i].epe.back();
        const double without = series[i + 1].epe.back();
        std::printf("%s: final %.1f (w.) vs %.1f (w.o.) -> %s\n", series[i].label.c_str(), with,
                    without, with <= without ? "modulator wins" : "modulator loses");
    }
    return 0;
}
