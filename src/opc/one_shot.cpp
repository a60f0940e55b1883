#include "opc/one_shot.hpp"

#include <algorithm>
#include <cmath>

#include "common/timer.hpp"
#include "opc/objective.hpp"

namespace camo::opc {

EngineResult OneShotEngine::optimize(const geo::SegmentedLayout& layout, litho::LithoSim& sim,
                                     const OpcOptions& opt) {
    Timer timer;
    EngineResult res;
    const WindowObjective objective(opt, sim.config());
    std::vector<int> offsets(static_cast<std::size_t>(layout.num_segments()),
                             opt.initial_bias_nm);

    const litho::SimMetrics m0 =
        objective.evaluate(sim, layout, offsets, litho::Cache::kPrime, &res.final_window);
    res.epe_history.push_back(m0.sum_abs_epe);
    res.pvb_history.push_back(m0.pvband_nm2);

    // One-shot moves nearly every segment, so the second evaluation usually
    // exceeds the incremental fallback fraction and rebuilds the cache.
    for (std::size_t i = 0; i < offsets.size(); ++i) {
        const int corr = static_cast<int>(std::lround(-opt_.gain * m0.epe_segment[i]));
        offsets[i] = std::clamp(offsets[i] + std::clamp(corr, -opt_.max_correction,
                                                        opt_.max_correction),
                                -opt.max_total_offset_nm, opt.max_total_offset_nm);
    }
    res.iterations = 1;

    res.final_metrics =
        objective.evaluate(sim, layout, offsets, litho::Cache::kReuse, &res.final_window);
    res.epe_history.push_back(res.final_metrics.sum_abs_epe);
    res.pvb_history.push_back(res.final_metrics.pvband_nm2);
    res.final_offsets = std::move(offsets);
    res.runtime_s = timer.seconds();
    return res;
}

}  // namespace camo::opc
