#include "opc/one_shot.hpp"

#include <algorithm>
#include <cmath>

#include "opc/objective.hpp"

namespace camo::opc {

EngineResult OneShotEngine::optimize(const geo::SegmentedLayout& layout, litho::LithoSim& sim,
                                     const OpcOptions& opt) {
    // One-shot moves nearly every segment, so its single step usually
    // exceeds the incremental fallback fraction and rebuilds the cache.
    return Rollout(layout, sim, opt).run(1, false, [&](const Rollout& r) {
        const std::vector<double>& epe = r.metrics().epe_segment;
        std::vector<int> moves(epe.size(), 0);
        for (std::size_t i = 0; i < epe.size(); ++i) {
            const int corr = static_cast<int>(std::lround(-opt_.gain * epe[i]));
            moves[i] = std::clamp(corr, -opt_.max_correction, opt_.max_correction);
        }
        return moves;
    });
}

}  // namespace camo::opc
