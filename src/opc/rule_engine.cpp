#include "opc/rule_engine.hpp"

#include <algorithm>
#include <cmath>

#include "opc/objective.hpp"

namespace camo::opc {
namespace {

// One damped feedback step: returns the movement (nm) for each segment.
std::vector<int> feedback_moves(const std::vector<double>& epe_segment, double gain,
                                int max_step) {
    std::vector<int> moves(epe_segment.size(), 0);
    for (std::size_t i = 0; i < epe_segment.size(); ++i) {
        // Positive EPE = contour outside the target -> move inward (negative).
        const double desired = -gain * epe_segment[i];
        const int step = static_cast<int>(std::lround(desired));
        moves[i] = std::clamp(step, -max_step, max_step);
    }
    return moves;
}

std::vector<double> corner_epes(const litho::WindowMetrics& wm) {
    std::vector<double> epes;
    epes.reserve(wm.corners.size());
    for (const litho::CornerResult& c : wm.corners) epes.push_back(c.metrics.sum_abs_epe);
    return epes;
}

}  // namespace

EngineResult RuleEngine::optimize(const geo::SegmentedLayout& layout, litho::LithoSim& sim,
                                  const OpcOptions& opt) {
    return Rollout(layout, sim, opt)
        .run(opt.max_iterations, opt_.early_exit, [&](const Rollout& r) {
            return feedback_moves(r.metrics().epe_segment, opt_.gain, opt_.max_step_nm);
        });
}

rl::Trajectory RuleEngine::record_trajectory(const geo::SegmentedLayout& layout,
                                             litho::LithoSim& sim, const OpcOptions& opt,
                                             int steps) const {
    rl::Trajectory traj;
    const EngineResult res = Rollout(layout, sim, opt).run(steps, false, [&](const Rollout& r) {
        // Teacher moves clamped to the learned engines' action space.
        std::vector<int> moves = feedback_moves(r.metrics().epe_segment, opt_.gain, 2);

        rl::StepRecord rec;
        rec.offsets_before = r.offsets();
        rec.sum_abs_epe_before = r.metrics().sum_abs_epe;
        rec.pvband_before = r.metrics().pvband_nm2;
        if (r.window()) {
            rec.worst_epe_before = r.window()->worst_epe;
            rec.pv_band_exact_before = r.window()->pv_band_exact_nm2;
            rec.corner_epe_before = corner_epes(*r.window());
        }
        rec.actions.reserve(moves.size());
        for (int mv : moves) rec.actions.push_back(rl::move_to_action(mv));
        traj.steps.push_back(std::move(rec));
        return moves;
    });
    traj.final_sum_abs_epe = res.final_metrics.sum_abs_epe;
    traj.final_pvband = res.final_metrics.pvband_nm2;
    if (res.final_window) {
        traj.final_worst_epe = res.final_window->worst_epe;
        traj.final_pv_band_exact = res.final_window->pv_band_exact_nm2;
        traj.final_corner_epe = corner_epes(*res.final_window);
    }
    return traj;
}

}  // namespace camo::opc
