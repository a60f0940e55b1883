// Trajectory records shared by the teacher (imitation phase) and the RL
// phase.
#pragma once

#include <span>
#include <vector>

namespace camo::rl {

/// One environment step: the segment offsets *before* acting and the action
/// index (0..4 for movements -2..+2 nm) chosen per segment.
struct StepRecord {
    std::vector<int> offsets_before;
    std::vector<int> actions;
    double sum_abs_epe_before = 0.0;
    double pvband_before = 0.0;

    // Window-aware objectives (zero / empty when the trajectory was recorded
    // at the nominal corner only): worst-corner sum |EPE|, exact PV band,
    // and the per-corner sum |EPE| in WindowSpec::corner order before the
    // step — the quantities window_step_reward and weighted-corner credit
    // assignment consume.
    double worst_epe_before = 0.0;
    double pv_band_exact_before = 0.0;
    std::vector<double> corner_epe_before;
};

struct Trajectory {
    std::vector<StepRecord> steps;
    double final_sum_abs_epe = 0.0;
    double final_pvband = 0.0;

    // Window-aware finals, mirroring StepRecord's window fields.
    double final_worst_epe = 0.0;
    double final_pv_band_exact = 0.0;
    std::vector<double> final_corner_epe;

    // Collection provenance, set by the parallel teacher-collection runtime:
    // which clip this trajectory was recorded on and the initial mask bias
    // of its (clip, bias) job. The trainer gathers trajectories in canonical
    // clip-major, bias-minor job order regardless of worker count, and these
    // fields let tests (and downstream consumers) verify that ordering.
    // -1 / 0 when the trajectory was recorded outside the trainer.
    int clip_index = -1;
    int initial_bias_nm = 0;
};

/// Movement action space of the paper: {-2,-1,0,+1,+2} nm.
inline constexpr int kNumActions = 5;

/// Action index -> movement in nm.
inline int action_to_move(int action) { return action - 2; }

/// Action indices -> movements in nm, one per segment.
inline std::vector<int> actions_to_moves(std::span<const int> actions) {
    std::vector<int> moves(actions.begin(), actions.end());
    for (int& m : moves) m = action_to_move(m);
    return moves;
}

/// Movement in nm -> action index (movement must be in [-2, 2]).
inline int move_to_action(int move) { return move + 2; }

}  // namespace camo::rl
