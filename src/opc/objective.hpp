// The segment-OPC rollout every segment-moving engine shares.
//
// The rule engine, its phase-1 teacher, the one-shot engine, CAMO inference
// and CAMO's phase-2 episodes all run one protocol: start every segment at
// the initial bias, evaluate the mask, read per-segment EPE as the feedback
// signal, test the early-exit rules on the scalar sum, move segments, repeat.
// opc::Rollout owns that protocol; an engine contributes only its move rule.
//
// Rollout is the only place the segment engines touch the simulator's
// incremental cache: its constructor evaluates with litho::Cache::kPrime (a
// full rebuild, so a run never depends on what the simulator evaluated
// before) and every step re-evaluates with litho::Cache::kReuse. Under the
// window reward modes each evaluation sweeps the dose x focus grid through
// the cached support spectrum (one sparse delta-DFT per step serving every
// corner) and reduces it to the objective view below, so the
// nominal-vs-window ablation compares engines under identical protocols; in
// kNominal mode it is the plain cached nominal evaluation.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "common/timer.hpp"
#include "opc/engine.hpp"

namespace camo::opc {

/// Reduce a window sweep to the SimMetrics view that drives engine feedback
/// under `cfg.mode`:
///   * kNominal: the nominal corner's profile, pvband_nm2 = the two-corner
///     band (the exact quantities the legacy loop consumed);
///   * kWorstCorner: the minimax feedback profile — per segment / point,
///     the midpoint of the per-corner EPE range (centring a segment's
///     printed edge across the window minimises its worst-corner |EPE|;
///     chasing the argmax corner's profile oscillates) — with sum_abs_epe =
///     the worst corner's sum |EPE| and pvband_nm2 = the exact band;
///   * kWeightedCorner: the per-segment / per-point weighted mean profile,
///     sum_abs_epe = rl::window_objective_epe, pvband_nm2 = exact band.
litho::SimMetrics objective_view(const litho::WindowMetrics& wm,
                                 const rl::WindowRewardConfig& cfg);

/// Resolve a window-objective spec against the simulator's config: a fully
/// empty window becomes litho::WindowSpec::standard(cfg); the spec and the
/// reward config (mode + corner weights) are then validated. Shared by
/// Rollout and the ILT engine so resolution semantics cannot drift.
litho::WindowSpec resolve_objective_window(const litho::WindowSpec& window,
                                           const rl::WindowRewardConfig& reward,
                                           const litho::LithoConfig& cfg);

/// One segment-OPC run of one clip. Construction resolves opt.objective /
/// opt.window / opt.corner_weights against the simulator's config (empty
/// window axes become the standard window; spec and weights are validated),
/// starts every segment at opt.initial_bias_nm and primes the simulator's
/// cache with the first evaluation. `layout`, `sim` and `opt` must outlive
/// the rollout.
class Rollout {
public:
    Rollout(const geo::SegmentedLayout& layout, litho::LithoSim& sim, const OpcOptions& opt,
            const rl::RewardConfig& base = {});

    /// Adds `moves` (nm, one per segment) to the offsets, clamps every total
    /// offset into +/- opt.max_total_offset_nm and re-evaluates the mask.
    void step(std::span<const int> moves);

    /// True when either early-exit rule fires on the current objective.
    [[nodiscard]] bool should_exit() const;

    /// Eq. (3) reward of the last step: rl::window_step_reward on the
    /// before/after sweeps under a window objective, rl::step_reward on the
    /// before/after scalars in kNominal mode. Requires a step.
    [[nodiscard]] double step_reward() const;

    [[nodiscard]] const std::vector<int>& offsets() const { return res_.final_offsets; }

    /// The objective view of the current mask (see objective_view).
    [[nodiscard]] const litho::SimMetrics& metrics() const { return res_.final_metrics; }

    /// Per-corner metrics of the current mask; empty in kNominal mode.
    [[nodiscard]] const std::optional<litho::WindowMetrics>& window() const {
        return res_.final_window;
    }

    /// Runs the loop: up to `steps` steps, each applying `next_moves(*this)`;
    /// when `early_exit` is set, stops as soon as should_exit() holds.
    /// Returns the run as an EngineResult (runtime measured from
    /// construction); the rollout is spent afterwards.
    template <typename MoveRule>
    EngineResult run(int steps, bool early_exit, MoveRule&& next_moves) {
        for (int t = 0; t < steps && !(early_exit && should_exit()); ++t) {
            step(next_moves(std::as_const(*this)));
        }
        return finish();
    }

private:
    void evaluate(litho::Cache mode);
    EngineResult finish();

    const geo::SegmentedLayout& layout_;
    litho::LithoSim& sim_;
    const OpcOptions& opt_;
    rl::WindowRewardConfig reward_;
    litho::WindowSpec spec_;
    Timer timer_;
    EngineResult res_;
    int points_ = 0;
    double epe_before_ = 0.0;
    double pvb_before_ = 0.0;
    std::optional<litho::WindowMetrics> window_before_;
};

}  // namespace camo::opc
