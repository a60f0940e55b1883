// Shared window-objective plumbing for the segment-based OPC engines.
//
// Every engine iterates the same way: evaluate the mask, read per-segment
// EPE as the feedback signal, test the early-exit rules on the scalar sum,
// move segments, repeat. WindowObjective generalizes that loop over the
// reward modes: in kNominal mode it is a zero-cost pass-through to the
// legacy incremental evaluation (bit-identical); in the window modes it
// evaluates the full dose x focus grid through the cached support spectrum
// (LithoSim::evaluate_window_incremental — one sparse delta-DFT per step
// serving every corner) and reduces the sweep to a SimMetrics "view" whose
// per-segment EPE, scalar sum and PV band are the objective's. The rule,
// one-shot and CAMO engines all drive their feedback off the view, so the
// nominal-vs-window ablation compares engines under identical protocols.
#pragma once

#include <optional>
#include <span>

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
/// WindowObjective and the ILT engine so resolution semantics cannot drift.
litho::WindowSpec resolve_objective_window(const litho::WindowSpec& window,
                                           const rl::WindowRewardConfig& reward,
                                           const litho::LithoConfig& cfg);

/// Resolved window-objective context for one engine run. Construction
/// resolves opt.objective / opt.window / opt.corner_weights against the
/// simulator's config (empty window axes become the standard window) and
/// validates the spec and weights; in kNominal mode it is inert.
class WindowObjective {
public:
    WindowObjective(const OpcOptions& opt, const litho::LithoConfig& cfg,
                    const rl::RewardConfig& base = {});

    [[nodiscard]] bool active() const { return reward_.mode != rl::RewardMode::kNominal; }
    [[nodiscard]] const litho::WindowSpec& spec() const { return spec_; }
    [[nodiscard]] const rl::WindowRewardConfig& reward() const { return reward_; }

    /// One cached evaluation of the clip: nominal mode forwards to
    /// LithoSim::evaluate_incremental (bit-identical to the legacy loop),
    /// window modes ride evaluate_window_incremental and return the
    /// objective view. Engines pass Cache::kPrime for a clip's first
    /// evaluation, so job results never depend on what the simulator saw
    /// before, and Cache::kReuse inside the loop. `window` (when non-null)
    /// receives the sweep's per-corner metrics in the window modes and is
    /// reset in nominal mode.
    litho::SimMetrics evaluate(litho::LithoSim& sim, const geo::SegmentedLayout& layout,
                               std::span<const int> offsets, litho::Cache mode,
                               std::optional<litho::WindowMetrics>* window = nullptr) const;

private:
    rl::WindowRewardConfig reward_;
    litho::WindowSpec spec_;
};

}  // namespace camo::opc
