#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>

#include "opc/ilt.hpp"
#include "opc/objective.hpp"
#include "opc/one_shot.hpp"
#include "opc/rule_engine.hpp"
#include "opc/sraf.hpp"
#include "rl/reward.hpp"

namespace camo::opc {
namespace {

class OpcEngineTest : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        litho::LithoConfig cfg;
        cfg.grid = 256;
        cfg.pixel_nm = 4.0;
        cfg.kernels_nominal = 6;
        cfg.kernels_defocus = 5;
        cfg.cache_dir = "";
        sim_ = new litho::LithoSim(cfg);
    }
    static void TearDownTestSuite() {
        delete sim_;
        sim_ = nullptr;
    }

    static geo::SegmentedLayout via_layout() {
        const int clip = 1000;
        const int lo = clip / 2 - 35;
        auto targets = std::vector<geo::Polygon>{geo::Polygon::from_rect({lo, lo, lo + 70, lo + 70})};
        auto srafs = insert_srafs(targets);
        return geo::SegmentedLayout(std::move(targets), {geo::FragmentStyle::kVia, 60},
                                    std::move(srafs), clip);
    }

    static litho::LithoSim* sim_;
};

litho::LithoSim* OpcEngineTest::sim_ = nullptr;

TEST_F(OpcEngineTest, RuleEngineReducesEpe) {
    RuleEngine engine;
    OpcOptions opt;
    opt.max_iterations = 8;
    opt.initial_bias_nm = 0;  // start from the raw target: large EPE
    const EngineResult res = engine.optimize(via_layout(), *sim_, opt);
    ASSERT_GE(res.epe_history.size(), 2U);
    EXPECT_LT(res.final_metrics.sum_abs_epe, res.epe_history.front() * 0.5);
    // Converged quality: around 1 nm per measure point.
    EXPECT_LT(res.final_metrics.sum_abs_epe, 6.0);
    EXPECT_EQ(res.iterations, 8);  // fixed recipe, no early exit by default
}

TEST_F(OpcEngineTest, RuleEngineEarlyExitStops) {
    RuleEngine engine({.gain = 0.6, .max_step_nm = 4, .early_exit = true});
    OpcOptions opt;
    opt.max_iterations = 10;
    opt.exit_epe_per_feature = 4.0;
    const EngineResult res = engine.optimize(via_layout(), *sim_, opt);
    EXPECT_LT(res.iterations, 10);
    EXPECT_LT(res.final_metrics.sum_abs_epe, 4.0 * 1.0 + 4.0);  // near the exit bound
}

TEST_F(OpcEngineTest, OneShotSingleIteration) {
    OneShotEngine engine;
    OpcOptions opt;
    const EngineResult res = engine.optimize(via_layout(), *sim_, opt);
    EXPECT_EQ(res.iterations, 1);
    EXPECT_EQ(res.epe_history.size(), 2U);
    // Improves over the initial mask but stays worse than the rule engine.
    EXPECT_LT(res.final_metrics.sum_abs_epe, res.epe_history.front());

    RuleEngine rule;
    OpcOptions ropt;
    ropt.max_iterations = 8;
    const EngineResult rres = rule.optimize(via_layout(), *sim_, ropt);
    EXPECT_LE(rres.final_metrics.sum_abs_epe, res.final_metrics.sum_abs_epe + 1e-9);
}

TEST_F(OpcEngineTest, TrajectoryRecordsActionsInActionSpace) {
    RuleEngine teacher({.gain = 0.6, .max_step_nm = 2, .early_exit = false});
    OpcOptions opt;
    const rl::Trajectory traj = teacher.record_trajectory(via_layout(), *sim_, opt, 5);
    ASSERT_EQ(traj.steps.size(), 5U);
    const auto layout = via_layout();
    for (const rl::StepRecord& s : traj.steps) {
        EXPECT_EQ(static_cast<int>(s.actions.size()), layout.num_segments());
        EXPECT_EQ(static_cast<int>(s.offsets_before.size()), layout.num_segments());
        for (int a : s.actions) {
            EXPECT_GE(a, 0);
            EXPECT_LT(a, rl::kNumActions);
        }
        EXPECT_GE(s.sum_abs_epe_before, 0.0);
    }
    // The teacher must be making progress over its trajectory.
    EXPECT_LT(traj.final_sum_abs_epe, traj.steps.front().sum_abs_epe_before);
}

// The action frame: replaying every recorded teacher step through a rollout
// — rl::action_to_move of the recorded actions, applied from that step's
// recorded offsets — reproduces the whole trajectory bit for bit, under the
// nominal and the worst-corner objective. The 3 nm bound sits below the
// 4 nm offset the via's teacher reaches from the 3 nm bias, so the
// +/- max_total_offset_nm clamp binds; the test checks that it does.
TEST_F(OpcEngineTest, TeacherActionsReplayThroughRollout) {
    const RuleEngine teacher({.gain = 0.6, .max_step_nm = 2, .early_exit = false});
    const geo::SegmentedLayout layout = via_layout();
    for (const rl::RewardMode mode : {rl::RewardMode::kNominal, rl::RewardMode::kWorstCorner}) {
        SCOPED_TRACE(rl::reward_mode_name(mode));
        OpcOptions opt;
        opt.objective = mode;
        opt.max_total_offset_nm = 3;
        litho::LithoSim sim(*sim_);
        const rl::Trajectory traj = teacher.record_trajectory(layout, sim, opt, 5);
        ASSERT_EQ(traj.steps.size(), 5U);

        Rollout rollout(layout, sim, opt);
        bool clamped = false;
        for (const rl::StepRecord& s : traj.steps) {
            ASSERT_EQ(rollout.offsets(), s.offsets_before);
            EXPECT_EQ(rollout.metrics().sum_abs_epe, s.sum_abs_epe_before);
            std::vector<int> moves(s.actions.size());
            std::transform(s.actions.begin(), s.actions.end(), moves.begin(), rl::action_to_move);
            for (std::size_t i = 0; i < moves.size(); ++i) {
                clamped |= std::abs(s.offsets_before[i] + moves[i]) > opt.max_total_offset_nm;
            }
            rollout.step(moves);
            for (int o : rollout.offsets()) EXPECT_LE(std::abs(o), opt.max_total_offset_nm);
        }
        EXPECT_TRUE(clamped) << "the offset clamp never bound";
        EXPECT_EQ(rollout.metrics().sum_abs_epe, traj.final_sum_abs_epe);
    }
}

TEST_F(OpcEngineTest, IltReducesContourLoss) {
    IltEngine ilt({.iterations = 10, .step = 4.0, .mask_steepness = 4.0, .resist_steepness = 40.0});
    const IltResult res = ilt.optimize(via_layout(), *sim_);
    EXPECT_LT(res.final_loss, res.initial_loss);
    EXPECT_EQ(res.loss_history.size(), 11U);
    EXPECT_GE(res.sum_abs_epe, 0.0);
}

TEST_F(OpcEngineTest, OneShotWindowObjectiveCarriesFinalSweep) {
    OneShotEngine engine;
    OpcOptions opt;
    opt.objective = rl::RewardMode::kWorstCorner;
    litho::LithoSim sim(*sim_);
    const EngineResult res = engine.optimize(via_layout(), sim, opt);
    EXPECT_EQ(res.iterations, 1);
    ASSERT_TRUE(res.final_window.has_value());
    EXPECT_EQ(res.final_window->corners.size(), 6U);  // standard window
    // The objective view reports the worst corner.
    EXPECT_EQ(res.final_metrics.sum_abs_epe, res.final_window->worst_epe);
    EXPECT_EQ(res.final_metrics.pvband_nm2, res.final_window->pv_band_exact_nm2);
    // Worst corner never beats nominal.
    ASSERT_NE(res.final_window->nominal_corner(), nullptr);
    EXPECT_GE(res.final_window->worst_epe,
              res.final_window->nominal_corner()->metrics.sum_abs_epe);
}

TEST_F(OpcEngineTest, TrajectoryCarriesWindowMetricsUnderWindowObjective) {
    RuleEngine teacher({.gain = 0.6, .max_step_nm = 2, .early_exit = false});
    OpcOptions opt;
    opt.objective = rl::RewardMode::kWorstCorner;
    litho::LithoSim sim(*sim_);
    const rl::Trajectory traj = teacher.record_trajectory(via_layout(), sim, opt, 3);
    ASSERT_EQ(traj.steps.size(), 3U);
    for (const rl::StepRecord& s : traj.steps) {
        EXPECT_GT(s.worst_epe_before, 0.0);
        EXPECT_GE(s.worst_epe_before, s.sum_abs_epe_before - 1e-9);
        EXPECT_GT(s.pv_band_exact_before, 0.0);
        EXPECT_EQ(s.corner_epe_before.size(), 6U);
        EXPECT_EQ(*std::max_element(s.corner_epe_before.begin(), s.corner_epe_before.end()),
                  s.worst_epe_before);
    }
    EXPECT_GT(traj.final_worst_epe, 0.0);
    EXPECT_EQ(traj.final_corner_epe.size(), 6U);
    // The teacher improves the worst corner over its trajectory.
    EXPECT_LT(traj.final_worst_epe, traj.steps.front().worst_epe_before);

    // Nominal trajectories leave the window fields empty, as before.
    const rl::Trajectory plain = teacher.record_trajectory(via_layout(), sim, OpcOptions{}, 2);
    EXPECT_EQ(plain.steps.front().corner_epe_before.size(), 0U);
    EXPECT_EQ(plain.final_worst_epe, 0.0);
}

TEST_F(OpcEngineTest, IltWindowObjectiveReducesWorstCornerLoss) {
    const IltOptions base{.iterations = 8, .step = 4.0, .mask_steepness = 4.0,
                          .resist_steepness = 40.0};
    // Nominal path is byte-compatible with the legacy single-corner loss.
    IltEngine nominal(base);
    const IltResult nom = nominal.optimize(via_layout(), *sim_);
    EXPECT_LT(nom.final_loss, nom.initial_loss);
    EXPECT_EQ(nom.worst_corner_epe, 0.0);
    ASSERT_EQ(nom.corner_loss.size(), 1U);
    EXPECT_EQ(nom.corner_loss.front(), nom.final_loss);

    IltOptions wopt = base;
    wopt.objective = rl::RewardMode::kWorstCorner;
    IltEngine worst(wopt);
    const IltResult wres = worst.optimize(via_layout(), *sim_);
    EXPECT_LT(wres.final_loss, wres.initial_loss);
    EXPECT_EQ(wres.corner_loss.size(), 6U);  // standard window
    // final_loss is the max corner loss in worst mode.
    EXPECT_EQ(*std::max_element(wres.corner_loss.begin(), wres.corner_loss.end()),
              wres.final_loss);
    EXPECT_GT(wres.worst_corner_epe, 0.0);
    EXPECT_GE(wres.worst_corner_epe, wres.sum_abs_epe - 1e-9);

    IltOptions mean_opt = base;
    mean_opt.objective = rl::RewardMode::kWeightedCorner;
    mean_opt.corner_weights = {1.0, 1.0, 1.0, 1.0, 1.0, 2.0};
    IltEngine weighted(mean_opt);
    const IltResult mres = weighted.optimize(via_layout(), *sim_);
    EXPECT_LT(mres.final_loss, mres.initial_loss);
    EXPECT_EQ(mres.corner_loss.size(), 6U);
}

TEST(OpcExit, EarlyExitRules) {
    OpcOptions opt;
    opt.exit_epe_per_feature = 4.0;
    EXPECT_TRUE(should_exit_early(7.9, 2, 8, opt));   // 3.95 per via
    EXPECT_FALSE(should_exit_early(8.1, 2, 8, opt));  // 4.05 per via

    OpcOptions metal;
    metal.exit_epe_per_point = 1.0;
    EXPECT_TRUE(should_exit_early(63.0, 5, 64, metal));
    EXPECT_FALSE(should_exit_early(65.0, 5, 64, metal));

    OpcOptions off;
    EXPECT_FALSE(should_exit_early(0.0, 2, 8, off));  // both rules disabled
}

TEST(Sraf, IsolatedViaGetsFourBars) {
    const std::vector<geo::Polygon> targets = {geo::Polygon::from_rect({500, 500, 570, 570})};
    const auto srafs = insert_srafs(targets);
    EXPECT_EQ(srafs.size(), 4U);
    for (const auto& bar : srafs) {
        EXPECT_GE(geo::rect_gap(bar.bbox(), targets[0].bbox()), 50);
    }
}

TEST(Sraf, CrowdedViasDropConflictingBars) {
    // Two vias 150 nm apart (edge to edge): bars between them must be
    // dropped by the clearance rule.
    const std::vector<geo::Polygon> targets = {geo::Polygon::from_rect({500, 500, 570, 570}),
                                               geo::Polygon::from_rect({720, 500, 790, 570})};
    const auto srafs = insert_srafs(targets);
    EXPECT_LT(srafs.size(), 8U);
    for (const auto& bar : srafs) {
        for (const auto& t : targets) EXPECT_GE(geo::rect_gap(bar.bbox(), t.bbox()), 50);
        for (const auto& other : srafs) {
            if (&other == &bar) continue;
            EXPECT_GE(geo::rect_gap(bar.bbox(), other.bbox()), 50);
        }
    }
}

TEST(Reward, EquationThreeProperties) {
    // Improvement in both terms -> positive reward.
    EXPECT_GT(rl::step_reward(10.0, 5.0, 1000.0, 900.0), 0.0);
    // Pure EPE improvement of 50%: epe term ~ 0.5.
    EXPECT_NEAR(rl::step_reward(10.0, 5.0, 1000.0, 1000.0), 5.0 / 10.1, 1e-9);
    // Degradation -> negative.
    EXPECT_LT(rl::step_reward(5.0, 10.0, 1000.0, 1100.0), 0.0);
    // Zero PVB before: the PV term is skipped, no division by zero.
    const double r = rl::step_reward(10.0, 8.0, 0.0, 100.0);
    EXPECT_NEAR(r, 2.0 / 10.1, 1e-9);
    // Beta scales the PV term.
    const double r_b2 = rl::step_reward(10.0, 10.0, 1000.0, 500.0, {.epsilon = 0.1, .beta = 2.0});
    EXPECT_NEAR(r_b2, 1.0, 1e-9);
}

}  // namespace
}  // namespace camo::opc
