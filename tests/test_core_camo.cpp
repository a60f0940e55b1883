// End-to-end tests of the CAMO engine: training reduces imitation loss,
// inference with the modulator drives EPE down, and the full pipeline is
// deterministic and serializable.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>

#include "core/camo.hpp"
#include "core/graph.hpp"
#include "nn/softmax.hpp"
#include "opc/sraf.hpp"
#include "rl/trajectory.hpp"

namespace camo::core {
namespace {

class CamoTest : public ::testing::Test {
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

    static CamoConfig tiny_config() {
        CamoConfig cfg;
        cfg.policy.squish_size = 16;
        cfg.policy.embed_dim = 32;
        cfg.policy.rnn_hidden = 16;
        cfg.policy.rnn_layers = 2;
        cfg.policy.conv_base = 4;
        cfg.squish.size = 16;
        cfg.squish.window_nm = 500;
        cfg.phase1_epochs = 15;
        cfg.phase2_episodes = 1;
        cfg.seed = 5;
        return cfg;
    }

    static geo::SegmentedLayout via_layout(int x_shift = 0) {
        const int clip = 1000;
        const int lo = clip / 2 - 35 + x_shift;
        std::vector<geo::Polygon> targets = {geo::Polygon::from_rect({lo, lo, lo + 70, lo + 70})};
        auto srafs = opc::insert_srafs(targets);
        return geo::SegmentedLayout(std::move(targets), {geo::FragmentStyle::kVia, 60},
                                    std::move(srafs), clip);
    }

    static opc::OpcOptions via_options() {
        opc::OpcOptions opt;
        opt.max_iterations = 10;
        opt.exit_epe_per_feature = 4.0;
        opt.initial_bias_nm = 3;
        return opt;
    }

    static litho::LithoSim* sim_;
};

litho::LithoSim* CamoTest::sim_ = nullptr;

TEST_F(CamoTest, ConfigMismatchThrows) {
    CamoConfig bad = tiny_config();
    bad.squish.size = 8;  // != policy.squish_size
    EXPECT_THROW(CamoEngine engine(bad), std::invalid_argument);
}

TEST_F(CamoTest, UntrainedWithModulatorStillImproves) {
    // The modulator alone turns a random policy into damped EPE feedback:
    // starting from the raw target (no bias), optimization must improve the
    // mask substantially.
    CamoEngine engine(tiny_config());
    opc::OpcOptions opt = via_options();
    opt.initial_bias_nm = 0;
    const auto res = engine.optimize(via_layout(), *sim_, opt);
    EXPECT_LT(res.final_metrics.sum_abs_epe, res.epe_history.front() * 0.7);
    EXPECT_EQ(res.epe_history.size(), static_cast<std::size_t>(res.iterations) + 1);
}

TEST_F(CamoTest, Phase1LossDecreases) {
    CamoEngine engine(tiny_config());
    const std::vector<geo::SegmentedLayout> clips = {via_layout()};
    const TrainStats stats = engine.train(clips, *sim_, via_options());
    ASSERT_EQ(stats.phase1_inflight_nll.size(), 15U);
    EXPECT_LT(stats.phase1_inflight_nll.back(), stats.phase1_inflight_nll.front());
    ASSERT_EQ(stats.phase2_reward.size(), 1U);
}

TEST_F(CamoTest, TrainedEngineMeetsEarlyExitOnTrainingClip) {
    CamoConfig cfg = tiny_config();
    cfg.phase1_epochs = 25;
    CamoEngine engine(cfg);
    const std::vector<geo::SegmentedLayout> clips = {via_layout()};
    (void)engine.train(clips, *sim_, via_options());

    const auto res = engine.optimize(clips[0], *sim_, via_options());
    // Early-exit rule: sum |EPE| / #vias < 4 nm.
    EXPECT_LT(res.final_metrics.sum_abs_epe, 3.0 * 4.0 + 6.0);
    EXPECT_LE(res.iterations, via_options().max_iterations);
}

TEST_F(CamoTest, ModulatorToggleChangesBehaviour) {
    CamoEngine engine(tiny_config());
    EXPECT_TRUE(engine.modulator_enabled());
    const auto with = engine.optimize(via_layout(), *sim_, via_options());
    engine.set_modulator_enabled(false);
    EXPECT_FALSE(engine.modulator_enabled());
    const auto without = engine.optimize(via_layout(), *sim_, via_options());
    // An untrained policy without modulation must do worse (paper Fig. 5).
    EXPECT_LE(with.final_metrics.sum_abs_epe, without.final_metrics.sum_abs_epe + 1e-9);
}

TEST_F(CamoTest, WeightsRoundtripPreservesInference) {
    const std::string path = testing::TempDir() + "camo_weights_it.bin";
    CamoEngine a(tiny_config());
    const std::vector<geo::SegmentedLayout> clips = {via_layout()};
    (void)a.train(clips, *sim_, via_options());
    a.save_weights(path);

    CamoConfig cfg_b = tiny_config();
    cfg_b.seed = 777;  // different init, must not matter after load
    CamoEngine b(cfg_b);
    ASSERT_TRUE(b.load_weights(path));

    const auto ra = a.optimize(clips[0], *sim_, via_options());
    const auto rb = b.optimize(clips[0], *sim_, via_options());
    EXPECT_EQ(ra.final_offsets, rb.final_offsets);
    std::remove(path.c_str());
}

TEST_F(CamoTest, RlOpcConfigDisablesCorrelationMachinery) {
    const CamoConfig base = tiny_config();
    const CamoConfig rlopc = make_rlopc_config(base);
    EXPECT_FALSE(rlopc.policy.use_gnn);
    EXPECT_FALSE(rlopc.policy.use_rnn);
    EXPECT_FALSE(rlopc.modulator.enabled);
    EXPECT_EQ(rlopc.name, "rl-opc");
    EXPECT_TRUE(base.policy.use_gnn);  // base untouched

    CamoEngine engine(rlopc);
    EXPECT_EQ(engine.name(), "rl-opc");
    const auto res = engine.optimize(via_layout(), *sim_, via_options());
    EXPECT_GE(res.iterations, 1);
}

TEST_F(CamoTest, EncodeStateShapes) {
    CamoEngine engine(tiny_config());
    const auto layout = via_layout();
    const std::vector<int> offsets(static_cast<std::size_t>(layout.num_segments()), 3);
    const auto feats = engine.encode_state(layout, offsets);
    ASSERT_EQ(static_cast<int>(feats.size()), layout.num_segments());
    for (const auto& f : feats) EXPECT_EQ(f.shape(), (std::vector<int>{6, 16, 16}));
}

// The policy side of the action frame: with the modulator off, one inference
// step moves each segment by the policy's most probable action (the first
// maximum of its softmax), mapped through rl::actions_to_moves and clamped
// to +/- max_total_offset_nm. The tight bound sits below the initial bias,
// so the clamp bites on every move that is not negative.
TEST_F(CamoTest, InferAppliesPolicyArgmaxThroughActionFrame) {
    CamoEngine engine(tiny_config());
    engine.set_modulator_enabled(false);
    const auto layout = via_layout();
    const Graph graph = build_segment_graph(layout, engine.config().graph_threshold_nm);
    for (const int bound : {25, 2}) {
        SCOPED_TRACE("max_total_offset_nm=" + std::to_string(bound));
        opc::OpcOptions opt = via_options();
        opt.max_iterations = 1;
        opt.exit_epe_per_feature = 0.0;  // never exit before the one step
        opt.max_total_offset_nm = bound;
        const std::vector<int> initial(static_cast<std::size_t>(layout.num_segments()),
                                       opt.initial_bias_nm);

        const nn::Tensor logits =
            engine.policy().infer(engine.encode_state(layout, initial), graph);
        std::vector<int> actions;
        for (int i = 0; i < logits.dim(0); ++i) {
            std::array<float, rl::kNumActions> row{};
            for (int a = 0; a < rl::kNumActions; ++a) {
                row[static_cast<std::size_t>(a)] = logits.at(i, a);
            }
            const auto p = nn::softmax(std::span<const float>(row.data(), row.size()));
            actions.push_back(static_cast<int>(std::max_element(p.begin(), p.end()) - p.begin()));
        }
        const std::vector<int> moves = rl::actions_to_moves(actions);
        std::vector<int> expected(initial.size());
        for (std::size_t i = 0; i < initial.size(); ++i) {
            expected[i] = std::clamp(initial[i] + moves[i], -bound, bound);
        }

        const auto res = engine.infer(layout, *sim_, opt);
        EXPECT_EQ(res.iterations, 1);
        EXPECT_EQ(res.final_offsets, expected);
    }
}

TEST_F(CamoTest, DeterministicInferenceAcrossRuns) {
    CamoEngine a(tiny_config());
    CamoEngine b(tiny_config());
    const auto layout = via_layout();
    const auto ra = a.optimize(layout, *sim_, via_options());
    const auto rb = b.optimize(layout, *sim_, via_options());
    EXPECT_EQ(ra.final_offsets, rb.final_offsets);
    EXPECT_EQ(ra.iterations, rb.iterations);
}

}  // namespace
}  // namespace camo::core
