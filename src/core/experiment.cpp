#include "core/experiment.hpp"

#include <bit>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>

#include "common/file_io.hpp"
#include "common/logging.hpp"
#include "opc/sraf.hpp"

namespace camo::core {
namespace {

std::uint64_t fnv_mix(std::uint64_t h, long long v) {
    for (int i = 0; i < 8; ++i) {
        h ^= static_cast<std::uint64_t>(v >> (8 * i)) & 0xFFU;
        h *= 1099511628211ULL;
    }
    return h;
}

}  // namespace

bool Experiment::full_scale() {
    const char* env = std::getenv("CAMO_BENCH_FULL");
    return env != nullptr && env[0] == '1';
}

litho::LithoConfig Experiment::litho_config() {
    litho::LithoConfig cfg;
    cfg.grid = 512;
    cfg.pixel_nm = 4.0;
    cfg.kernels_nominal = 8;
    cfg.kernels_defocus = 6;
    cfg.cache_dir = "data";
    return cfg;
}

opc::OpcOptions Experiment::via_options() {
    opc::OpcOptions opt;
    opt.max_iterations = 10;
    opt.exit_epe_per_feature = 4.0;
    opt.initial_bias_nm = 3;
    return opt;
}

opc::OpcOptions Experiment::metal_options() {
    opc::OpcOptions opt;
    opt.max_iterations = 15;
    opt.exit_epe_per_point = 1.0;
    opt.initial_bias_nm = 0;
    return opt;
}

CamoConfig Experiment::via_camo_config() {
    CamoConfig cfg;
    cfg.name = "camo-via";
    cfg.seed = 7;
    cfg.teacher_biases = {3, 0, 8};
    if (full_scale()) {
        cfg.policy.squish_size = 128;  // paper: 128x128x6 via tensors
        cfg.squish.size = 128;
        cfg.phase1_epochs = 500;  // paper
        cfg.phase2_episodes = 8;
    } else {
        cfg.policy.squish_size = 32;
        cfg.squish.size = 32;
        cfg.phase1_epochs = 60;
        cfg.phase2_episodes = 0;
    }
    return cfg;
}

CamoConfig Experiment::metal_camo_config() {
    CamoConfig cfg;
    cfg.name = "camo-metal";
    cfg.seed = 11;
    cfg.teacher_biases = {0, 4};
    if (full_scale()) {
        cfg.policy.squish_size = 64;  // paper: 64x64x6 metal tensors
        cfg.squish.size = 64;
        cfg.phase1_epochs = 500;
        cfg.phase2_episodes = 8;
    } else {
        cfg.policy.squish_size = 32;
        cfg.squish.size = 32;
        cfg.phase1_epochs = 35;
        cfg.phase2_episodes = 0;
    }
    return cfg;
}

CamoConfig Experiment::via_rlopc_config() {
    CamoConfig cfg = make_rlopc_config(via_camo_config());
    cfg.phase1_epochs = cfg.phase1_epochs / 3;
    cfg.phase2_episodes = 0;
    return cfg;
}

CamoConfig Experiment::metal_rlopc_config() {
    CamoConfig cfg = make_rlopc_config(metal_camo_config());
    cfg.phase1_epochs = cfg.phase1_epochs / 3;
    cfg.phase2_episodes = 0;
    return cfg;
}

std::string Experiment::weights_path(const CamoConfig& cfg, const std::string& layer_tag,
                                     rl::RewardMode objective) {
    // Bumped whenever the trainer's update schedule, RNG derivation or the
    // set of hashed fields changes, so weights cached by an older trainer are
    // never silently served as if the current trainer produced them (v2:
    // data-parallel trainer; v3: the key covers every field below).
    constexpr long long kTrainerSchemaVersion = 3;

    std::uint64_t h = 14695981039346656037ULL;
    h = fnv_mix(h, kTrainerSchemaVersion);
    // Window modes both hash AND tag the name, keeping the distinction
    // visible in data/ listings; nominal mode contributes nothing.
    std::string tag = layer_tag;
    if (objective != rl::RewardMode::kNominal) {
        h = fnv_mix(h, static_cast<long long>(objective));
        tag += std::string("-") + rl::reward_mode_name(objective);
    }
    // Every CamoConfig field that changes the trained bytes. train_workers
    // is deliberately NOT hashed: the trainer's fixed-order gradient
    // reduction makes the trained weights bit-identical at any worker
    // count, so weights cached at one worker count serve every other.
    const auto mix_real = [&h](double v) {
        h = fnv_mix(h, std::bit_cast<long long>(v));
    };
    h = fnv_mix(h, cfg.policy.squish_size);
    h = fnv_mix(h, cfg.policy.embed_dim);
    h = fnv_mix(h, cfg.policy.rnn_hidden);
    h = fnv_mix(h, cfg.policy.rnn_layers);
    h = fnv_mix(h, cfg.policy.conv_base);
    h = fnv_mix(h, cfg.policy.use_gnn ? 1 : 0);
    h = fnv_mix(h, cfg.policy.use_rnn ? 1 : 0);
    h = fnv_mix(h, static_cast<long long>(cfg.policy.seed));
    mix_real(cfg.modulator.k);
    h = fnv_mix(h, cfg.modulator.n);
    mix_real(cfg.modulator.b);
    h = fnv_mix(h, cfg.modulator.enabled ? 1 : 0);
    mix_real(cfg.reward.epsilon);
    mix_real(cfg.reward.beta);
    h = fnv_mix(h, cfg.squish.window_nm);
    h = fnv_mix(h, cfg.squish.size);
    mix_real(cfg.graph_threshold_nm);
    mix_real(cfg.lr);
    mix_real(cfg.clip_norm);
    mix_real(cfg.weight_decay);
    h = fnv_mix(h, cfg.phase1_epochs);
    h = fnv_mix(h, cfg.teacher_steps);
    h = fnv_mix(h, cfg.phase2_episodes);
    h = fnv_mix(h, cfg.phase1_batch);
    mix_real(cfg.phase2_lr_scale);
    h = fnv_mix(h, static_cast<long long>(cfg.teacher_biases.size()));
    for (int b : cfg.teacher_biases) h = fnv_mix(h, b);
    h = fnv_mix(h, static_cast<long long>(Experiment::kDatasetSeed));
    h = fnv_mix(h, static_cast<long long>(cfg.seed));
    return "data/weights_" + cfg.name + "_" + tag + "_" + std::to_string(h) + ".bin";
}

std::vector<geo::SegmentedLayout> fragment_via_clips(const std::vector<layout::Clip>& clips) {
    std::vector<geo::SegmentedLayout> out;
    out.reserve(clips.size());
    for (const layout::Clip& c : clips) {
        auto srafs = opc::insert_srafs(c.targets);
        out.emplace_back(c.targets, geo::FragmentOptions{geo::FragmentStyle::kVia, 60},
                         std::move(srafs), c.clip_nm);
    }
    return out;
}

std::vector<geo::SegmentedLayout> fragment_metal_clips(const std::vector<layout::Clip>& clips) {
    std::vector<geo::SegmentedLayout> out;
    out.reserve(clips.size());
    for (const layout::Clip& c : clips) {
        out.emplace_back(c.targets, geo::FragmentOptions{geo::FragmentStyle::kMetal, 60},
                         std::vector<geo::Polygon>{}, c.clip_nm);
    }
    return out;
}

bool ensure_trained(CamoEngine& engine, const std::vector<geo::SegmentedLayout>& train_clips,
                    litho::LithoSim& sim, const opc::OpcOptions& opt,
                    const std::string& cache_path) {
    if (!cache_path.empty() && file_exists(cache_path) && engine.load_weights(cache_path)) {
        log_info(engine.name() + ": loaded cached weights from " + cache_path);
        return true;
    }
    log_info(engine.name() + ": training (one-time, cached afterwards)");
    (void)engine.train(train_clips, sim, opt);
    if (!cache_path.empty()) {
        const std::filesystem::path parent = std::filesystem::path(cache_path).parent_path();
        if (!parent.empty()) std::filesystem::create_directories(parent);
        engine.save_weights(cache_path);
    }
    return false;
}

bool ensure_trained(CamoEngine& engine, const std::string& layer, rl::RewardMode objective) {
    const bool via = layer == "via";
    if (!via && layer != "metal") {
        throw std::invalid_argument("ensure_trained: unknown layer '" + layer +
                                    "' (known: via, metal)");
    }
    opc::OpcOptions opt = via ? Experiment::via_options() : Experiment::metal_options();
    opt.objective = objective;
    const std::vector<geo::SegmentedLayout> clips =
        via ? fragment_via_clips(layout::via_training_set(Experiment::kDatasetSeed))
            : fragment_metal_clips(layout::metal_training_set(Experiment::kDatasetSeed, 5));
    litho::LithoSim sim(Experiment::litho_config());
    return ensure_trained(engine, clips, sim, opt,
                          Experiment::weights_path(engine.config(), layer, objective));
}

}  // namespace camo::core
