// Experiment presets: the exact configurations behind the paper's tables
// and figures, shared by the benchmark harness, the examples and the
// pre-training tool.
//
// Two scales exist:
//   quick (default) - sized so the full benchmark suite runs on one CPU
//                     core in minutes: 4 nm pixels, 32x32x6 squish tensors,
//                     reduced epochs.
//   full (CAMO_BENCH_FULL=1) - paper-scale settings: 128x128x6 via /
//                     64x64x6 metal tensors and long training.
// Trained weights are cached under data/ keyed by a configuration hash, so
// repeated benchmark runs skip training.
#pragma once

#include <string>
#include <vector>

#include "core/camo.hpp"
#include "layout/metal_gen.hpp"
#include "layout/via_gen.hpp"

namespace camo::core {

struct Experiment {
    /// True when CAMO_BENCH_FULL=1 is set in the environment.
    static bool full_scale();

    /// Production lithography model: 193 nm immersion, NA 1.35, annular
    /// 0.6-0.9, 512x512 grid at 4 nm pixels, kernel cache under data/.
    static litho::LithoConfig litho_config();

    /// Paper via-layer protocol: <= 10 iterations, early exit at
    /// sum|EPE|/#vias < 4 nm, +3 nm initial outward bias.
    static opc::OpcOptions via_options();

    /// Paper metal-layer protocol: <= 15 iterations, early exit at mean
    /// |EPE| per measure point < 1 nm, unbiased initial mask.
    static opc::OpcOptions metal_options();

    static CamoConfig via_camo_config();
    static CamoConfig metal_camo_config();

    /// RL-OPC baseline [12]: CAMO stack minus GNN/RNN/modulator. Trained
    /// with a reduced budget, mirroring its weaker convergence in the paper.
    static CamoConfig via_rlopc_config();
    static CamoConfig metal_rlopc_config();

    /// Dataset seed shared by every bench so results are reproducible.
    static constexpr std::uint64_t kDatasetSeed = 42;

    /// Weight-cache path for an engine configuration ("" if caching is
    /// impossible). Encodes the architecture, trainer settings and the
    /// training reward mode — a policy trained under one objective must
    /// never be silently served to runs requesting another.
    static std::string weights_path(const CamoConfig& cfg, const std::string& layer_tag,
                                    rl::RewardMode objective = rl::RewardMode::kNominal);
};

/// Fragment via clips (SRAF insertion included) into segmented layouts.
std::vector<geo::SegmentedLayout> fragment_via_clips(const std::vector<layout::Clip>& clips);

/// Fragment metal clips (60 nm measure pitch, no SRAFs).
std::vector<geo::SegmentedLayout> fragment_metal_clips(const std::vector<layout::Clip>& clips);

/// Load cached weights if present; otherwise train and store them.
/// Returns true when weights came from the cache.
bool ensure_trained(CamoEngine& engine, const std::vector<geo::SegmentedLayout>& train_clips,
                    litho::LithoSim& sim, const opc::OpcOptions& opt,
                    const std::string& cache_path);

/// The paper-trained policy of a layer ("via" or "metal") for `objective`:
/// loads Experiment::weights_path(engine.config(), layer, objective) if it
/// exists, otherwise trains `engine` on that layer's paper training set
/// (via_training_set(kDatasetSeed) or metal_training_set(kDatasetSeed, 5),
/// fragmented) under via_options() / metal_options() with only `objective`
/// set, and stores the weights there. No per-run protocol override reaches
/// training, so the cache key names everything the weights were trained
/// under. Throws std::invalid_argument on another layer. Returns true when
/// the weights came from the cache.
bool ensure_trained(CamoEngine& engine, const std::string& layer,
                    rl::RewardMode objective = rl::RewardMode::kNominal);

}  // namespace camo::core
