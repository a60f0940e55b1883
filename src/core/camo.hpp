// CamoEngine: the paper's OPC system, tying together squish encoding, the
// segment graph, the correlation-aware policy network, the OPC-inspired
// modulator and REINFORCE training.
//
// Training is two-phase (paper Algorithm 1):
//   Phase 1 imitates 5-step trajectories recorded from the rule-based
//   engine (the Calibre stand-in): a cross-entropy / policy-gradient update
//   toward the teacher's actions.
//   Phase 2 runs modulated RL: actions are sampled from the elementwise
//   product of the policy output and the modulation vector, the reward is
//   Eq. (3), and the update is Eq. (7) on the *unmodulated* policy output.
//
// Inference picks argmax of the modulated probability per segment and stops
// on the paper's early-exit rules.
#pragma once

#include <array>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/modulator.hpp"
#include "core/policy.hpp"
#include "core/squish.hpp"
#include "nn/adam.hpp"
#include "opc/engine.hpp"
#include "opc/rule_engine.hpp"
#include "rl/reward.hpp"

namespace camo::rl {
class TrajStoreReader;
class TrajStoreWriter;
}  // namespace camo::rl

namespace camo::core {

struct CamoConfig {
    PolicyConfig policy;
    ModulatorConfig modulator;

    /// Base Eq. (3) parameters (epsilon, beta). The reward *mode* — nominal,
    /// worst-corner or weighted-corner — is per-run, carried by
    /// opc::OpcOptions::objective: under a window objective, phase-2 updates
    /// and inference both ride evaluate_window_incremental and score steps
    /// with rl::window_step_reward built from this base config.
    rl::RewardConfig reward;
    SquishOptions squish;  ///< squish.size must equal policy.squish_size
    double graph_threshold_nm = 250.0;

    /// Adam hyper-parameters. The paper uses SGD (lr 3e-4) over 500 GPU
    /// epochs; Adam reaches the same imitation accuracy in far fewer CPU
    /// epochs because it rescales the small discriminative gradient component.
    float lr = 1e-3F;
    float clip_norm = 5.0F;  ///< global gradient-norm bound
    float weight_decay = 1e-4F;

    int phase1_epochs = 60;   ///< paper: 500 (quick default for CPU runs)
    int teacher_steps = 5;    ///< paper: five-step Calibre trajectories
    int phase2_episodes = 4;  ///< RL fine-tuning episodes over the train set

    /// Data-parallel training runtime: worker count for teacher-trajectory
    /// collection and minibatch gradient computation. 1 = serial in the
    /// calling thread; <= 0 = all hardware threads. Results (loss/reward
    /// traces and trained weights) are BIT-IDENTICAL at any value — each
    /// (clip, bias) collection job and each minibatch sample is computed
    /// independently on a per-worker simulator / policy replica and merged
    /// in canonical order (nn::reduce_in_order) — so this is a throughput
    /// knob only and deliberately not part of the weight-cache key. At the
    /// default phase1_batch = 1 every phase-1 step has one sample and runs
    /// serially: the workers then parallelize teacher collection and the
    /// phase-2 waves only.
    int train_workers = 1;

    /// Phase-1 minibatch size: samples whose gradients are accumulated
    /// (per-sample shadow buffers, fixed-order reduction) before each
    /// optimizer step. 1 = per-sample steps, the schedule the paper's SGD
    /// uses (and the serial-trainer behaviour of earlier revisions);
    /// <= 0 = one whole-epoch batch. Parallel speedup of a phase-1 epoch is
    /// bounded by this: samples within a minibatch run concurrently,
    /// minibatches are sequential because each one sees the weights the
    /// previous step produced.
    int phase1_batch = 1;

    /// Step-size multiplier for the REINFORCE phase. The per-step global
    /// reward gives poor per-segment credit assignment, so full-size
    /// updates can erase a good imitation policy in a few noisy episodes.
    float phase2_lr_scale = 0.2F;

    /// Initial biases for teacher trajectory collection. Multiple starts
    /// cover both over- and under-printed states (a single +3 nm start
    /// never visits negative-EPE states, leaving the policy blind there).
    /// Empty = use OpcOptions::initial_bias_nm only.
    std::vector<int> teacher_biases;

    std::string name = "camo";
    std::uint64_t seed = 1;
};

struct TrainStats {
    /// Per epoch, the in-flight mean NLL: the mean of each sample's loss
    /// before its own update. It does not score the epoch's final weights.
    std::vector<double> phase1_inflight_nll;
    std::vector<double> phase2_reward;   ///< mean step reward per episode
};

/// One phase-1 imitation sample: the squish features of the mask state a
/// teacher step observed and the action the teacher took per segment.
struct TeacherSample {
    int clip = 0;
    std::vector<nn::Tensor> features;
    std::vector<int> actions;
};

/// The phase-1 imitation dataset: samples in canonical (clip, bias, step)
/// order, per-clip segment graphs, inverse-frequency action weights, and the
/// raw teacher trajectories in (clip, bias) job order (with provenance set).
struct Phase1Dataset {
    std::vector<TeacherSample> samples;
    std::vector<Graph> graphs;  ///< indexed by clip
    std::array<float, rl::kNumActions> action_weight{};
    std::vector<rl::Trajectory> trajectories;
};

/// Appends every trajectory of `data` (with its steps' squish features) to
/// `store` in the dataset's job order, then flushes once. The dataset order
/// is canonical, so the published bytes never depend on the worker count
/// that collected it; CamoEngine::load_teacher_data reads them back.
void write_teacher_data(const Phase1Dataset& data, rl::TrajStoreWriter& store);

class CamoEngine : public opc::Engine {
public:
    explicit CamoEngine(CamoConfig cfg);
    ~CamoEngine() override;

    [[nodiscard]] std::string name() const override { return cfg_.name; }

    opc::EngineResult optimize(const geo::SegmentedLayout& layout, litho::LithoSim& sim,
                               const opc::OpcOptions& opt) override;

    /// Read-only inference: the same loop as optimize() (modulated argmax,
    /// paper early-exit rules) but const w.r.t. the engine, so one trained
    /// snapshot can serve many batch workers concurrently — each worker must
    /// pass its own simulator (the incremental-evaluation cache inside
    /// LithoSim is per-instance, not shared). When `rng` is non-null,
    /// actions are sampled from the modulated distribution instead of
    /// argmax'd; pass a per-job Rng (seeded from the job index) so results
    /// stay independent of scheduling.
    [[nodiscard]] opc::EngineResult infer(const geo::SegmentedLayout& layout,
                                          litho::LithoSim& sim, const opc::OpcOptions& opt,
                                          Rng* rng = nullptr) const;

    /// Two-phase training on a set of fragmented clips. Runs on the
    /// data-parallel training runtime (cfg.train_workers): teacher
    /// trajectories are collected in parallel over (clip, bias) jobs, and
    /// both phases accumulate per-sample gradients into detached buffers
    /// merged in canonical order before each optimizer step, so the returned
    /// traces and the trained weights are bit-identical at any worker count.
    /// Degenerate inputs (no clips, no teacher steps, clips without
    /// segments) yield finite zero stats and leave the weights untouched.
    TrainStats train(const std::vector<geo::SegmentedLayout>& clips, litho::LithoSim& sim,
                     const opc::OpcOptions& opt);

    /// Phase-1 teacher collection: record a rule-engine trajectory for every
    /// (clip, bias) job — clip-major, bias-minor — and encode each step's
    /// squish features. Jobs run in parallel on the training runtime, each
    /// on its own simulator copy (record_trajectory primes the incremental
    /// cache with a full rebuild, so results never depend on scheduling);
    /// the gathered dataset is bit-identical at any cfg.train_workers.
    /// Clips without segments contribute no jobs.
    Phase1Dataset collect_teacher_data(const std::vector<geo::SegmentedLayout>& clips,
                                       litho::LithoSim& sim, const opc::OpcOptions& opt);

    /// The inverse of write_teacher_data: decodes every store step once into
    /// a sample, in store step (= canonical collection) order, fills
    /// `trajectories` through TrajStoreReader::decode, and builds graphs and
    /// action weights exactly as collect_teacher_data does — so the loaded
    /// dataset equals the collected one field for field, and training on it
    /// yields byte-identical weights. Cross-checks the store against `clips`
    /// (feature tensors present and shaped for this engine's squish config,
    /// clip indices in range, per-clip segment counts equal) and throws
    /// std::invalid_argument on any mismatch — a store is never silently
    /// trained against the wrong clip set.
    [[nodiscard]] Phase1Dataset load_teacher_data(
        const rl::TrajStoreReader& store,
        const std::vector<geo::SegmentedLayout>& clips) const;

    /// One phase-1 imitation epoch over the dataset (class-weighted NLL,
    /// minibatched per cfg.phase1_batch, per-sample gradients reduced in
    /// fixed order). Returns the epoch's in-flight mean NLL per node (each
    /// loss taken before its own update) — finite (0.0) and step-free when
    /// the dataset is empty.
    double run_phase1_epoch(const Phase1Dataset& data);

    /// Toggle the modulator (paper Section 4.4 / Figure 5 ablation).
    void set_modulator_enabled(bool enabled) { cfg_.modulator.enabled = enabled; }
    [[nodiscard]] bool modulator_enabled() const { return cfg_.modulator.enabled; }

    void save_weights(const std::string& path) { policy_.save(path); }
    [[nodiscard]] bool load_weights(const std::string& path) { return policy_.load(path); }

    [[nodiscard]] PolicyNetwork& policy() { return policy_; }
    [[nodiscard]] const CamoConfig& config() const { return cfg_; }

    /// Per-node squish features of the mask state given by `offsets`.
    [[nodiscard]] std::vector<nn::Tensor> encode_state(const geo::SegmentedLayout& layout,
                                                       std::span<const int> offsets) const;

private:
    CamoConfig cfg_;
    PolicyNetwork policy_;
    nn::Adam adam_;

    /// Lazily-built data-parallel training runtime: a thread pool plus one
    /// policy replica per worker (none when the resolved worker count is 1).
    /// Rebuilt if cfg_.train_workers changes between training calls.
    struct TrainRuntime;
    std::unique_ptr<TrainRuntime> train_rt_;
    TrainRuntime& train_runtime();

    void optimizer_step();

    /// Per-clip segment graphs and inverse-frequency action weights of a
    /// dataset whose samples are already gathered.
    void index_dataset(Phase1Dataset& data, const std::vector<geo::SegmentedLayout>& clips) const;

    /// One optimizer step over `count` samples — the update phase 1 and
    /// phase 2 share. `sample_grad(net, k)` runs sample k's forward pass on
    /// `net` (a master-synced worker replica, or the master itself when
    /// serial) and returns its logit gradient; each sample's parameter
    /// gradient lands in its own buffer, and the buffers are reduced in
    /// sample order before the step, so the result is bit-identical at any
    /// cfg.train_workers.
    template <typename SampleGrad>
    void gradient_step(std::size_t count, const SampleGrad& sample_grad);

    /// One phase-2 lockstep REINFORCE episode: every clip rolls out
    /// synchronously — at each time step the active clips act in parallel
    /// against per-clip simulators with per-(episode, clip) splitmix RNG
    /// streams, their Eq. (7) gradients are reduced in clip order, and one
    /// optimizer step follows. `clip_sims` (one per clip, shared across
    /// episodes) are re-primed with a full rebuild at episode start, so
    /// their carried-over caches never leak into results. Returns the
    /// episode's mean step reward.
    double run_phase2_episode(const std::vector<geo::SegmentedLayout>& clips,
                              const std::vector<Graph>& graphs,
                              std::vector<litho::LithoSim>& clip_sims,
                              const opc::OpcOptions& opt, int episode);
};

/// The RL-OPC baseline [12]: same training scheme, but per-segment
/// independent decisions (no GNN fusion, no RNN) and no modulator.
CamoConfig make_rlopc_config(const CamoConfig& base);

}  // namespace camo::core
