#include "core/camo.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"
#include "nn/grad_buffer.hpp"
#include "nn/softmax.hpp"
#include "obs/trace.hpp"
#include "opc/objective.hpp"
#include "rl/trajstore.hpp"
#include "runtime/thread_pool.hpp"

namespace camo::core {
namespace {

obs::MetricId collect_hist() {
    static const obs::MetricId id = obs::register_histogram("train.collect.ns");
    return id;
}
obs::MetricId teacher_samples_counter() {
    static const obs::MetricId id = obs::register_counter("train.teacher_samples");
    return id;
}
obs::MetricId phase1_epoch_hist() {
    static const obs::MetricId id = obs::register_histogram("train.phase1.epoch.ns");
    return id;
}
obs::MetricId phase2_episode_hist() {
    static const obs::MetricId id = obs::register_histogram("train.phase2.episode.ns");
    return id;
}
obs::MetricId phase2_wave_hist() {
    static const obs::MetricId id = obs::register_histogram("train.phase2.wave.ns");
    return id;
}
obs::MetricId reduce_hist() {
    static const obs::MetricId id = obs::register_histogram("train.reduce.ns");
    return id;
}
obs::MetricId reduction_counter() {
    static const obs::MetricId id = obs::register_counter("train.grad_reductions");
    return id;
}

std::array<float, rl::kNumActions> logit_row(const nn::Tensor& logits, int node) {
    std::array<float, rl::kNumActions> row{};
    for (int a = 0; a < rl::kNumActions; ++a) row[static_cast<std::size_t>(a)] = logits.at(node, a);
    return row;
}

std::array<double, rl::kNumActions> node_probs(const nn::Tensor& logits, int node) {
    const auto row = logit_row(logits, node);
    const auto p = nn::softmax(std::span<const float>(row.data(), row.size()));
    std::array<double, rl::kNumActions> out{};
    for (int a = 0; a < rl::kNumActions; ++a) out[static_cast<std::size_t>(a)] = p[static_cast<std::size_t>(a)];
    return out;
}

// Logit gradient of a per-node policy-gradient objective: row i is
// nn::policy_logit_grad of node i's logits at actions[i] with coefficient
// coef(i). Phase 1 and phase 2 differ only in the coefficient.
template <typename Coef>
nn::Tensor logit_grad(const nn::Tensor& logits, std::span<const int> actions, const Coef& coef) {
    const int n = logits.dim(0);
    nn::Tensor dlogits({n, rl::kNumActions});
    for (int i = 0; i < n; ++i) {
        const auto row = logit_row(logits, i);
        const auto g = nn::policy_logit_grad(std::span<const float>(row.data(), row.size()),
                                             actions[static_cast<std::size_t>(i)], coef(i));
        for (int a = 0; a < rl::kNumActions; ++a) dlogits.at(i, a) = g[static_cast<std::size_t>(a)];
    }
    return dlogits;
}

std::vector<int> pick_actions(const nn::Tensor& logits, const std::vector<double>& epe_segment,
                              const ModulatorConfig& mod, Rng* rng) {
    const int n = logits.dim(0);
    std::vector<int> actions(static_cast<std::size_t>(n), 0);
    for (int i = 0; i < n; ++i) {
        auto probs = node_probs(logits, i);
        probs = modulate_probs(probs, epe_segment[static_cast<std::size_t>(i)], mod);
        if (rng != nullptr) {
            actions[static_cast<std::size_t>(i)] = rng->sample_weighted(probs);
        } else {
            actions[static_cast<std::size_t>(i)] = static_cast<int>(
                std::max_element(probs.begin(), probs.end()) - probs.begin());
        }
    }
    return actions;
}

}  // namespace

CamoConfig make_rlopc_config(const CamoConfig& base) {
    CamoConfig cfg = base;
    cfg.policy.use_gnn = false;
    cfg.policy.use_rnn = false;
    cfg.modulator.enabled = false;
    cfg.name = "rl-opc";
    return cfg;
}

// Per-worker state of the data-parallel training runtime. Workers compute
// per-sample gradients on their own policy replica (synced from the master
// weights before each wave), so the master's Parameter::grad is only ever
// touched by the fixed-order reduction on the coordinating thread.
struct CamoEngine::TrainRuntime {
    int workers = 1;
    std::unique_ptr<runtime::ThreadPool> pool;             ///< null when workers == 1
    std::vector<std::unique_ptr<PolicyNetwork>> replicas;  ///< one per worker when pooled

    /// Copy the master weights into every replica (called once per wave,
    /// after the previous optimizer step made the replicas stale).
    void sync_replicas(PolicyNetwork& master) {
        for (auto& r : replicas) r->copy_weights_from(master);
    }

    /// The replica of the calling pool worker.
    PolicyNetwork& worker_replica() {
        const int w = pool->worker_index();
        return *replicas[static_cast<std::size_t>(w < 0 ? 0 : w)];
    }
};

CamoEngine::CamoEngine(CamoConfig cfg)
    : cfg_(std::move(cfg)),
      policy_(cfg_.policy),
      adam_(policy_.params(), nn::Adam::Options{.lr = cfg_.lr,
                                                .clip_norm = cfg_.clip_norm,
                                                .weight_decay = cfg_.weight_decay}) {
    if (cfg_.squish.size != cfg_.policy.squish_size) {
        throw std::invalid_argument("CamoEngine: squish.size != policy.squish_size");
    }
}

CamoEngine::~CamoEngine() = default;

CamoEngine::TrainRuntime& CamoEngine::train_runtime() {
    int workers = cfg_.train_workers;
    if (workers <= 0) workers = runtime::ThreadPool::default_threads();
    if (!train_rt_ || train_rt_->workers != workers) {
        auto rt = std::make_unique<TrainRuntime>();
        rt->workers = workers;
        if (workers > 1) {
            rt->pool = std::make_unique<runtime::ThreadPool>(workers);
            rt->replicas.reserve(static_cast<std::size_t>(workers));
            for (int i = 0; i < workers; ++i) {
                rt->replicas.push_back(std::make_unique<PolicyNetwork>(cfg_.policy));
            }
        }
        train_rt_ = std::move(rt);
    }
    return *train_rt_;
}

void CamoEngine::optimizer_step() {
    adam_.step();
    // The optimizers mutate weights through Parameter pointers captured at
    // construction; the packed inference plan cannot see that, so stale it
    // explicitly.
    policy_.invalidate_plan();
}

template <typename SampleGrad>
void CamoEngine::gradient_step(std::size_t count, const SampleGrad& sample_grad) {
    TrainRuntime& rt = train_runtime();
    std::vector<nn::GradBuffer> buffers(count);
    const auto run_sample = [&](PolicyNetwork& net, std::size_t k) {
        net.backward(sample_grad(net, k));
        buffers[k].capture(net.params());
    };
    if (rt.pool && count > 1) {
        rt.sync_replicas(policy_);
        rt.pool->for_each_index(static_cast<int>(count), [&](int k) {
            run_sample(rt.worker_replica(), static_cast<std::size_t>(k));
        });
    } else {
        for (std::size_t k = 0; k < count; ++k) run_sample(policy_, k);
    }
    {
        const obs::Span reduce_span("train.reduce", reduce_hist());
        obs::counter_add(reduction_counter());
        nn::reduce_in_order(buffers, policy_.params());
    }
    optimizer_step();
}

void CamoEngine::index_dataset(Phase1Dataset& data,
                               const std::vector<geo::SegmentedLayout>& clips) const {
    data.graphs.reserve(clips.size());
    for (const geo::SegmentedLayout& c : clips) {
        data.graphs.push_back(build_segment_graph(c, cfg_.graph_threshold_nm));
    }

    // Inverse-frequency class weights (teacher data is heavily skewed toward
    // the no-move action once its trajectory converges).
    std::array<long long, rl::kNumActions> action_count{};
    long long action_total = 0;
    for (const TeacherSample& s : data.samples) {
        for (int a : s.actions) {
            ++action_count[static_cast<std::size_t>(a)];
            ++action_total;
        }
    }
    for (int a = 0; a < rl::kNumActions; ++a) {
        const long long cnt = std::max(1LL, action_count[static_cast<std::size_t>(a)]);
        const double w = static_cast<double>(action_total) /
                         (static_cast<double>(rl::kNumActions) * static_cast<double>(cnt));
        data.action_weight[static_cast<std::size_t>(a)] = static_cast<float>(std::min(w, 20.0));
    }
}

std::vector<nn::Tensor> CamoEngine::encode_state(const geo::SegmentedLayout& layout,
                                                 std::span<const int> offsets) const {
    const auto mask_polys = layout.reconstruct_mask(offsets);
    std::vector<geo::Polygon> all_mask = mask_polys;
    all_mask.insert(all_mask.end(), layout.srafs().begin(), layout.srafs().end());

    std::vector<nn::Tensor> feats;
    feats.reserve(static_cast<std::size_t>(layout.num_segments()));
    for (const geo::Segment& s : layout.segments()) {
        feats.push_back(encode_squish_window(all_mask, layout.targets(), s.control(), cfg_.squish));
    }
    return feats;
}

opc::EngineResult CamoEngine::optimize(const geo::SegmentedLayout& layout, litho::LithoSim& sim,
                                       const opc::OpcOptions& opt) {
    return infer(layout, sim, opt);
}

opc::EngineResult CamoEngine::infer(const geo::SegmentedLayout& layout, litho::LithoSim& sim,
                                    const opc::OpcOptions& opt, Rng* rng) const {
    opc::Rollout rollout(layout, sim, opt, cfg_.reward);
    const Graph graph = build_segment_graph(layout, cfg_.graph_threshold_nm);
    // A segment-free layout has no actions to take: the primed metrics are
    // already the fixed point, and the policy cannot run on an empty node set.
    const int steps = layout.num_segments() > 0 ? opt.max_iterations : 0;
    return rollout.run(steps, true, [&](const opc::Rollout& r) {
        const nn::Tensor logits = policy_.infer(encode_state(layout, r.offsets()), graph);
        return rl::actions_to_moves(
            pick_actions(logits, r.metrics().epe_segment, cfg_.modulator, rng));
    });
}

Phase1Dataset CamoEngine::collect_teacher_data(const std::vector<geo::SegmentedLayout>& clips,
                                               litho::LithoSim& sim, const opc::OpcOptions& opt) {
    const obs::Span span("train.collect", collect_hist());
    Phase1Dataset data;

    std::vector<int> biases = cfg_.teacher_biases;
    if (biases.empty()) biases.push_back(opt.initial_bias_nm);

    // Canonical job order: clip-major, bias-minor. The gathered dataset is a
    // pure function of this order, never of which worker ran which job.
    // Segment-free clips produce no (state, action) pairs — skipping them
    // here keeps degenerate training inputs finite instead of feeding the
    // policy an empty node set.
    struct Job {
        int clip = 0;
        int bias = 0;
    };
    std::vector<Job> jobs;
    for (std::size_t c = 0; c < clips.size(); ++c) {
        if (clips[c].num_segments() == 0) continue;
        for (int bias : biases) jobs.push_back({static_cast<int>(c), bias});
    }

    const opc::RuleEngine teacher({.gain = 0.6, .max_step_nm = 2, .early_exit = false});
    std::vector<std::vector<TeacherSample>> per_job(jobs.size());
    data.trajectories.resize(jobs.size());

    // record_trajectory primes the simulator's incremental cache with a full
    // rebuild, so a job's result depends only on (clip, bias) — identical
    // whether jobs share one simulator serially or run on per-worker copies.
    const auto run_job = [&](litho::LithoSim& job_sim, int j) {
        const Job& job = jobs[static_cast<std::size_t>(j)];
        opc::OpcOptions teacher_opt = opt;
        teacher_opt.initial_bias_nm = job.bias;
        rl::Trajectory traj = teacher.record_trajectory(clips[static_cast<std::size_t>(job.clip)],
                                                        job_sim, teacher_opt, cfg_.teacher_steps);
        traj.clip_index = job.clip;
        traj.initial_bias_nm = job.bias;
        auto& samples = per_job[static_cast<std::size_t>(j)];
        samples.reserve(traj.steps.size());
        for (const rl::StepRecord& step : traj.steps) {
            TeacherSample s;
            s.clip = job.clip;
            s.features = encode_state(clips[static_cast<std::size_t>(job.clip)],
                                      step.offsets_before);
            s.actions = step.actions;
            samples.push_back(std::move(s));
        }
        data.trajectories[static_cast<std::size_t>(j)] = std::move(traj);
    };

    TrainRuntime& rt = train_runtime();
    if (rt.pool && jobs.size() > 1) {
        // Per-worker simulator copies share the immutable kernel set.
        std::vector<litho::LithoSim> worker_sims(static_cast<std::size_t>(rt.workers), sim);
        rt.pool->for_each_index(static_cast<int>(jobs.size()), [&](int j) {
            const int w = rt.pool->worker_index();
            run_job(worker_sims[static_cast<std::size_t>(w < 0 ? 0 : w)], j);
        });
    } else {
        for (std::size_t j = 0; j < jobs.size(); ++j) run_job(sim, static_cast<int>(j));
    }

    for (std::vector<TeacherSample>& job_samples : per_job) {
        for (TeacherSample& s : job_samples) data.samples.push_back(std::move(s));
    }

    index_dataset(data, clips);
    obs::counter_add(teacher_samples_counter(), static_cast<long long>(data.samples.size()));
    return data;
}

Phase1Dataset CamoEngine::load_teacher_data(const rl::TrajStoreReader& store,
                                            const std::vector<geo::SegmentedLayout>& clips) const {
    if (store.feature_numel() == 0) {
        throw std::invalid_argument(
            "load_teacher_data: store has no squish features (featureless collection) — "
            "phase-1 training needs per-step state encodings");
    }
    const auto dims = store.feature_dims();
    const auto want = static_cast<std::uint32_t>(cfg_.squish.size);
    if (dims[1] != want || dims[2] != want) {
        throw std::invalid_argument("load_teacher_data: store feature shape " +
                                    std::to_string(dims[1]) + "x" + std::to_string(dims[2]) +
                                    " does not match configured squish size " +
                                    std::to_string(cfg_.squish.size));
    }
    // Every stored state must land on a clip we were handed, with a matching
    // segment count — catches a store loaded against the wrong clip set
    // even when the caller forgot to check dataset_tag.
    for (std::uint64_t id = 0; id < store.state_count(); ++id) {
        const rl::TrajStoreReader::StateView st = store.state(id);
        if (st.clip_index < 0 || static_cast<std::size_t>(st.clip_index) >= clips.size()) {
            throw std::invalid_argument("load_teacher_data: state " + std::to_string(id) +
                                        " references clip " + std::to_string(st.clip_index) +
                                        " but only " + std::to_string(clips.size()) +
                                        " clips were provided");
        }
        const auto segs = static_cast<std::size_t>(
            clips[static_cast<std::size_t>(st.clip_index)].num_segments());
        if (st.offsets.size() != segs) {
            throw std::invalid_argument(
                "load_teacher_data: state " + std::to_string(id) + " has " +
                std::to_string(st.offsets.size()) + " segments but clip " +
                std::to_string(st.clip_index) + " has " + std::to_string(segs));
        }
    }

    Phase1Dataset data;
    data.trajectories.reserve(store.traj_count());
    for (std::uint64_t i = 0; i < store.traj_count(); ++i) {
        data.trajectories.push_back(store.decode(i));
    }
    // Sample index == store step index: trajectory step ranges tile the step
    // table contiguously in append order (validated on open), and append
    // order is the canonical job order collect_teacher_data gathered.
    const std::vector<int> shape = {static_cast<int>(dims[0]), static_cast<int>(dims[1]),
                                    static_cast<int>(dims[2])};
    const std::size_t numel = store.feature_numel();
    data.samples.reserve(store.step_count());
    for (std::uint64_t idx = 0; idx < store.step_count(); ++idx) {
        const rl::TrajStoreReader::StepView sv = store.step(idx);
        const rl::TrajStoreReader::StateView st = store.state(sv.state_id);
        TeacherSample s;
        s.clip = st.clip_index;
        s.features.reserve(st.offsets.size());
        for (std::size_t i = 0; i < st.offsets.size(); ++i) {
            nn::Tensor t(shape);
            std::copy_n(st.features.data() + i * numel, numel, t.data().data());
            s.features.push_back(std::move(t));
        }
        s.actions.assign(sv.actions.begin(), sv.actions.end());
        data.samples.push_back(std::move(s));
    }
    index_dataset(data, clips);
    return data;
}

void write_teacher_data(const Phase1Dataset& data, rl::TrajStoreWriter& store) {
    // Samples are flattened in trajectory-step order.
    std::size_t k = 0;
    std::vector<std::span<const nn::Tensor>> step_feats;
    for (const rl::Trajectory& traj : data.trajectories) {
        if (data.samples.size() - k < traj.steps.size()) {
            throw std::invalid_argument("write_teacher_data: fewer samples than trajectory steps");
        }
        step_feats.clear();
        for (std::size_t t = 0; t < traj.steps.size(); ++t, ++k) {
            step_feats.emplace_back(data.samples[k].features);
        }
        store.append(traj, step_feats);
    }
    store.flush();
}

double CamoEngine::run_phase1_epoch(const Phase1Dataset& data) {
    const obs::Span span("train.phase1.epoch", phase1_epoch_hist());
    const std::size_t sample_count = data.samples.size();
    if (sample_count == 0) return 0.0;  // degenerate dataset: no optimizer step
    const std::size_t batch = cfg_.phase1_batch <= 0 ? sample_count
                                                     : static_cast<std::size_t>(cfg_.phase1_batch);

    double total_nll = 0.0;
    long long total_nodes = 0;
    std::vector<double> sample_nll(batch, 0.0);
    for (std::size_t start = 0; start < sample_count; start += batch) {
        const std::size_t count = std::min(batch, sample_count - start);
        // Per-sample gradient of the class-weighted mean NLL.
        gradient_step(count, [&](PolicyNetwork& net, std::size_t k) {
            const TeacherSample& s = data.samples[start + k];
            const nn::Tensor logits =
                net.forward(s.features, data.graphs[static_cast<std::size_t>(s.clip)]);
            const int n = logits.dim(0);
            double nll = 0.0;
            for (int i = 0; i < n; ++i) {
                const auto row = logit_row(logits, i);
                nll -= nn::log_prob(std::span<const float>(row.data(), row.size()),
                                    s.actions[static_cast<std::size_t>(i)]);
            }
            sample_nll[k] = nll;
            // coef = -w/n: gradient DEscent on class-weighted mean NLL.
            return logit_grad(logits, s.actions, [&](int i) {
                const int act = s.actions[static_cast<std::size_t>(i)];
                return -data.action_weight[static_cast<std::size_t>(act)] / static_cast<float>(n);
            });
        });
        for (std::size_t k = 0; k < count; ++k) {
            total_nll += sample_nll[k];
            total_nodes += static_cast<long long>(data.samples[start + k].actions.size());
        }
    }
    return total_nll / static_cast<double>(std::max(1LL, total_nodes));
}

double CamoEngine::run_phase2_episode(const std::vector<geo::SegmentedLayout>& clips,
                                      const std::vector<Graph>& graphs,
                                      std::vector<litho::LithoSim>& clip_sims,
                                      const opc::OpcOptions& opt, int episode) {
    const obs::Span span("train.phase2.episode", phase2_episode_hist());
    // Under a window objective the per-step reward is window_step_reward on
    // the before/after sweeps — worst-corner (or weighted-corner) |EPE| and
    // the exact PV band — and the modulation/exploration signal is the
    // objective corner's per-segment EPE, so phase-2 credit assignment
    // optimizes the same quantity the evaluation reports. Every sweep rides
    // the cached support spectrum (evaluate_window_incremental): one sparse
    // delta-DFT per step serves every corner.
    if (clip_sims.size() != clips.size()) {
        throw std::invalid_argument("run_phase2_episode: clip_sims/clips size mismatch");
    }

    // Lockstep data-parallel rollout: at time step t every clip that has not
    // hit an early-exit rule acts with the same weight snapshot, each against
    // its own simulator (whose incremental cache then carries that clip's
    // state across steps) and its own splitmix RNG stream keyed by (seed,
    // episode, clip) — never by scheduling order. The clips' Eq. (7)
    // gradients are reduced in clip order and one optimizer step closes the
    // wave. Segment-free clips get no rollout.
    const std::uint64_t episode_seed = derive_seed(cfg_.seed ^ 0x5A17ULL,
                                                   static_cast<std::uint64_t>(episode));
    std::vector<std::optional<opc::Rollout>> rollouts(clips.size());
    std::vector<Rng> rngs;
    rngs.reserve(clips.size());
    for (std::size_t c = 0; c < clips.size(); ++c) {
        if (clips[c].num_segments() > 0) {
            rollouts[c].emplace(clips[c], clip_sims[c], opt, cfg_.reward);
        }
        rngs.emplace_back(derive_seed(episode_seed, static_cast<std::uint64_t>(c)));
    }
    std::vector<double> rewards(clips.size(), 0.0);

    double reward_sum = 0.0;
    int reward_count = 0;
    std::vector<int> wave;

    for (int t = 0; t < opt.max_iterations; ++t) {
        const obs::Span wave_span("train.phase2.wave", phase2_wave_hist());
        wave.clear();
        for (std::size_t c = 0; c < clips.size(); ++c) {
            if (rollouts[c] && !rollouts[c]->should_exit()) wave.push_back(static_cast<int>(c));
        }
        if (wave.empty()) break;

        gradient_step(wave.size(), [&](PolicyNetwork& net, std::size_t k) {
            const std::size_t c = static_cast<std::size_t>(wave[k]);
            opc::Rollout& rollout = *rollouts[c];

            const nn::Tensor logits =
                net.forward(encode_state(clips[c], rollout.offsets()), graphs[c]);
            const auto actions =
                pick_actions(logits, rollout.metrics().epe_segment, cfg_.modulator, &rngs[c]);
            rollout.step(rl::actions_to_moves(actions));
            const double r = rollout.step_reward();
            rewards[c] = r;

            // Eq. (7): gradient ascent on r * log pi(a|s), computed on the
            // unmodulated policy output.
            const float coef = cfg_.phase2_lr_scale * static_cast<float>(-r) /
                               static_cast<float>(logits.dim(0));
            return logit_grad(logits, actions, [&](int) { return coef; });
        });
        for (int c : wave) {
            reward_sum += rewards[static_cast<std::size_t>(c)];
            ++reward_count;
        }
    }
    return reward_sum / std::max(1, reward_count);
}

TrainStats CamoEngine::train(const std::vector<geo::SegmentedLayout>& clips,
                             litho::LithoSim& sim, const opc::OpcOptions& opt) {
    TrainStats stats;

    // ---- Phase 1: imitate rule-engine trajectories. ----------------------
    const Phase1Dataset data = collect_teacher_data(clips, sim, opt);

    for (int epoch = 0; epoch < cfg_.phase1_epochs; ++epoch) {
        stats.phase1_inflight_nll.push_back(run_phase1_epoch(data));
        if (epoch % 10 == 0) {
            log_info(cfg_.name + " phase1 epoch " + std::to_string(epoch) +
                     " in-flight mean NLL=" +
                     std::to_string(stats.phase1_inflight_nll.back()));
        }
    }

    // ---- Phase 2: modulated REINFORCE (lockstep over clips). -------------
    if (cfg_.phase2_episodes > 0) {
        // One simulator per clip, shared across episodes (copies share the
        // immutable kernel set); every episode re-primes them with a full
        // rebuild, so the carried caches never leak into results.
        std::vector<litho::LithoSim> clip_sims(clips.size(), sim);
        for (int ep = 0; ep < cfg_.phase2_episodes; ++ep) {
            stats.phase2_reward.push_back(
                run_phase2_episode(clips, data.graphs, clip_sims, opt, ep));
            log_info(cfg_.name + " phase2 episode " + std::to_string(ep) + " mean reward=" +
                     std::to_string(stats.phase2_reward.back()));
        }
    }
    return stats;
}

}  // namespace camo::core
