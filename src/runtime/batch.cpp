#include "runtime/batch.hpp"

#include <cstdio>
#include <exception>
#include <stdexcept>
#include <utility>

#include "common/rng.hpp"
#include "common/timer.hpp"
#include "litho/kernel_registry.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "opc/one_shot.hpp"
#include "runtime/stream_queue.hpp"

namespace camo::runtime {

namespace {

bool same_window_spec(const litho::WindowSpec& a, const litho::WindowSpec& b) {
    return a.doses == b.doses && a.defocus_nm == b.defocus_nm;
}

// Migrated BatchResult counters: the registry deltas recorded at the end of
// run() equal the litho_evaluations / incremental_hits / incremental_sparse /
// incremental_fulls fields of the BatchResult returned by that run.
obs::MetricId clips_counter() {
    static const obs::MetricId id = obs::register_counter("batch.clips");
    return id;
}
obs::MetricId failed_counter() {
    static const obs::MetricId id = obs::register_counter("batch.failed");
    return id;
}
obs::MetricId batch_evals_counter() {
    static const obs::MetricId id = obs::register_counter("batch.litho_evaluations");
    return id;
}
obs::MetricId batch_hits_counter() {
    static const obs::MetricId id = obs::register_counter("batch.incremental_hits");
    return id;
}
obs::MetricId batch_sparse_counter() {
    static const obs::MetricId id = obs::register_counter("batch.incremental_sparse");
    return id;
}
obs::MetricId batch_fulls_counter() {
    static const obs::MetricId id = obs::register_counter("batch.incremental_fulls");
    return id;
}
obs::MetricId batch_hist() {
    static const obs::MetricId id = obs::register_histogram("batch.run.ns");
    return id;
}
obs::MetricId clip_hist() {
    static const obs::MetricId id = obs::register_histogram("batch.clip.ns");
    return id;
}
obs::MetricId queue_depth_gauge() {
    static const obs::MetricId id = obs::register_gauge("batch.queue.depth");
    return id;
}
obs::MetricId inflight_gauge() {
    static const obs::MetricId id = obs::register_gauge("batch.inflight");
    return id;
}

constexpr const char* kKnownEngines = "rule, oneshot, camo, rlopc, ilt";

ClipOptimizer rule_optimizer(const opc::RuleEngineOptions& engine_opt) {
    return [engine_opt](const geo::SegmentedLayout& layout, litho::LithoSim& sim,
                        const opc::OpcOptions& opt, std::uint64_t /*job_seed*/) {
        opc::RuleEngine engine(engine_opt);
        return engine.optimize(layout, sim, opt);
    };
}

}  // namespace

bool learned_engine(const std::string& engine) {
    return engine == "camo" || engine == "rlopc";
}

ClipOptimizer engine_optimizer(const std::string& engine, const core::CamoEngine* policy,
                               int ilt_iterations) {
    if (engine == "rule") return rule_optimizer({});
    if (engine == "oneshot") {
        return [](const geo::SegmentedLayout& layout, litho::LithoSim& sim,
                  const opc::OpcOptions& opt, std::uint64_t /*job_seed*/) {
            opc::OneShotEngine one_shot;
            return one_shot.optimize(layout, sim, opt);
        };
    }
    if (learned_engine(engine)) {
        if (policy == nullptr) {
            throw std::invalid_argument("engine '" + engine + "' needs a trained policy (known: " +
                                        kKnownEngines + ")");
        }
        return [policy](const geo::SegmentedLayout& layout, litho::LithoSim& sim,
                        const opc::OpcOptions& opt, std::uint64_t /*job_seed*/) {
            return policy->infer(layout, sim, opt);
        };
    }
    if (engine == "ilt") {
        return [ilt_iterations](const geo::SegmentedLayout& layout, litho::LithoSim& sim,
                                const opc::OpcOptions& opt, std::uint64_t /*job_seed*/) {
            opc::IltOptions io;
            io.iterations = ilt_iterations;
            io.objective = opt.objective;
            io.window = opt.window;
            io.corner_weights = opt.corner_weights;
            io.evaluate_window = true;
            const opc::IltResult ir = opc::IltEngine(io).optimize(layout, sim);
            opc::EngineResult res;
            res.final_metrics.sum_abs_epe = ir.sum_abs_epe;
            res.final_metrics.pvband_nm2 =
                ir.final_window ? ir.final_window->pv_band_exact_nm2 : 0.0;
            res.iterations = ilt_iterations;
            res.runtime_s = ir.runtime_s;
            res.final_window = ir.final_window;
            return res;
        };
    }
    throw std::invalid_argument("unknown engine '" + engine + "' (known: " + kKnownEngines +
                                ")");
}

std::string BatchResult::summary() const {
    char buf[448];
    std::snprintf(buf, sizeof buf,
                  "%zu clips (%d failed) on %d threads: wall %.2fs, %.2f clips/s, "
                  "sum|EPE| %.1f -> %.1f nm (avg %.1f), PVB %.0f nm^2, %lld litho evals "
                  "(%lld rebuilt / %lld sparse / %lld unchanged)",
                  clips.size(), failed, threads, wall_s, throughput_cps, sum_initial_epe,
                  sum_final_epe, avg_final_epe(), sum_pvband_nm2, litho_evaluations,
                  incremental_fulls, incremental_sparse, incremental_unchanged());
    std::string out = buf;
    if (reward_mode != rl::RewardMode::kNominal) {
        std::snprintf(buf, sizeof buf, "; reward %s", rl::reward_mode_name(reward_mode));
        out += buf;
    }
    if (window_mode) {
        std::snprintf(buf, sizeof buf,
                      "; window: worst|EPE| avg %.1f nm, exact PVB avg %.0f nm^2",
                      avg_worst_window_epe(), avg_pv_band_exact_nm2());
        out += buf;
    }
    return out;
}

BatchScheduler::BatchScheduler(const litho::LithoConfig& litho_cfg, BatchOptions opt)
    : opt_(std::move(opt)), pool_(opt_.threads) {
    if (opt_.window) {
        if (opt_.window_spec.doses.empty() && opt_.window_spec.defocus_nm.empty()) {
            opt_.window_spec = litho::WindowSpec::standard(litho_cfg);
        }
        opt_.window_spec.validate();
        // Resolve the per-focus kernel sets once, up front: workers then hit
        // the registry's fast path instead of racing the first build.
        for (double f : opt_.window_spec.defocus_nm) {
            (void)litho::acquire_focus_applicator(litho_cfg, f);
        }
    }
    if (opt_.opc.objective != rl::RewardMode::kNominal) {
        // Window reward mode: resolve and pre-acquire the objective's window
        // the same way, so worker engines never race the first kernel build.
        if (opt_.opc.window.doses.empty() && opt_.opc.window.defocus_nm.empty()) {
            opt_.opc.window = litho::WindowSpec::standard(litho_cfg);
        }
        opt_.opc.window.validate();
        for (double f : opt_.opc.window.defocus_nm) {
            (void)litho::acquire_focus_applicator(litho_cfg, f);
        }
    }
    // The first simulator builds (or loads) the shared kernels; the copies
    // are shallow and per-worker so evaluation counters stay uncontended.
    sims_.reserve(static_cast<std::size_t>(pool_.size()));
    litho::LithoSim prototype(litho_cfg);
    for (int i = 0; i < pool_.size(); ++i) sims_.emplace_back(prototype);
}

StreamStats BatchScheduler::run_streaming(const std::vector<geo::SegmentedLayout>& clips,
                                          const ClipOptimizer& optimize, const ClipSink& sink,
                                          const std::vector<std::string>& names,
                                          const StreamOptions& stream) {
    if (stream.queue_capacity < 1) {
        throw std::invalid_argument("run_streaming: queue_capacity must be at least 1, got " +
                                    std::to_string(stream.queue_capacity));
    }
    const obs::Span run_span("batch.run", batch_hist());
    Timer wall;
    StreamStats stats;

    long long evals_before = 0;
    long long hits_before = 0;
    long long sparse_before = 0;
    long long fulls_before = 0;
    for (const litho::LithoSim& sim : sims_) {
        evals_before += sim.evaluate_count();
        hits_before += sim.incremental_hit_count();
        sparse_before += sim.incremental_sparse_count();
        fulls_before += sim.incremental_full_count();
    }

    BoundedQueue<ClipResult> queue(static_cast<std::size_t>(stream.queue_capacity));
    std::vector<std::future<void>> jobs;
    jobs.reserve(clips.size());
    // Jobs never leak exceptions (failures become ClipResult::error), so a
    // drain only synchronizes; it cannot throw job errors.
    const auto drain = [&jobs] {
        for (std::future<void>& f : jobs) {
            try {
                f.get();
            } catch (...) {  // defensive: nothing to do mid-unwind
            }
        }
    };

    try {
        for (std::size_t i = 0; i < clips.size(); ++i) {
            const geo::SegmentedLayout& layout = clips[i];
            const std::uint64_t job_seed = derive_seed(opt_.seed, i);
            std::string name = i < names.size() ? names[i] : std::string();

            jobs.push_back(pool_.submit([this, &optimize, &layout, &queue, job_seed,
                                         name = std::move(name), i] {
                const obs::Span clip_span("batch.clip", clip_hist());
                const obs::ScopedGaugeAdd inflight(inflight_gauge(), 1.0);
                const int worker = pool_.worker_index();
                litho::LithoSim& sim = sims_[static_cast<std::size_t>(worker < 0 ? 0 : worker)];
                ClipResult out;
                out.index = static_cast<int>(i);
                out.name = name;
                try {
                    out.segments = layout.num_segments();
                    opc::EngineResult res = optimize(layout, sim, opt_.opc, job_seed);
                    out.iterations = res.iterations;
                    out.initial_epe = res.epe_history.empty() ? 0.0 : res.epe_history.front();
                    out.final_epe = res.final_metrics.sum_abs_epe;
                    out.pvband_nm2 = res.final_metrics.pvband_nm2;
                    out.runtime_s = res.runtime_s;
                    out.offsets = res.final_offsets;
                    if (res.final_window &&
                        (!opt_.window || same_window_spec(opt_.window_spec, opt_.opc.window))) {
                        // Window reward mode: the engine's in-loop sweep already
                        // evaluated the final mask at every corner.
                        out.window = std::move(res.final_window);
                    } else if (opt_.window) {
                        // The engine's last incremental evaluation primed this
                        // worker's cache at (or near) the final offsets, so the
                        // sweep reuses the cached raster + spectrum; the cache
                        // was primed by this job, so results stay independent of
                        // scheduling order.
                        out.window = sim.evaluate_window_incremental(
                            layout, res.final_offsets, opt_.window_spec, litho::Cache::kReuse);
                    }
                } catch (const std::exception& e) {
                    out.error = e.what();
                } catch (...) {
                    out.error = "unknown error";
                }
                // push() blocks while the sink is `queue_capacity` results
                // behind (backpressure) and returns false after an abort, in
                // which case the result is dropped on purpose.
                (void)queue.push(std::move(out));
            }));
        }

        for (std::size_t received = 0; received < clips.size(); ++received) {
            std::optional<ClipResult> res = queue.pop();
            if (!res) break;  // aborted (cannot happen on this path otherwise)
            obs::gauge_set(queue_depth_gauge(), static_cast<double>(queue.size()));
            ++stats.delivered;
            if (!res->error.empty()) ++stats.failed;
            sink(std::move(*res));
        }
    } catch (...) {
        // A failed submit (e.g. bad_alloc) or a throwing sink must not
        // unwind while workers still hold references into `clips`/`queue`:
        // abort releases every producer blocked in push(), then the drain
        // joins the fleet before the exception leaves this frame.
        queue.abort();
        drain();
        throw;
    }
    queue.close();
    drain();

    stats.wall_s = wall.seconds();
    for (const litho::LithoSim& sim : sims_) {
        stats.litho_evaluations += sim.evaluate_count();
        stats.incremental_hits += sim.incremental_hit_count();
        stats.incremental_sparse += sim.incremental_sparse_count();
        stats.incremental_fulls += sim.incremental_full_count();
    }
    stats.litho_evaluations -= evals_before;
    stats.incremental_hits -= hits_before;
    stats.incremental_sparse -= sparse_before;
    stats.incremental_fulls -= fulls_before;
    obs::counter_add(clips_counter(), stats.delivered);
    obs::counter_add(failed_counter(), stats.failed);
    obs::counter_add(batch_evals_counter(), stats.litho_evaluations);
    obs::counter_add(batch_hits_counter(), stats.incremental_hits);
    obs::counter_add(batch_sparse_counter(), stats.incremental_sparse);
    obs::counter_add(batch_fulls_counter(), stats.incremental_fulls);
    return stats;
}

BatchResult BatchScheduler::run(const std::vector<geo::SegmentedLayout>& clips,
                                const ClipOptimizer& optimize,
                                const std::vector<std::string>& names) {
    BatchResult batch;
    batch.reward_mode = opt_.opc.objective;
    batch.window_mode = opt_.window || opt_.opc.objective != rl::RewardMode::kNominal;
    batch.threads = pool_.size();
    batch.clips.resize(clips.size());

    const StreamStats stats = run_streaming(
        clips, optimize,
        [&batch](ClipResult&& res) {
            batch.clips[static_cast<std::size_t>(res.index)] = std::move(res);
        },
        names);

    batch.wall_s = stats.wall_s;
    for (const ClipResult& c : batch.clips) {
        if (!c.error.empty()) {
            ++batch.failed;
            continue;
        }
        batch.sum_initial_epe += c.initial_epe;
        batch.sum_final_epe += c.final_epe;
        batch.sum_pvband_nm2 += c.pvband_nm2;
        batch.sum_clip_runtime_s += c.runtime_s;
        if (c.window) {
            batch.sum_worst_window_epe += c.window->worst_epe;
            batch.sum_pv_band_exact_nm2 += c.window->pv_band_exact_nm2;
        }
    }
    batch.litho_evaluations = stats.litho_evaluations;
    batch.incremental_hits = stats.incremental_hits;
    batch.incremental_sparse = stats.incremental_sparse;
    batch.incremental_fulls = stats.incremental_fulls;
    batch.throughput_cps = batch.wall_s > 0.0 ? batch.ok() / batch.wall_s : 0.0;
    return batch;
}

BatchResult BatchScheduler::run_rule(const std::vector<geo::SegmentedLayout>& clips,
                                     const opc::RuleEngineOptions& engine_opt,
                                     const std::vector<std::string>& names) {
    return run(clips, rule_optimizer(engine_opt), names);
}

BatchResult BatchScheduler::run_camo(const std::vector<geo::SegmentedLayout>& clips,
                                     const core::CamoEngine& engine,
                                     const std::vector<std::string>& names) {
    return run(clips, engine_optimizer("camo", &engine), names);
}

}  // namespace camo::runtime
