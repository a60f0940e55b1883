// Batch-OPC runtime: shard a stream of clips across a work-stealing thread
// pool.
//
// Two ways to consume results. run_streaming(clips, sink) is the core: per-
// clip results flow out through a bounded MPMC queue as workers finish, with
// backpressure on the workers when the sink falls behind — the shape a full-
// chip tile stream (layout/shard.hpp) and the serve loop (service/) need.
// run() is a thin wrapper that collects the stream into one clip-ordered
// BatchResult behind a barrier, for paper-scale batches.
//
// Full-chip mask optimization is embarrassingly parallel across clips, so
// the scheduler gives every pool worker its own LithoSim (a cheap copy — all
// workers share one immutable SOCS kernel set via the kernel registry) and
// runs one clip per task. Learned engines are shared as a read-only
// CamoEngine snapshot: CamoEngine::infer() is const and thread-safe, so N
// workers infer concurrently without copying or retraining the policy.
//
// Every caller that maps an engine name to a per-clip run (the camo_cli
// modes and the scenario comparer) goes through one engine table,
// engine_optimizer(); run_rule() and run_camo() are thin wrappers of run()
// over its rule and camo entries.
//
// Determinism contract: a job's result depends only on (its layout, the
// batch seed, its clip index) — per-job seeds come from common/rng.hpp
// splitmix, never from shared mutable engine state — so per-clip results
// are bit-identical at any thread count. The per-simulator incremental
// evaluation cache preserves this: every segment engine runs a clip through
// one opc::Rollout (opc/objective.hpp), whose constructor primes the cache
// with a full rebuild (litho::Cache::kPrime) before any step reuses it, so
// whatever a worker's simulator evaluated before cannot leak into the next
// job's results. The pixel-based ILT engine does not use the cache.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/camo.hpp"
#include "geometry/layout.hpp"
#include "litho/process_window.hpp"
#include "litho/simulator.hpp"
#include "opc/engine.hpp"
#include "opc/ilt.hpp"
#include "opc/rule_engine.hpp"
#include "runtime/thread_pool.hpp"

namespace camo::runtime {

struct BatchOptions {
    int threads = 0;             ///< worker count; <= 0 selects all hardware threads
    std::uint64_t seed = 42;     ///< batch seed; job i runs with derive_seed(seed, i)
    opc::OpcOptions opc;         ///< per-clip OPC protocol (iterations, exits, bias)

    /// Window mode: after OPC, evaluate each clip's final mask at every
    /// corner of `window_spec` (empty axes = the standard window of the
    /// litho config). The sweep rides the worker simulator's incremental
    /// cache, which the engine just primed with the final offsets, so it
    /// typically costs only one aerial per focus plane per clip.
    ///
    /// Reward mode (opc.objective != kNominal) composes with this: the
    /// engines then optimize the window objective in-loop and return the
    /// final sweep themselves, which run() reuses when its spec matches
    /// window_spec (ClipResult::window is populated in either mode).
    bool window = false;
    litho::WindowSpec window_spec;
};

/// Outcome of one clip job. `error` is non-empty when the job threw; the
/// remaining clips of the batch are unaffected.
struct ClipResult {
    int index = -1;
    std::string name;
    int segments = 0;
    int iterations = 0;
    double initial_epe = 0.0;   ///< sum |EPE| of the starting mask
    double final_epe = 0.0;     ///< sum |EPE| after OPC
    double pvband_nm2 = 0.0;
    double runtime_s = 0.0;     ///< per-clip engine wall time
    std::vector<int> offsets;   ///< final per-segment offsets
    std::optional<litho::WindowMetrics> window;  ///< populated in window mode
    std::string error;
};

/// Aggregated batch outcome, in clip-index order.
struct BatchResult {
    std::vector<ClipResult> clips;
    bool window_mode = false;  ///< window sweep or window reward mode active
    rl::RewardMode reward_mode = rl::RewardMode::kNominal;
    int threads = 1;
    double wall_s = 0.0;            ///< end-to-end batch wall time
    double throughput_cps = 0.0;    ///< successful clips per second
    long long litho_evaluations = 0;
    long long incremental_hits = 0;    ///< cached evaluations reusing the cache (as is or sparse)
    long long incremental_sparse = 0;  ///< the hits that applied a sparse delta update
    long long incremental_fulls = 0;   ///< cached evaluations (nominal or window) that rebuilt it
    int failed = 0;
    double sum_initial_epe = 0.0;
    double sum_final_epe = 0.0;
    double sum_pvband_nm2 = 0.0;
    double sum_clip_runtime_s = 0.0;  ///< summed per-clip time (vs wall_s = parallel time)

    // Window-mode aggregates over successful clips (0 outside window mode).
    double sum_worst_window_epe = 0.0;
    double sum_pv_band_exact_nm2 = 0.0;

    /// Successful clip count (clips.size() - failed).
    [[nodiscard]] int ok() const { return static_cast<int>(clips.size()) - failed; }

    /// Cached evaluations that kept the cache as is (no litho work).
    [[nodiscard]] long long incremental_unchanged() const {
        return incremental_hits - incremental_sparse;
    }

    /// sparse / (sparse + rebuilt): of the cached evaluations that updated
    /// the cache, the fraction a sparse delta served. Reuses of an unchanged
    /// cache are not counted; they do no litho work.
    [[nodiscard]] double incremental_hit_rate() const {
        const long long total = incremental_sparse + incremental_fulls;
        return total > 0 ? static_cast<double>(incremental_sparse) / static_cast<double>(total)
                         : 0.0;
    }

    // Per-clip averages over successful clips. Every ratio below is guarded
    // against zero-evaluation batches (no clips, or all failed): an empty
    // run reports zeros, never NaN.
    [[nodiscard]] double avg_final_epe() const { return per_ok(sum_final_epe); }
    [[nodiscard]] double avg_pvband_nm2() const { return per_ok(sum_pvband_nm2); }
    [[nodiscard]] double avg_clip_runtime_s() const { return per_ok(sum_clip_runtime_s); }
    [[nodiscard]] double avg_worst_window_epe() const { return per_ok(sum_worst_window_epe); }
    [[nodiscard]] double avg_pv_band_exact_nm2() const { return per_ok(sum_pv_band_exact_nm2); }

    /// One-line human-readable digest.
    [[nodiscard]] std::string summary() const;

private:
    [[nodiscard]] double per_ok(double sum) const { return ok() > 0 ? sum / ok() : 0.0; }
};

/// Per-clip optimizer run by the workers. Called concurrently: it must only
/// mutate the passed simulator (worker-private) and local state. `job_seed`
/// is derive_seed(batch seed, clip index).
using ClipOptimizer = std::function<opc::EngineResult(
    const geo::SegmentedLayout& layout, litho::LithoSim& sim, const opc::OpcOptions& opt,
    std::uint64_t job_seed)>;

/// The engine table: the per-clip optimizer for an engine name.
///   rule         opc::RuleEngine (the Calibre proxy), one instance per job
///   oneshot      opc::OneShotEngine (the DAMO proxy), one instance per job
///   camo, rlopc  `policy`->infer(): one shared read-only trained snapshot,
///                argmax actions (the job seed is unused)
///   ilt          opc::IltEngine for `ilt_iterations` gradient steps on the
///                clip's objective and window; the result reports the exact
///                PV band of that window and `ilt_iterations` iterations
/// `policy` must outlive the returned optimizer. Throws
/// std::invalid_argument, naming the known engines, on an unknown name or a
/// learned name without a policy.
ClipOptimizer engine_optimizer(const std::string& engine,
                               const core::CamoEngine* policy = nullptr,
                               int ilt_iterations = opc::IltOptions{}.iterations);

/// True for the engine names whose optimizer runs a trained policy.
bool learned_engine(const std::string& engine);

/// Streaming consumer: receives each ClipResult as soon as its worker
/// finishes (completion order, not clip order — ClipResult::index says which
/// clip it is). Runs on the thread that called run_streaming, never
/// concurrently with itself. Throwing aborts the stream: in-flight jobs are
/// drained (their results discarded) and the exception propagates.
using ClipSink = std::function<void(ClipResult&&)>;

/// Knobs for the streaming path.
struct StreamOptions {
    /// Bounded hand-off queue between workers and the sink. When the sink
    /// falls behind by this many results, workers block (backpressure)
    /// instead of buffering a whole chip. Must be >= 1; rejected with
    /// std::invalid_argument otherwise.
    int queue_capacity = 64;
};

/// What run_streaming reports after the stream ends. Per-clip payloads went
/// to the sink; this is only the envelope.
struct StreamStats {
    int delivered = 0;  ///< results handed to the sink (including failed ones)
    int failed = 0;     ///< delivered results with a non-empty error
    double wall_s = 0.0;
    long long litho_evaluations = 0;
    long long incremental_hits = 0;    ///< cached evaluations reusing the cache (as is or sparse)
    long long incremental_sparse = 0;  ///< the hits that applied a sparse delta update
    long long incremental_fulls = 0;   ///< cached evaluations (nominal or window) that rebuilt it
};

/// Shards clip jobs over a worker pool. Construction acquires the shared
/// kernels once and stamps out one simulator per worker; run() may be called
/// any number of times on the same scheduler.
class BatchScheduler {
public:
    explicit BatchScheduler(const litho::LithoConfig& litho_cfg, BatchOptions opt = {});

    [[nodiscard]] int threads() const { return pool_.size(); }
    [[nodiscard]] const BatchOptions& options() const { return opt_; }

    /// Streaming core: run `optimize` on every clip, delivering each result
    /// to `sink` as it completes, through a bounded queue that blocks
    /// workers when the sink falls behind. Job failures are recorded in
    /// ClipResult::error and still delivered; the per-clip results are
    /// bit-identical to run()'s at any thread count and queue capacity
    /// (only delivery order varies). Throws std::invalid_argument on a
    /// non-positive queue capacity, and propagates a sink exception after
    /// unwinding the worker fleet.
    StreamStats run_streaming(const std::vector<geo::SegmentedLayout>& clips,
                              const ClipOptimizer& optimize, const ClipSink& sink,
                              const std::vector<std::string>& names = {},
                              const StreamOptions& stream = {});

    /// Run `optimize` on every clip; never throws on job failure (failures
    /// are recorded per clip). A thin wrapper that collects the streaming
    /// core into a clip-index-ordered BatchResult.
    BatchResult run(const std::vector<geo::SegmentedLayout>& clips,
                    const ClipOptimizer& optimize, const std::vector<std::string>& names = {});

    /// run() over the rule engine with `engine_opt` (one instance per job).
    BatchResult run_rule(const std::vector<geo::SegmentedLayout>& clips,
                         const opc::RuleEngineOptions& engine_opt = {},
                         const std::vector<std::string>& names = {});

    /// run() over engine_optimizer("camo", &engine).
    BatchResult run_camo(const std::vector<geo::SegmentedLayout>& clips,
                         const core::CamoEngine& engine,
                         const std::vector<std::string>& names = {});

private:
    BatchOptions opt_;
    ThreadPool pool_;
    std::vector<litho::LithoSim> sims_;  // one per worker, sharing one kernel set
};

}  // namespace camo::runtime
