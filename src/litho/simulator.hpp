// LithoSim: the facade every OPC engine talks to.
//
// Construction acquires (builds once per process, or loads from the disk
// cache) the SOCS kernels for the nominal and defocus conditions and the
// auto-calibrated resist threshold via the shared kernel registry. One
// evaluate() call rasterizes the mask implied by per-segment offsets, images
// it at both focus conditions, and returns EPE per measure point / segment
// plus the PV band — exactly the quantities the paper's reward (Eq. 3) and
// result tables consume.
//
// Thread-safety contract: every const method touches only immutable shared
// kernel state plus an atomic call counter, so one LithoSim may be used from
// many threads concurrently. The two cached evaluate_*_incremental() calls
// are the exception: they mutate a per-instance cache and must not be
// called on one instance from two threads — the batch runtime gives each
// worker its own (cheap) copy, so per-worker caches and evaluation counts
// stay contention-free.
#pragma once

#include <atomic>
#include <memory>
#include <span>
#include <vector>

#include "geometry/layout.hpp"
#include "geometry/raster.hpp"
#include "litho/aerial.hpp"
#include "litho/config.hpp"
#include "litho/metrics.hpp"
#include "litho/process_window.hpp"

namespace camo::litho {

class IncrementalEvaluator;

/// How a cached evaluation treats the per-instance incremental cache.
enum class Cache {
    kPrime,  ///< rebuild it from scratch (a job's first evaluation of a clip)
    kReuse,  ///< update it with what changed since the previous call
};

class LithoSim {
public:
    explicit LithoSim(LithoConfig cfg);

    /// Copies share the immutable kernel applicators (no rebuild, no disk
    /// I/O); only the evaluation counter is per-instance, starting at zero.
    LithoSim(const LithoSim& other);
    LithoSim& operator=(const LithoSim&) = delete;

    [[nodiscard]] const LithoConfig& config() const { return cfg_; }
    [[nodiscard]] double threshold() const { return threshold_; }

    /// Offset that centres a clip of `clip_size_nm` in the simulation frame.
    [[nodiscard]] int clip_offset_nm(int clip_size_nm) const;

    /// Rasterize mask polygons (clip coordinates) onto the simulation grid.
    [[nodiscard]] geo::Raster rasterize(std::span<const geo::Polygon> mask,
                                        std::span<const geo::Polygon> srafs,
                                        int clip_size_nm) const;

    /// Aerial images (intensity in open-frame units) of a rasterized mask.
    [[nodiscard]] geo::Raster aerial_nominal(const geo::Raster& mask) const;
    [[nodiscard]] geo::Raster aerial_defocus(const geo::Raster& mask) const;

    /// Full evaluation of a segmented layout under per-segment offsets.
    [[nodiscard]] SimMetrics evaluate(const geo::SegmentedLayout& layout,
                                      std::span<const int> offsets) const;

    /// Cached evaluation: metrics of `layout` under `offsets` through the
    /// per-instance incremental cache. kPrime rebuilds the cache first, so
    /// the result never depends on what this simulator evaluated before —
    /// call it for the first evaluation of a clip. kReuse brings the cache
    /// up to date with what actually changed since the last call: nothing
    /// (cached metrics), a few segments (their polygons re-rasterized plus a
    /// sparse delta-DFT on the support spectrum), or a different layout or
    /// more than kIncrementalFallbackFraction of the segments (a rebuild).
    /// Metrics match evaluate() within the tolerances documented in
    /// litho/incremental.hpp. Not thread-safe on one instance.
    [[nodiscard]] SimMetrics evaluate_incremental(const geo::SegmentedLayout& layout,
                                                  std::span<const int> offsets, Cache mode);

    /// Multi-corner process-window evaluation through the dense (exact)
    /// path: one rasterization + one forward FFT serve every corner, one
    /// aerial image per focus plane serves every dose at that focus. The
    /// (dose 1.0, best focus) corner is bit-identical to evaluate(). Const
    /// and thread-safe; repeated sweeps with one spec should hold a
    /// ProcessWindowSweep instead (this convenience wrapper re-resolves the
    /// per-focus applicators from the registry on every call — cheap, but
    /// not free).
    [[nodiscard]] WindowMetrics evaluate_window(const geo::SegmentedLayout& layout,
                                                std::span<const int> offsets,
                                                const WindowSpec& spec) const;

    /// Window evaluation riding the incremental cache: brings the cached
    /// raster + support spectrum up to date exactly like
    /// evaluate_incremental under the same `mode`, then images every corner
    /// from the cached spectrum — no per-corner rasterization or forward
    /// FFT. Matches evaluate_window within the incremental tolerances of
    /// litho/incremental.hpp. Not thread-safe on one instance.
    [[nodiscard]] WindowMetrics evaluate_window_incremental(const geo::SegmentedLayout& layout,
                                                            std::span<const int> offsets,
                                                            const WindowSpec& spec, Cache mode);

    /// Binary printed image at a dose, per the shared epsilon-stable
    /// pixel_prints predicate (litho/metrics.hpp).
    [[nodiscard]] geo::Raster printed(const geo::Raster& aerial, double dose = 1.0) const;

    /// Number of lithography evaluations performed (for runtime accounting).
    [[nodiscard]] long long evaluate_count() const {
        return evaluate_count_.load(std::memory_order_relaxed);
    }

    /// Cached evaluations (nominal and window) that reused the cache — as is,
    /// or after a sparse delta update — vs. those that rebuilt it (kPrime, a
    /// layout switch, or too many moved segments).
    [[nodiscard]] long long incremental_hit_count() const;
    [[nodiscard]] long long incremental_full_count() const;
    /// The hits that applied a sparse delta update (the rest kept the cache
    /// as is).
    [[nodiscard]] long long incremental_sparse_count() const;
    /// Cached window evaluations answered from the memoized WindowMetrics.
    [[nodiscard]] long long window_reuse_count() const;

    /// Nominal-focus SOCS kernels (used by the ILT engine's adjoint).
    [[nodiscard]] const KernelSet& nominal_kernels() const { return nominal_->kernels(); }
    [[nodiscard]] const KernelSet& defocus_kernels() const { return defocus_->kernels(); }

    ~LithoSim();

private:
    LithoConfig cfg_;
    double threshold_ = 0.0;
    std::shared_ptr<const KernelApplicator> nominal_;
    std::shared_ptr<const KernelApplicator> defocus_;
    mutable std::atomic<long long> evaluate_count_{0};
    std::unique_ptr<IncrementalEvaluator> incremental_;  ///< lazily built, never copied

    IncrementalEvaluator& incremental();
};

}  // namespace camo::litho
