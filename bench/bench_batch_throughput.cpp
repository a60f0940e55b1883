// Batch runtime scaling: rule-engine OPC over a 32-clip via batch, swept
// from 1 thread to all hardware threads. Prints wall time, throughput,
// speedup over the 1-thread baseline, and verifies that per-clip offsets
// are bit-identical at every thread count (the runtime's determinism
// contract).
//
// CAMO_BENCH_FULL=1 switches to the production 512-grid lithography model;
// the default uses the quick 256 grid so the sweep finishes in seconds.
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/experiment.hpp"
#include "layout/via_gen.hpp"
#include "runtime/batch.hpp"

namespace {

using namespace camo;

litho::LithoConfig bench_litho_config() {
    litho::LithoConfig cfg = core::Experiment::litho_config();
    if (!core::Experiment::full_scale()) {
        cfg.grid = 256;
        cfg.kernels_nominal = 6;
        cfg.kernels_defocus = 5;
    }
    return cfg;
}

}  // namespace

int main() {
    constexpr int kClips = 32;
    const litho::LithoConfig litho_cfg = bench_litho_config();

    const std::vector<layout::Clip> raw =
        layout::via_batch_set(core::Experiment::kDatasetSeed, kClips);
    const std::vector<geo::SegmentedLayout> clips = core::fragment_via_clips(raw);

    // Warm the shared kernel registry so the first sweep row does not pay
    // the one-time kernel build.
    { litho::LithoSim warmup(litho_cfg); }

    std::vector<int> thread_counts{1, 2, 4};
    const int hw = runtime::ThreadPool::default_threads();
    if (hw > 4) thread_counts.push_back(hw);

    std::printf("batch OPC throughput: %d via clips, rule engine, grid %d\n", kClips,
                litho_cfg.grid);
    std::printf("%8s %10s %12s %10s %10s %10s\n", "threads", "wall_s", "clips/s", "speedup",
                "sparse", "identical");

    std::vector<runtime::BatchResult> results;
    double base_wall = 0.0;
    bool all_identical = true;
    for (int threads : thread_counts) {
        runtime::BatchOptions opt;
        opt.threads = threads;
        opt.seed = core::Experiment::kDatasetSeed;
        opt.opc = core::Experiment::via_options();

        runtime::BatchScheduler scheduler(litho_cfg, opt);
        runtime::BatchResult res = scheduler.run_rule(clips);
        if (threads == thread_counts.front()) base_wall = res.wall_s;

        bool identical = true;
        if (!results.empty()) {
            for (int c = 0; c < kClips; ++c) {
                if (res.clips[static_cast<std::size_t>(c)].offsets !=
                    results.front().clips[static_cast<std::size_t>(c)].offsets) {
                    identical = false;
                }
            }
        }
        all_identical = all_identical && identical;

        std::printf("%8d %10.2f %12.2f %9.2fx %9.0f%% %10s\n", res.threads, res.wall_s,
                    res.throughput_cps, base_wall > 0.0 ? base_wall / res.wall_s : 0.0,
                    100.0 * res.incremental_hit_rate(), identical ? "yes" : "NO");
        results.push_back(std::move(res));
    }

    for (const runtime::BatchResult& res : results) {
        if (res.failed > 0) {
            std::printf("FAILED: %d clips failed\n", res.failed);
            return 1;
        }
    }
    if (!all_identical) {
        std::printf("FAILED: results differ across thread counts\n");
        return 1;
    }
    std::printf("%s\n", results.back().summary().c_str());
    return 0;
}
