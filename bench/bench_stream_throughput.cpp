// Full-chip streaming throughput: shard a scenario-generated multi-tile
// chip, stream the tile jobs through BatchScheduler::run_streaming across a
// thread sweep, stitch, and gate on the determinism contract — per-tile
// offsets bit-identical to the barrier run() and stitched chip offsets
// bit-identical across every thread count.
//
// Writes a BENCH_stream.json throughput artifact (path overridable with
// --json <path>) for the CI bench-trajectory upload. Exit code 1 on any
// equivalence failure, so CI can gate on it.
//
// CAMO_BENCH_FULL=1 switches to the production 512-grid lithography model;
// the default uses the quick 256 grid so the sweep finishes in seconds.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "layout/shard.hpp"
#include "litho/simulator.hpp"
#include "opc/sraf.hpp"
#include "runtime/batch.hpp"
#include "runtime/thread_pool.hpp"
#include "scenario/scenario.hpp"

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

struct Row {
    int threads = 0;
    double wall_s = 0.0;
    double tiles_per_s = 0.0;
    long long litho_evaluations = 0;
    bool identical = true;
};

}  // namespace

int main(int argc, char** argv) {
    std::string json_path = "BENCH_stream.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) json_path = argv[++i];
    }

    const litho::LithoConfig litho_cfg = bench_litho_config();
    const scenario::Scenario sc = scenario::Registry::instance().get("via3");

    // 4x4 cells at the scenario's 1000 nm clip pitch: a chip that cuts into
    // a few dozen overlapping tiles with plenty of cross-tile context.
    const std::vector<geo::Polygon> chip = scenario::chip_polygons(sc, 4, 4);

    layout::ShardOptions shard_opt;
    shard_opt.tile_nm = 512;
    shard_opt.halo_nm = 256;
    shard_opt.fragment.style = geo::FragmentStyle::kVia;
    shard_opt.sraf_gen = [](const std::vector<geo::Polygon>& t) {
        return opc::insert_srafs(t);
    };
    shard_opt.auto_origin = false;
    shard_opt.origin = {0, 0};

    const layout::TileSharder sharder(chip, shard_opt, litho_cfg);
    const std::vector<geo::SegmentedLayout> tiles = sharder.tile_layouts();
    const geo::SegmentedLayout chip_layout = sharder.chip_layout();
    std::printf("stream throughput: %zu chip polygons -> %zu tiles (%d owned segments), grid %d\n",
                chip.size(), tiles.size(), sharder.total_owned_segments(), litho_cfg.grid);

    // Warm the shared kernel registry so the first sweep row does not pay
    // the one-time kernel build.
    { litho::LithoSim warmup(litho_cfg); }

    const runtime::ClipOptimizer rule = runtime::engine_optimizer("rule");

    runtime::BatchOptions base_opt;
    base_opt.seed = core::Experiment::kDatasetSeed;
    base_opt.opc = core::Experiment::via_options();

    // Barrier reference: the thin-wrapper run() on one thread.
    base_opt.threads = 1;
    runtime::BatchScheduler ref_sched(litho_cfg, base_opt);
    const runtime::BatchResult ref = ref_sched.run(tiles, rule, sharder.tile_names());
    if (ref.failed > 0) {
        std::printf("FAILED: %d reference tiles failed\n", ref.failed);
        return 1;
    }
    std::vector<std::vector<int>> ref_offsets;
    ref_offsets.reserve(ref.clips.size());
    for (const runtime::ClipResult& c : ref.clips) ref_offsets.push_back(c.offsets);
    const layout::StitchResult golden = layout::stitch(sharder, chip_layout, ref_offsets);

    std::vector<int> thread_counts{1, 2, 4};
    const int hw = runtime::ThreadPool::default_threads();
    if (hw > 4) thread_counts.push_back(hw);

    std::printf("%8s %10s %12s %10s %10s\n", "threads", "wall_s", "tiles/s", "speedup",
                "identical");
    std::vector<Row> rows;
    bool all_identical = true;
    double base_wall = 0.0;
    for (int threads : thread_counts) {
        runtime::BatchOptions opt = base_opt;
        opt.threads = threads;
        runtime::BatchScheduler sched(litho_cfg, opt);
        std::vector<std::vector<int>> tile_offsets(tiles.size());
        int failed_jobs = 0;
        const runtime::StreamStats stats = sched.run_streaming(
            tiles, rule,
            [&](runtime::ClipResult&& r) {
                if (!r.error.empty()) ++failed_jobs;
                tile_offsets[static_cast<std::size_t>(r.index)] = std::move(r.offsets);
            },
            sharder.tile_names());
        if (failed_jobs > 0 || stats.failed > 0) {
            std::printf("FAILED: %d tile jobs failed at %d threads\n", failed_jobs, threads);
            return 1;
        }

        Row row;
        row.threads = threads;
        row.wall_s = stats.wall_s;
        row.tiles_per_s = stats.wall_s > 0.0 ? static_cast<double>(stats.delivered) / stats.wall_s
                                             : 0.0;
        row.litho_evaluations = stats.litho_evaluations;
        // Monolithic-equivalence gate: streaming == barrier per tile, and
        // the stitched chip == the 1-thread golden stitch, byte for byte.
        row.identical = tile_offsets == ref_offsets;
        if (row.identical) {
            const layout::StitchResult stitched =
                layout::stitch(sharder, chip_layout, tile_offsets);
            row.identical = stitched.offsets == golden.offsets;
        }
        all_identical = all_identical && row.identical;
        if (threads == thread_counts.front()) base_wall = row.wall_s;

        std::printf("%8d %10.2f %12.2f %9.2fx %10s\n", threads, row.wall_s, row.tiles_per_s,
                    base_wall > 0.0 ? base_wall / row.wall_s : 0.0,
                    row.identical ? "yes" : "NO");
        rows.push_back(row);
    }

    if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
        std::fprintf(f, "{\n  \"bench\": \"stream_throughput\",\n");
        std::fprintf(f, "  \"grid\": %d,\n  \"chip_polygons\": %zu,\n  \"tiles\": %zu,\n",
                     litho_cfg.grid, chip.size(), tiles.size());
        std::fprintf(f, "  \"owned_segments\": %d,\n  \"identical\": %s,\n",
                     sharder.total_owned_segments(), all_identical ? "true" : "false");
        std::fprintf(f, "  \"rows\": [\n");
        for (std::size_t i = 0; i < rows.size(); ++i) {
            std::fprintf(f,
                         "    {\"threads\": %d, \"wall_s\": %.6f, \"tiles_per_s\": %.3f, "
                         "\"litho_evaluations\": %lld}%s\n",
                         rows[i].threads, rows[i].wall_s, rows[i].tiles_per_s,
                         rows[i].litho_evaluations, i + 1 < rows.size() ? "," : "");
        }
        std::fprintf(f, "  ]\n}\n");
        std::fclose(f);
        std::printf("wrote %s\n", json_path.c_str());
    } else {
        std::printf("FAILED: cannot write %s\n", json_path.c_str());
        return 1;
    }

    if (!all_identical) {
        std::printf("FAILED: streaming results diverged from the barrier reference\n");
        return 1;
    }
    return 0;
}
