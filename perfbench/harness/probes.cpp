#include "probes.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "core/graph.hpp"
#include "core/modulator.hpp"
#include "litho/fft.hpp"
#include "litho/incremental.hpp"
#include "litho/metrics.hpp"
#include "nn/softmax.hpp"
#include "obs/trace.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t h = v.size() / 2;
    return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

/// Keeps a computed value observable so the timed call is not elided.
template <typename T>
void keep(const T& value) {
    asm volatile("" : : "g"(&value) : "memory");
}

/// Milliseconds taken by one call of `fn`.
template <typename F>
double time_ms(F&& fn) {
    const auto t0 = Clock::now();
    fn();
    return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

int wrap(int k, int n) { return ((k % n) + n) % n; }

}  // namespace

std::vector<Measured> run_probes(const camo::litho::LithoSim& sim, std::span<const ProbeClip> clips,
                       camo::core::CamoEngine& engine, int reps) {
    namespace litho = camo::litho;
    namespace core = camo::core;
    const litho::LithoConfig& cfg = sim.config();
    const int n = cfg.grid;
    const std::size_t nn = static_cast<std::size_t>(n) * static_cast<std::size_t>(n);
    const litho::KernelSet& nominal = sim.nominal_kernels();
    const litho::SupportApplicator applicator(nominal, n);
    const core::CamoConfig& ecfg = engine.config();

    std::vector<double> raster, fft, support, metrics, dense, encode, graph, infer, modulate;
    std::vector<std::vector<camo::nn::Tensor>> features(clips.size());
    std::vector<core::Graph> graphs(clips.size());

    for (int r = 0; r < reps; ++r) {
        for (std::size_t c = 0; c < clips.size(); ++c) {
            const camo::geo::SegmentedLayout& layout = *clips[c].layout;
            const std::span<const int> offsets(clips[c].offsets);
            const std::vector<camo::geo::Polygon> mask = layout.reconstruct_mask(offsets);

            const auto t0 = Clock::now();
            camo::geo::Raster m = [&] {
                const camo::obs::Span span("call.litho.rasterize");
                return sim.rasterize(mask, layout.srafs(), layout.clip_size_nm());
            }();
            raster.push_back(std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
            std::vector<litho::Complex> grid(nn);
            for (std::size_t i = 0; i < nn; ++i) grid[i] = litho::Complex(m.data()[i], 0.0F);
            {
                const camo::obs::Span span("call.litho.fft2d_forward");
                fft.push_back(time_ms([&] { litho::fft2d_forward(grid, n); }));
            }
            std::vector<litho::Complex> vals;
            vals.reserve(nominal.support.size());
            for (const litho::FreqIndex& f : nominal.support) {
                vals.push_back(grid[static_cast<std::size_t>(wrap(f.ky, n)) * n + wrap(f.kx, n)]);
            }
            {
                const camo::obs::Span span("call.litho.support_apply");
                support.push_back(time_ms([&] { keep(applicator.apply(vals, cfg.pixel_nm)); }));
            }
            const camo::geo::Raster a_nom = sim.aerial_nominal(m);
            const camo::geo::Raster a_def = sim.aerial_defocus(m);
            const double clip_offset = sim.clip_offset_nm(layout.clip_size_nm());
            {
                const camo::obs::Span span("call.litho.compute_sim_metrics");
                metrics.push_back(time_ms([&] {
                    keep(litho::compute_sim_metrics(layout, a_nom, a_def, sim.threshold(),
                                                    clip_offset, cfg.epe_range_nm, cfg.dose_min,
                                                    cfg.dose_max));
                }));
            }
            litho::SimMetrics full;
            {
                const camo::obs::Span span("call.litho.evaluate");
                dense.push_back(time_ms([&] { full = sim.evaluate(layout, offsets); }));
            }
            {
                const camo::obs::Span span("call.core.encode_state");
                encode.push_back(
                    time_ms([&] { features[c] = engine.encode_state(layout, offsets); }));
            }
            {
                const camo::obs::Span span("call.core.build_segment_graph");
                graph.push_back(time_ms([&] {
                    graphs[c] = core::build_segment_graph(layout, ecfg.graph_threshold_nm);
                }));
            }
            camo::nn::Tensor logits;
            {
                const camo::obs::Span span("call.core.policy_infer");
                infer.push_back(
                    time_ms([&] { logits = engine.policy().infer(features[c], graphs[c]); }));
            }
            {
                // The modulator over every segment of the clip, as one
                // inference step applies it.
                const camo::obs::Span span("call.core.modulate");
                modulate.push_back(time_ms([&] {
                    for (int s = 0; s < layout.num_segments(); ++s) {
                        std::array<float, camo::rl::kNumActions> row{};
                        for (int a = 0; a < camo::rl::kNumActions; ++a) {
                            row[static_cast<std::size_t>(a)] = logits.at(s, a);
                        }
                        const std::vector<float> p = camo::nn::softmax(row);
                        std::array<double, camo::rl::kNumActions> probs{};
                        std::copy(p.begin(), p.end(), probs.begin());
                        keep(core::modulate_probs(
                            probs, full.epe_segment[static_cast<std::size_t>(s)], ecfg.modulator));
                    }
                }));
            }
        }
    }

    std::vector<double> batch;
    std::vector<core::PolicyNetwork::ClipRequest> requests;
    for (std::size_t c = 0; c < clips.size(); ++c) requests.push_back({&features[c], &graphs[c]});
    for (int r = 0; r < reps; ++r) {
        const camo::obs::Span span("call.core.policy_infer_batch");
        batch.push_back(time_ms([&] { keep(engine.policy().infer_batch(requests)); }) /
                        static_cast<double>(std::max<std::size_t>(1, clips.size())));
    }

    // Radix-2 operation count of an n x n complex transform (5 N log2 N flops
    // for N = n^2 points) and the bytes one read and one write of the grid per
    // row pass and per column pass move.
    const double points = static_cast<double>(nn);
    const double fft_mflop = 5.0 * points * std::log2(points) * 1e-6;
    const double fft_mbyte = 2.0 * 2.0 * points * sizeof(litho::Complex) * 1e-6;
    const double fft_ms = median(fft);
    return {
        {"litho.rasterize_ms", median(raster), "ms"},
        {"litho.fft2d_ms", fft_ms, "ms"},
        {"litho.fft2d_mflop", fft_mflop, "MFLOP"},
        {"litho.fft2d_mbyte", fft_mbyte, "MB"},
        {"litho.fft2d_gflops", fft_ms > 0.0 ? fft_mflop / fft_ms : 0.0, "GFLOP/s"},
        {"litho.support_apply_ms", median(support), "ms"},
        {"litho.metrics_ms", median(metrics), "ms"},
        {"litho.evaluate_dense_ms", median(dense), "ms"},
        {"core.encode_state_ms", median(encode), "ms"},
        {"core.graph_build_ms", median(graph), "ms"},
        {"core.policy_infer_ms", median(infer), "ms"},
        {"core.policy_infer_batch_ms", median(batch), "ms"},
        {"core.modulate_us", 1e3 * median(modulate), "us"},
    };
}

}  // namespace perfbench
