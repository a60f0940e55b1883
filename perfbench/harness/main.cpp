// Benchmark harness for the CAMO OPC library.
//
// Runs one named workload, generated from a seed, through the library's
// public API, checks every output against the dense litho reference and
// prints the workload's metrics:
//
//   perfbench_harness --workload via_rule|metal_rule_window|via_camo
//                     --seed N --seconds S --trace 0|1 --work-dir DIR
//
// --trace 0 measures the end-to-end metrics with telemetry off. --trace 1
// runs the cold job once with obs metrics and tracing on, prints the
// per-layer ledger and the layer probes, and writes the Chrome trace to
// DIR/trace.json. The last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <future>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/logging.hpp"
#include "core/experiment.hpp"
#include "layout/metal_gen.hpp"
#include "layout/via_gen.hpp"
#include "ledger.hpp"
#include "litho/incremental.hpp"
#include "litho/kernel_registry.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "probes.hpp"
#include "runtime/batch.hpp"
#include "runtime/thread_pool.hpp"

namespace {

using namespace camo;
using Clock = std::chrono::steady_clock;

enum class Kind { kViaRule, kMetalRuleWindow, kViaCamo };

/// A workload: what it runs and its load size. BENCHMARK.json gives the why.
struct WorkloadSpec {
    Kind kind;
    const char* name;
    int batch_clips;    ///< clips in the batch stream
    int round_clips;    ///< clips per batch round (the stream runs as several rounds)
    int phase1_epochs;  ///< via_camo: phase-1 epochs of the cold training
};

// Short rounds give each run several throughput samples, so a burst of load
// from other processes moves the median less; a round still needs several
// clips per worker thread to keep the pool busy.
constexpr WorkloadSpec kWorkloads[] = {
    {Kind::kViaRule, "via_rule", 128, 32, 0},
    {Kind::kMetalRuleWindow, "metal_rule_window", 32, 32, 0},
    {Kind::kViaCamo, "via_camo", 64, 16, 2},
};

constexpr int kSetupReps = 3;  ///< cold set-ups per untraced run; setup_s is their median
constexpr int kProbeClips = 3;
constexpr int kProbeReps = 2;

struct Args {
    const WorkloadSpec* workload = nullptr;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string work_dir;
};

[[noreturn]] void usage(const std::string& why) {
    std::fprintf(stderr,
                 "perfbench_harness: %s\nusage: perfbench_harness --workload "
                 "via_rule|metal_rule_window|via_camo --seed N --seconds S --trace 0|1 "
                 "--work-dir DIR\n",
                 why.c_str());
    std::exit(2);
}

template <typename T>
T parse_number(const std::string& flag, const char* text) {
    T v{};
    const char* end = text + std::strlen(text);
    const auto [ptr, ec] = std::from_chars(text, end, v);
    if (ec != std::errc() || ptr != end) usage("bad value for " + flag + ": " + text);
    return v;
}

Args parse_args(int argc, char** argv) {
    Args a;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) usage("missing value for " + flag);
        const char* val = argv[++i];
        if (flag == "--workload") {
            for (const WorkloadSpec& w : kWorkloads) {
                if (std::strcmp(w.name, val) == 0) a.workload = &w;
            }
            if (a.workload == nullptr) usage(std::string("unknown workload ") + val);
        } else if (flag == "--seed") {
            a.seed = parse_number<std::uint64_t>(flag, val);
            have_seed = true;
        } else if (flag == "--seconds") {
            a.seconds = parse_number<double>(flag, val);
        } else if (flag == "--trace") {
            const int t = parse_number<int>(flag, val);
            if (t != 0 && t != 1) usage("--trace takes 0 or 1");
            a.trace = t == 1;
        } else if (flag == "--work-dir") {
            a.work_dir = val;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (a.workload == nullptr || !have_seed || !(a.seconds > 0.0) || a.work_dir.empty()) {
        usage("--workload, --seed, --seconds > 0 and --work-dir are required");
    }
    return a;
}

double since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// num / den, or 0 when there is nothing to divide by (a layer that never ran).
double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t h = v.size() / 2;
    return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
    return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

/// CPUs this process may run on (what nproc reports).
int usable_cpus() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) return std::max(1, CPU_COUNT(&set));
    return runtime::ThreadPool::default_threads();
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

// ---- Set-up ----------------------------------------------------------------

/// One batch round's clips.
struct Chunk {
    std::vector<geo::SegmentedLayout> clips;
    std::vector<std::string> names;
};

struct Inputs {
    std::vector<Chunk> chunks;   ///< the batch stream, in round-sized pieces
    double batch_points = 0.0;   ///< EPE measure points over the batch clips
    double batch_edge_nm = 0.0;  ///< target perimeter over the batch clips
    std::vector<geo::SegmentedLayout> train;   ///< via_camo: training clips
    std::vector<geo::SegmentedLayout> table1;  ///< via_camo: Table-1 test clips
    std::vector<std::string> table1_names;
};

struct Setup {
    Inputs inputs;
    litho::LithoConfig litho;
    runtime::BatchOptions options;
    std::unique_ptr<runtime::BatchScheduler> scheduler;
    double seconds = 0.0;
};

runtime::BatchOptions batch_options(const WorkloadSpec& w) {
    runtime::BatchOptions o;
    o.threads = usable_cpus();
    if (w.kind == Kind::kMetalRuleWindow) {
        o.opc = core::Experiment::metal_options();
        o.opc.objective = rl::RewardMode::kWorstCorner;
        o.window = true;
    } else {
        o.opc = core::Experiment::via_options();
    }
    return o;
}

double perimeter_nm(const geo::Polygon& p) {
    const std::vector<geo::Point>& v = p.vertices();
    double len = 0.0;
    for (std::size_t i = 0; i < v.size(); ++i) {
        const geo::Point& a = v[i];
        const geo::Point& b = v[(i + 1) % v.size()];
        len += std::abs(b.x - a.x) + std::abs(b.y - a.y);  // rectilinear edges
    }
    return len;
}

std::vector<std::string> names_of(const std::vector<layout::Clip>& clips) {
    std::vector<std::string> out;
    for (const layout::Clip& c : clips) out.push_back(c.name);
    return out;
}

/// One cold set-up: input generation, fragmentation and the SOCS kernel
/// build into a fresh, empty kernel cache (the in-process registry is
/// cleared first), ending when the scheduler is ready to dispatch clips.
Setup set_up(const WorkloadSpec& w, const Args& a, int rep) {
    litho::clear_kernel_registry();
    Setup s;
    s.litho = core::Experiment::litho_config();
    s.litho.cache_dir = a.work_dir + "/kernels-" + std::to_string(rep);
    std::filesystem::remove_all(s.litho.cache_dir);
    s.options = batch_options(w);

    const obs::Span span("bench.setup");
    const auto t0 = Clock::now();
    std::vector<layout::Clip> batch, train, table1;
    {
        const obs::Span gen("call.layout.generate");
        if (w.kind == Kind::kMetalRuleWindow) {
            batch = layout::metal_training_set(a.seed, w.batch_clips);
        } else if (w.kind == Kind::kViaRule) {
            batch = layout::via_batch_set(a.seed, w.batch_clips);
        } else {
            // As `camo_cli batch --engine camo` does: train on the paper's
            // fixed training set, optimize a seeded stream. Table 1 is the
            // paper's fixed test set.
            train = layout::via_training_set(core::Experiment::kDatasetSeed);
            batch = layout::via_batch_set(a.seed, w.batch_clips);
            table1 = layout::via_test_set(core::Experiment::kDatasetSeed);
        }
    }
    {
        const obs::Span frag("call.geometry.fragment");
        std::vector<geo::SegmentedLayout> stream;
        if (w.kind == Kind::kMetalRuleWindow) {
            stream = core::fragment_metal_clips(batch);
        } else {
            stream = core::fragment_via_clips(batch);
            s.inputs.train = core::fragment_via_clips(train);
            s.inputs.table1 = core::fragment_via_clips(table1);
        }
        s.inputs.table1_names = names_of(table1);
        for (std::size_t i = 0; i < stream.size(); ++i) {
            if (i % static_cast<std::size_t>(w.round_clips) == 0) s.inputs.chunks.emplace_back();
            s.inputs.batch_points += static_cast<double>(stream[i].measure_points().size());
            for (const geo::Polygon& p : stream[i].targets()) {
                s.inputs.batch_edge_nm += perimeter_nm(p);
            }
            s.inputs.chunks.back().clips.push_back(std::move(stream[i]));
            s.inputs.chunks.back().names.push_back(batch[i].name);
        }
    }
    {
        const obs::Span sched("call.runtime.scheduler");
        s.scheduler = std::make_unique<runtime::BatchScheduler>(s.litho, s.options);
    }
    s.seconds = since(t0);
    return s;
}

// ---- The job ---------------------------------------------------------------

struct Round {
    std::size_t chunk = 0;
    double wall_s = 0.0;
    runtime::BatchResult result;
};

struct Job {
    Setup setup;
    std::vector<double> setup_s;  ///< every cold set-up of this run
    std::unique_ptr<core::CamoEngine> engine;
    double train_s = 0.0;
    std::vector<Round> rounds;  ///< the first pass over the stream, then repeats
    double table1_s = 0.0;
    runtime::BatchResult camo_t1;
    runtime::BatchResult rule_t1;

    [[nodiscard]] std::size_t pass() const { return setup.inputs.chunks.size(); }

    /// The cold job's wall time: a set-up (the median of this run's cold
    /// set-ups, which swing with the host's load), training, the first pass
    /// over the stream and the Table-1 runs.
    [[nodiscard]] double total_s() const {
        double batch = 0.0;
        for (std::size_t r = 0; r < pass(); ++r) batch += rounds[r].wall_s;
        return median(setup_s) + train_s + batch + table1_s;
    }

    /// The first pass as one batch result, clips numbered in stream order.
    [[nodiscard]] runtime::BatchResult first_pass() const {
        runtime::BatchResult all;
        for (std::size_t r = 0; r < pass(); ++r) {
            const runtime::BatchResult& b = rounds[r].result;
            all.window_mode = b.window_mode;
            all.threads = b.threads;
            for (runtime::ClipResult c : b.clips) {
                c.index = static_cast<int>(all.clips.size());
                all.clips.push_back(std::move(c));
            }
            all.failed += b.failed;
            all.sum_final_epe += b.sum_final_epe;
            all.sum_pvband_nm2 += b.sum_pvband_nm2;
            all.sum_worst_window_epe += b.sum_worst_window_epe;
        }
        return all;
    }
};

std::unique_ptr<core::CamoEngine> train_camo(const WorkloadSpec& w, const Setup& s,
                                             double& seconds) {
    core::CamoConfig cfg = core::Experiment::via_camo_config();
    cfg.phase1_epochs = w.phase1_epochs;
    auto engine = std::make_unique<core::CamoEngine>(cfg);
    litho::LithoSim sim(s.litho);  // shares the registry kernels: no rebuild
    const obs::Span span("bench.train");
    const auto t0 = Clock::now();
    engine->train(s.inputs.train, sim, core::Experiment::via_options());
    seconds = since(t0);
    return engine;
}

Round run_round(const WorkloadSpec& w, Setup& s, const core::CamoEngine* engine,
                std::size_t chunk) {
    const Chunk& c = s.inputs.chunks[chunk];
    Round r;
    r.chunk = chunk;
    const auto t0 = Clock::now();
    r.result = w.kind == Kind::kViaCamo ? s.scheduler->run_camo(c.clips, *engine, c.names)
                                        : s.scheduler->run_rule(c.clips, {}, c.names);
    r.wall_s = since(t0);
    return r;
}

void run_table1(Job& job) {
    Setup& s = job.setup;
    const obs::Span span("bench.table1");
    const auto t0 = Clock::now();
    job.camo_t1 = s.scheduler->run_camo(s.inputs.table1, *job.engine, s.inputs.table1_names);
    job.rule_t1 = s.scheduler->run_rule(s.inputs.table1, {}, s.inputs.table1_names);
    job.table1_s = since(t0);
}

/// Set-up (`setup_reps` cold times; the last one is kept), training, one
/// pass over the batch stream and Table-1 — the cold job a user runs.
Job run_cold_job(const WorkloadSpec& w, const Args& a, int setup_reps) {
    Job job;
    for (int rep = 0; rep < setup_reps; ++rep) {
        job.setup = set_up(w, a, rep);
        job.setup_s.push_back(job.setup.seconds);
    }
    if (w.kind == Kind::kViaCamo) job.engine = train_camo(w, job.setup, job.train_s);
    {
        const obs::Span span("bench.batch");
        for (std::size_t c = 0; c < job.pass(); ++c) {
            job.rounds.push_back(run_round(w, job.setup, job.engine.get(), c));
        }
    }
    if (w.kind == Kind::kViaCamo) run_table1(job);
    return job;
}

// ---- Output checks ---------------------------------------------------------

struct CheckReport {
    long long attempted = 0;
    long long failed = 0;
    std::vector<std::string> problems;

    void fail(const std::string& what) {
        ++failed;
        if (problems.size() < 20) problems.push_back(what);
    }
};

bool finite(double v) { return std::isfinite(v); }

/// Dense re-score of one clip's final mask: LithoSim::evaluate (nominal) or
/// evaluate_window (window mode) must agree with what the engine reported
/// within the documented incremental tolerances. Returns "" when it does.
std::string rescore(const runtime::ClipResult& c, const geo::SegmentedLayout& layout,
                    const litho::LithoSim& ref, bool window_mode) {
    const std::string who = c.name + " (clip " + std::to_string(c.index) + ")";
    if (!c.error.empty()) return who + ": failed: " + c.error;
    if (!finite(c.final_epe) || !finite(c.pvband_nm2) || !finite(c.initial_epe) ||
        !finite(c.runtime_s)) {
        return who + ": non-finite metric";
    }
    const double px2 = ref.config().pixel_nm * ref.config().pixel_nm;
    const double pvb_tol = litho::kIncrementalPvbPixelSlack * px2;
    if (!window_mode) {
        const litho::SimMetrics d = ref.evaluate(layout, c.offsets);
        const double epe_tol =
            litho::kIncrementalEpeTolNm * std::max(1.0, static_cast<double>(d.epe.size()));
        if (std::abs(d.sum_abs_epe - c.final_epe) > epe_tol) {
            return who + ": EPE " + std::to_string(c.final_epe) + " vs dense " +
                   std::to_string(d.sum_abs_epe);
        }
        if (std::abs(d.pvband_nm2 - c.pvband_nm2) > pvb_tol) {
            return who + ": PV band " + std::to_string(c.pvband_nm2) + " vs dense " +
                   std::to_string(d.pvband_nm2);
        }
        return {};
    }
    if (!c.window) return who + ": window metrics missing";
    const litho::WindowMetrics d =
        ref.evaluate_window(layout, c.offsets, litho::WindowSpec::standard(ref.config()));
    const litho::WindowMetrics& w = *c.window;
    if (w.corners.size() != d.corners.size()) return who + ": corner count differs";
    for (std::size_t k = 0; k < d.corners.size(); ++k) {
        const auto& a = w.corners[k].metrics.epe_segment;
        const auto& b = d.corners[k].metrics.epe_segment;
        if (a.size() != b.size()) return who + ": segment count differs";
        for (std::size_t i = 0; i < a.size(); ++i) {
            if (!finite(a[i]) || std::abs(a[i] - b[i]) > litho::kIncrementalEpeTolNm) {
                return who + ": corner " + std::to_string(k) + " segment " + std::to_string(i) +
                       " EPE " + std::to_string(a[i]) + " vs dense " + std::to_string(b[i]);
            }
        }
    }
    const double worst_tol =
        litho::kIncrementalEpeTolNm * static_cast<double>(layout.num_segments());
    if (!finite(w.worst_epe) || std::abs(w.worst_epe - d.worst_epe) > worst_tol) {
        return who + ": worst-corner EPE " + std::to_string(w.worst_epe) + " vs dense " +
               std::to_string(d.worst_epe);
    }
    if (!finite(w.pv_band_exact_nm2) ||
        std::abs(w.pv_band_exact_nm2 - d.pv_band_exact_nm2) > pvb_tol) {
        return who + ": exact PV band " + std::to_string(w.pv_band_exact_nm2) + " vs dense " +
               std::to_string(d.pv_band_exact_nm2);
    }
    return {};
}

using Verdicts = std::vector<std::future<std::string>>;

/// Queues the dense re-score of every clip of `r` on `pool`.
void rescore_all(const runtime::BatchResult& r, const std::vector<geo::SegmentedLayout>& clips,
                 const litho::LithoSim& ref, runtime::ThreadPool& pool, Verdicts& out) {
    for (std::size_t i = 0; i < r.clips.size(); ++i) {
        out.push_back(pool.submit(
            [&r, &clips, &ref, i] { return rescore(r.clips[i], clips[i], ref, r.window_mode); }));
    }
}

/// Later rounds must reproduce the first round's final masks exactly.
void check_repeat(const runtime::BatchResult& first, const runtime::BatchResult& again,
                  CheckReport& report) {
    for (std::size_t i = 0; i < again.clips.size(); ++i) {
        ++report.attempted;
        const runtime::ClipResult& c = again.clips[i];
        if (!c.error.empty()) {
            report.fail(c.name + ": failed on repeat: " + c.error);
        } else if (c.offsets != first.clips[i].offsets) {
            report.fail(c.name + ": final offsets differ between rounds");
        }
    }
}

/// FNV-1a over every final offset, clip by clip.
std::uint64_t fingerprint(std::uint64_t h, const runtime::BatchResult& r) {
    const auto mix = [&h](long long v) {
        for (int b = 0; b < 8; ++b) {
            h ^= static_cast<std::uint64_t>(v >> (8 * b)) & 0xFFU;
            h *= 1099511628211ULL;
        }
    };
    for (const runtime::ClipResult& c : r.clips) {
        mix(c.index);
        mix(static_cast<long long>(c.offsets.size()));
        for (int o : c.offsets) mix(o);
    }
    return h;
}

// ---- Reporting -------------------------------------------------------------

using Metric = perfbench::Measured;

std::string number(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

void print_result(bool correct, const CheckReport& rep, const std::vector<Metric>& metrics) {
    std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                      ", \"attempted\": " + std::to_string(rep.attempted) +
                      ", \"failed\": " + std::to_string(rep.failed) + ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i > 0) out += ", ";
        out += "\"" + metrics[i].name + "\": {\"value\": " + number(metrics[i].value) +
               ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

std::vector<double> clip_ms(const std::vector<Round>& rounds) {
    std::vector<double> out;
    for (const Round& r : rounds) {
        for (const runtime::ClipResult& c : r.result.clips) {
            if (c.error.empty()) out.push_back(1e3 * c.runtime_s);
        }
    }
    return out;
}

/// Checks every result of the job: the first pass and Table 1 against the
/// dense reference, every repeated round against the first pass. Returns
/// the fingerprint of all final offsets (first pass, then Table 1).
std::uint64_t check_job(const Job& job, CheckReport& report) {
    const litho::LithoSim ref(job.setup.litho);
    runtime::ThreadPool pool(job.setup.options.threads);
    const std::vector<Chunk>& chunks = job.setup.inputs.chunks;
    Verdicts verdicts;
    for (std::size_t r = 0; r < job.pass(); ++r) {
        rescore_all(job.rounds[r].result, chunks[job.rounds[r].chunk].clips, ref, pool, verdicts);
    }
    if (job.engine) {
        rescore_all(job.camo_t1, job.setup.inputs.table1, ref, pool, verdicts);
        rescore_all(job.rule_t1, job.setup.inputs.table1, ref, pool, verdicts);
    }
    for (std::future<std::string>& v : verdicts) {
        ++report.attempted;
        const std::string problem = v.get();
        if (!problem.empty()) report.fail(problem);
    }
    for (std::size_t r = job.pass(); r < job.rounds.size(); ++r) {
        check_repeat(job.rounds[job.rounds[r].chunk].result, job.rounds[r].result, report);
    }
    std::uint64_t print = fingerprint(14695981039346656037ULL, job.first_pass());
    if (job.engine) print = fingerprint(fingerprint(print, job.camo_t1), job.rule_t1);
    return print;
}

void print_quality(const WorkloadSpec& w, const Job& job, std::uint64_t print) {
    const runtime::BatchResult b = job.first_pass();
    std::printf("workload %s: %d clips in rounds of %d, %zu round(s), %d threads\n", w.name,
                static_cast<int>(b.clips.size()), w.round_clips, job.rounds.size(), b.threads);
    std::printf("  quality   sum EPE %.4f nm, sum PV band %.1f nm2", b.sum_final_epe,
                b.sum_pvband_nm2);
    if (b.window_mode) std::printf(", sum worst-corner EPE %.4f nm", b.sum_worst_window_epe);
    std::printf("\n");
    if (job.engine) {
        std::printf("  table-1   sum EPE CAMO %.4f nm, rule %.4f nm (ratio %.4f)\n",
                    job.camo_t1.sum_final_epe, job.rule_t1.sum_final_epe,
                    job.camo_t1.sum_final_epe / job.rule_t1.sum_final_epe);
    }
    std::printf("  fingerprint %016llx (all final offsets)\n",
                static_cast<unsigned long long>(print));
}

// ---- Traced run ------------------------------------------------------------

void print_ledger(const perfbench::Ledger& led) {
    std::printf("\nper-span self time (all threads; self = duration minus direct children)\n");
    std::printf("  %-34s %-8s %8s %12s %12s %12s\n", "span", "layer", "count", "total ms",
                "self ms", "self ms/call");
    std::map<std::string, double> layer_self;
    for (const auto& [name, st] : led.spans) {
        const std::string layer = perfbench::layer_of(name);
        layer_self[layer] += st.self_ms;
        std::printf("  %-34s %-8s %8lld %12.1f %12.1f %12.3f\n", name.c_str(), layer.c_str(),
                    st.count, st.total_ms, st.self_ms,
                    st.count > 0 ? st.self_ms / static_cast<double>(st.count) : 0.0);
    }
    std::printf("\nper-layer self time (thread-ms)\n");
    for (const auto& [layer, self] : layer_self) {
        std::printf("  %-12s %12.1f\n", layer.c_str(), self);
    }
    std::printf("  %-12s %12.1f  (driving thread, inside no layer span; job wall %.1f ms)\n",
                "unattributed", led.unattributed_ms, led.job_wall_ms);
    std::printf("\nper-thread self time by layer (ms)\n");
    for (const auto& [tid, layers] : led.thread_layer_self_ms) {
        std::printf("  thread %-3d", tid);
        for (const auto& [layer, self] : layers) std::printf("  %s %.1f", layer.c_str(), self);
        std::printf("\n");
    }
    std::printf("\nphases (driving thread)\n");
    for (const perfbench::PhaseStats& p : led.phases) {
        const perfbench::EvalCounts& e = p.evals;
        std::printf("  %-14s wall %10.1f ms  evals %lld = %lld rebuilt + %lld sparse + %lld "
                    "unchanged + %lld dense; images %lld focus-plane (%lld on unchanged masks) "
                    "+ %lld nominal\n",
                    p.name.c_str(), p.wall_ms, e.evaluations(), e.rebuilt, e.sparse, e.unchanged,
                    e.dense, e.focus_images, e.wasted_images, e.nominal_images);
    }
}

double counter(const std::vector<obs::MetricSnapshot>& snap, const char* name) {
    const obs::MetricSnapshot* m = obs::find_metric(snap, name);
    if (m == nullptr) return 0.0;
    return static_cast<double>(m->type == obs::MetricType::kHistogram ? m->hist_count : m->counter);
}

std::vector<Metric> traced_run(const WorkloadSpec& w, const Args& a, CheckReport& report) {
    obs::reset_metrics();
    obs::reset_trace();
    obs::set_metrics_enabled(true);
    obs::set_tracing_enabled(true);
    const long long t_begin = obs::trace_now_ns();
    Job job;
    {
        const obs::Span root("bench.job");
        job = run_cold_job(w, a, 1);
    }
    const long long t_end = obs::trace_now_ns();
    const std::vector<obs::MetricSnapshot> snap = obs::snapshot_metrics();
    const perfbench::Ledger led = perfbench::build_ledger(t_begin, t_end, stable_thread_id());
    obs::set_tracing_enabled(false);
    obs::set_metrics_enabled(false);

    // Tracing overhead: one warm round with telemetry off, then the same
    // round with it on (the job's first pass paid the lazy first-use set-up,
    // so it is not comparable).
    job.rounds.push_back(run_round(w, job.setup, job.engine.get(), 0));
    obs::set_metrics_enabled(true);
    obs::set_tracing_enabled(true);
    job.rounds.push_back(run_round(w, job.setup, job.engine.get(), 0));
    obs::set_tracing_enabled(false);
    obs::set_metrics_enabled(false);
    const double overhead =
        job.rounds.back().wall_s / job.rounds[job.rounds.size() - 2].wall_s - 1.0;

    print_quality(w, job, check_job(job, report));

    // Work counters, derived from span nesting and cross-checked against the
    // program's own registry counters.
    const perfbench::EvalCounts& all = led.evals;
    const long long rebuilds = led.span("litho.incremental.rebuild").count;
    const long long sparse = led.span("litho.delta_dft").count;
    const double unchanged_counter = counter(snap, "litho.incremental.hits") - sparse;
    if (led.dropped_events > 0) report.fail("trace ring dropped events");
    if (all.unchanged != unchanged_counter || rebuilds != all.rebuilt || sparse != all.sparse ||
        all.rebuilt != counter(snap, "litho.incremental.fulls")) {
        report.fail("span-derived evaluation counts disagree with the registry counters");
    }

    // Batch-phase work per clip.
    const perfbench::PhaseStats& batch = led.phase("bench.batch");
    const perfbench::EvalCounts& be = batch.evals;
    const runtime::BatchResult first = job.first_pass();
    const double clips = std::max(1, first.ok());
    double iterations = 0.0;
    for (const runtime::ClipResult& c : first.clips) iterations += c.iterations;
    const auto per_call = [](const perfbench::NameStats& st) {
        return st.count > 0 ? st.self_ms / static_cast<double>(st.count) : 0.0;
    };
    const perfbench::NameStats& clip_span = perfbench::span_stats(batch.spans, "batch.clip");
    const double batch_run_ms = perfbench::span_stats(batch.spans, "batch.run").total_ms;

    const perfbench::NameStats& fp = led.span("window.focus_plane");
    const long long images = all.focus_images + all.nominal_images;
    const double image_ms = fp.self_ms + all.nominal_image_self_ms;
    const perfbench::NameStats& epochs = led.span("train.phase1.epoch");
    const double epoch_s = 1e-3 * median(epochs.durations_ms);
    const double samples = counter(snap, "train.teacher_samples");
    const long long evals = all.evaluations() - all.dense;

    std::vector<Metric> m = {
        {"litho.rebuilds", static_cast<double>(rebuilds), "count"},
        {"litho.rebuild_ms", per_call(led.span("litho.incremental.rebuild")), "ms"},
        {"litho.aerial_ms", ratio(image_ms, images), "ms"},
        {"litho.focus_plane_images", static_cast<double>(all.focus_images), "count"},
        {"litho.wasted_images", static_cast<double>(all.wasted_images), "count"},
        {"litho.sparse_updates", static_cast<double>(sparse), "count"},
        {"litho.sparse_ms", per_call(led.span("litho.delta_dft")), "ms"},
        {"litho.evals_per_clip", static_cast<double>(be.evaluations()) / clips, "count"},
        {"litho.rebuilds_per_clip", static_cast<double>(be.rebuilt) / clips, "count"},
        {"litho.sparse_per_clip", static_cast<double>(be.sparse) / clips, "count"},
        {"litho.unchanged_per_clip", static_cast<double>(be.unchanged) / clips, "count"},
        {"litho.unchanged_evals", static_cast<double>(all.unchanged), "count"},
        {"litho.useful_eval_frac", ratio(all.rebuilt + all.sparse, evals), "fraction"},
        {"litho.kernels_build_s", 1e-3 * led.span("kernels.build").total_ms, "s"},
        {"core.train_s", job.train_s, "s"},
        {"core.collect_s", 1e-3 * led.span("train.collect").total_ms, "s"},
        {"core.teacher_samples", samples, "count"},
        {"core.phase1_epoch_s", epoch_s, "s"},
        {"core.phase1_samples_per_s", ratio(samples, epoch_s), "1/s"},
        {"core.table1_epe_ratio", ratio(job.camo_t1.sum_final_epe, job.rule_t1.sum_final_epe),
         "ratio"},
        {"nn.reduce_ms", per_call(led.span("train.reduce")), "ms"},
        {"nn.grad_reductions", counter(snap, "train.grad_reductions"), "count"},
        {"opc.iterations_per_clip", iterations / clips, "count"},
        {"opc.engine_self_ms_per_clip", clip_span.self_ms / clips, "ms"},
        {"opc.epe_sum_nm", first.sum_final_epe, "nm"},
        {"opc.pvband_sum_nm2", first.sum_pvband_nm2, "nm2"},
        {"opc.worst_epe_sum_nm", first.sum_worst_window_epe, "nm"},
        {"runtime.pool.tasks", counter(snap, "pool.tasks"), "count"},
        {"runtime.pool.steals", counter(snap, "pool.steals"), "count"},
        {"runtime.worker_util", ratio(clip_span.total_ms, first.threads * batch_run_ms),
         "fraction"},
        {"obs.trace_overhead_frac", overhead, "fraction"},
        {"obs.unattributed_frac", ratio(led.unattributed_ms, led.job_wall_ms), "fraction"},
    };

    // Layer probes on the workload's own final masks. The rule workloads
    // have no trained policy; an untrained one costs the same to run.
    std::optional<core::CamoEngine> untrained;
    if (!job.engine) {
        untrained.emplace(w.kind == Kind::kMetalRuleWindow ? core::Experiment::metal_camo_config()
                                                           : core::Experiment::via_camo_config());
    }
    core::CamoEngine& engine = job.engine ? *job.engine : *untrained;
    std::vector<perfbench::ProbeClip> probe_clips;
    const Chunk& chunk = job.setup.inputs.chunks.front();
    for (std::size_t i = 0; i < chunk.clips.size() && probe_clips.size() < kProbeClips; ++i) {
        probe_clips.push_back({&chunk.clips[i], first.clips[i].offsets});
    }
    obs::set_tracing_enabled(true);
    {
        const obs::Span span("bench.probes");
        const litho::LithoSim sim(job.setup.litho);
        for (Metric& p : perfbench::run_probes(sim, probe_clips, engine, kProbeReps)) {
            m.push_back(std::move(p));
        }
    }
    obs::write_trace_json(a.work_dir + "/trace.json");
    obs::set_tracing_enabled(false);

    print_ledger(led);
    std::printf("\nwork per batch clip: %.2f evaluations (%.2f rebuilt, %.2f sparse, %.2f "
                "unchanged), %.2f iterations\n",
                static_cast<double>(be.evaluations()) / clips,
                static_cast<double>(be.rebuilt) / clips, static_cast<double>(be.sparse) / clips,
                static_cast<double>(be.unchanged) / clips,
                iterations / clips);
    std::printf("\nper-layer metrics\n");
    for (const Metric& x : m) {
        std::printf("  %-32s %14.6g %s\n", x.name.c_str(), x.value, x.unit.c_str());
    }
    return m;
}

// ---- Untraced run ----------------------------------------------------------

std::vector<Metric> untraced_run(const WorkloadSpec& w, const Args& a, CheckReport& report) {
    Job job = run_cold_job(w, a, kSetupReps);
    double batch_s = 0.0;
    for (const Round& r : job.rounds) batch_s += r.wall_s;
    while (batch_s < a.seconds) {
        job.rounds.push_back(
            run_round(w, job.setup, job.engine.get(), job.rounds.size() % job.pass()));
        batch_s += job.rounds.back().wall_s;
    }
    print_quality(w, job, check_job(job, report));

    std::vector<double> throughput;
    for (const Round& r : job.rounds) throughput.push_back(r.result.ok() / r.wall_s);
    const std::vector<double> per_clip = clip_ms(job.rounds);
    std::printf("  timing    setup %.3f s (median of %zu); per-clip p50 %.1f ms over %zu samples",
                median(job.setup_s), job.setup_s.size(), median(per_clip), per_clip.size());
    if (per_clip.size() >= 100) {
        std::printf(", p90 %.1f ms", percentile(per_clip, 0.9));
    }
    std::printf("\n");
    const runtime::BatchResult first = job.first_pass();
    return {
        {"setup_s", median(job.setup_s), "s"},
        {"clips_per_s", median(throughput), "1/s"},
        {"clip_p50_ms", median(per_clip), "ms"},
        {"total_s", job.total_s(), "s"},
        {"epe_per_point_nm", first.sum_final_epe / job.setup.inputs.batch_points, "nm"},
        {"pvband_width_nm", first.sum_pvband_nm2 / job.setup.inputs.batch_edge_nm, "nm"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
}

}  // namespace

int main(int argc, char** argv) {
    const Args args = parse_args(argc, argv);
    // Hermetic: the benchmark measures the default quick-scale, dispatched
    // backend whatever the caller's environment says.
    unsetenv("CAMO_BENCH_FULL");
    unsetenv("CAMO_BACKEND");
    set_log_level(LogLevel::kQuiet);
    std::filesystem::create_directories(args.work_dir);

    CheckReport report;
    std::vector<Metric> metrics;
    try {
        metrics = args.trace ? traced_run(*args.workload, args, report)
                             : untraced_run(*args.workload, args, report);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
        return 1;
    }
    for (const Metric& m : metrics) {
        if (!std::isfinite(m.value)) report.fail("metric " + m.name + " is not finite");
    }
    for (const std::string& p : report.problems) {
        std::fprintf(stderr, "check failed: %s\n", p.c_str());
    }
    const bool correct = report.failed == 0;
    print_result(correct, report, metrics);
    return correct ? 0 : 1;
}
