// Per-layer time ledger built from the program's obs trace events.
//
// Every span recorded between two trace timestamps is nested per thread
// (a span's parent is the innermost span on the same thread that encloses
// it), which gives each span its self time: duration minus the time its
// direct children cover. Spans are then grouped by name and by the
// benchmark phase ("bench.*" span on the driving thread) their start falls
// in, and every litho evaluation is classified by what its children did:
// a rebuild child means a full rebuild, a delta_dft child a sparse update,
// neither means nothing moved and the cache was reused.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct NameStats {
    long long count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
    std::vector<double> durations_ms;  ///< per-call durations, for medians
};

/// Litho evaluation work, classified from outside by span nesting.
struct EvalCounts {
    long long rebuilt = 0;    ///< evaluations with a litho.incremental.rebuild child
    long long sparse = 0;     ///< evaluations with a litho.delta_dft child
    long long unchanged = 0;  ///< evaluations that reused the cache outright
    long long dense = 0;      ///< LithoSim::evaluate calls (no cache)
    long long focus_images = 0;   ///< window.focus_plane spans
    long long wasted_images = 0;  ///< focus-plane images made on unchanged masks
    long long nominal_images = 0;  ///< nominal-path images (2 per imaging evaluation)
    double nominal_image_self_ms = 0.0;  ///< self time of imaging nominal evaluations
    [[nodiscard]] long long evaluations() const { return rebuilt + sparse + unchanged + dense; }
};

struct PhaseStats {
    std::string name;
    double wall_ms = 0.0;
    double self_ms = 0.0;  ///< phase time covered by no program or probe span
    std::map<std::string, NameStats> spans;
    EvalCounts evals;
};

struct Ledger {
    double job_wall_ms = 0.0;       ///< driving-thread wall of the traced job
    double unattributed_ms = 0.0;   ///< driving-thread time covered by no layer span
    std::map<std::string, NameStats> spans;  ///< every span name, whole job
    std::vector<PhaseStats> phases;          ///< in execution order
    std::map<int, std::map<std::string, double>> thread_layer_self_ms;  ///< tid -> layer -> self
    EvalCounts evals;                        ///< whole job
    long long dropped_events = 0;

    [[nodiscard]] const NameStats& span(const std::string& name) const;
    /// The phase named `name`; throws std::out_of_range if it never ran.
    [[nodiscard]] const PhaseStats& phase(const std::string& name) const;
};

/// Stats of `name` in `spans`; empty stats when that span never ran.
const NameStats& span_stats(const std::map<std::string, NameStats>& spans,
                            const std::string& name);

/// Builds the ledger from the trace events recorded by the calling thread
/// and every other thread between `start_ns` and `end_ns` (obs trace
/// clock). `main_tid` is the driving thread's trace id.
Ledger build_ledger(long long start_ns, long long end_ns, int main_tid);

/// Layer of a span name: the src/ module whose code the span times.
std::string layer_of(const std::string& span_name);

}  // namespace perfbench
