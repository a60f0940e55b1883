#include "ledger.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/trace.hpp"

namespace perfbench {
namespace {

struct Event {
    int tid = 0;
    std::string name;
    long long start = 0;
    long long dur = 0;
    long long child_ns = 0;  ///< time covered by direct children
    int parent = -1;
    bool has_rebuild = false;
    bool has_delta = false;
    bool has_sweep = false;
    int focus_children = 0;
};

bool starts_with(const std::string& s, const char* prefix) {
    return s.rfind(prefix, 0) == 0;
}

double ms(long long ns) { return static_cast<double>(ns) * 1e-6; }

void add(NameStats& st, const Event& ev) {
    ++st.count;
    st.total_ms += ms(ev.dur);
    st.self_ms += ms(ev.dur - ev.child_ns);
    st.durations_ms.push_back(ms(ev.dur));
}

void classify(EvalCounts& c, const Event& ev) {
    if (ev.name == "window.focus_plane") ++c.focus_images;
    const bool nominal = ev.name == "litho.evaluate_incremental";
    const bool window = ev.name == "litho.evaluate_window";
    if (ev.name == "litho.evaluate" || (window && ev.has_sweep)) {
        ++c.dense;
        return;
    }
    if (!nominal && !window) return;
    if (ev.has_rebuild) {
        ++c.rebuilt;
    } else if (ev.has_delta) {
        ++c.sparse;
    } else {
        ++c.unchanged;
        if (window) c.wasted_images += ev.focus_children;
    }
    if (nominal && (ev.has_rebuild || ev.has_delta)) {
        c.nominal_images += 2;  // nominal + defocus aerial
        c.nominal_image_self_ms += ms(ev.dur - ev.child_ns);
    }
}

}  // namespace

const NameStats& span_stats(const std::map<std::string, NameStats>& spans,
                            const std::string& name) {
    static const NameStats kEmpty;
    const auto it = spans.find(name);
    return it == spans.end() ? kEmpty : it->second;
}

const NameStats& Ledger::span(const std::string& name) const { return span_stats(spans, name); }

const PhaseStats& Ledger::phase(const std::string& name) const {
    for (const PhaseStats& p : phases) {
        if (p.name == name) return p;
    }
    throw std::out_of_range("ledger has no phase " + name);
}

std::string layer_of(const std::string& n) {
    if (starts_with(n, "litho.") || starts_with(n, "window.") || starts_with(n, "kernels.")) {
        return "litho";
    }
    if (n == "train.reduce") return "nn";
    if (starts_with(n, "train.")) return "core";
    if (n == "batch.clip") return "opc";  // engine loop outside litho (rule or CAMO policy)
    if (starts_with(n, "batch.")) return "runtime";
    if (starts_with(n, "call.")) {
        const std::size_t dot = n.find('.', 5);
        return n.substr(5, dot == std::string::npos ? std::string::npos : dot - 5);
    }
    if (starts_with(n, "bench.")) return "(benchmark)";
    return "other";
}

Ledger build_ledger(long long start_ns, long long end_ns, int main_tid) {
    std::vector<Event> events;
    Ledger out;
    out.dropped_events = camo::obs::detail::visit_trace_events(
        [&](int tid, const char* name, long long s, long long d) {
            if (s < start_ns || s + d > end_ns) return;
            Event ev;
            ev.tid = tid;
            ev.name = name;
            ev.start = s;
            ev.dur = d;
            events.push_back(std::move(ev));
        });
    std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
        if (a.tid != b.tid) return a.tid < b.tid;
        if (a.start != b.start) return a.start < b.start;
        return a.dur > b.dur;
    });

    // Nest per thread: the innermost open span that still covers an event's
    // start is its parent.
    std::vector<int> stack;
    for (std::size_t i = 0; i < events.size(); ++i) {
        Event& ev = events[i];
        if (i > 0 && events[i - 1].tid != ev.tid) stack.clear();
        while (!stack.empty()) {
            const Event& top = events[static_cast<std::size_t>(stack.back())];
            if (top.start + top.dur > ev.start) break;
            stack.pop_back();
        }
        if (!stack.empty()) {
            ev.parent = stack.back();
            Event& p = events[static_cast<std::size_t>(ev.parent)];
            p.child_ns += ev.dur;
            if (ev.name == "litho.incremental.rebuild") p.has_rebuild = true;
            if (ev.name == "litho.delta_dft") p.has_delta = true;
            if (ev.name == "window.sweep") p.has_sweep = true;
            if (ev.name == "window.focus_plane") ++p.focus_children;
        }
        stack.push_back(static_cast<int>(i));
    }

    // Phases: the benchmark's own phase spans on the driving thread, directly
    // under its bench.job root.
    std::vector<std::pair<long long, long long>> phase_ranges;
    for (const Event& ev : events) {
        if (ev.tid != main_tid) continue;
        if (ev.name == "bench.job") {
            out.job_wall_ms += ms(ev.dur);
            out.unattributed_ms += ms(ev.dur - ev.child_ns);
            continue;
        }
        if (ev.parent >= 0 && events[static_cast<std::size_t>(ev.parent)].name == "bench.job" &&
            starts_with(ev.name, "bench.")) {
            PhaseStats p;
            p.name = ev.name;
            p.wall_ms = ms(ev.dur);
            p.self_ms = ms(ev.dur - ev.child_ns);
            out.unattributed_ms += p.self_ms;
            out.phases.push_back(std::move(p));
            phase_ranges.emplace_back(ev.start, ev.start + ev.dur);
        }
    }

    for (const Event& ev : events) {
        if (starts_with(ev.name, "bench.")) continue;
        add(out.spans[ev.name], ev);
        out.thread_layer_self_ms[ev.tid][layer_of(ev.name)] += ms(ev.dur - ev.child_ns);
        classify(out.evals, ev);
        for (std::size_t p = 0; p < phase_ranges.size(); ++p) {
            if (ev.start >= phase_ranges[p].first && ev.start < phase_ranges[p].second) {
                add(out.phases[p].spans[ev.name], ev);
                classify(out.phases[p].evals, ev);
                break;
            }
        }
    }
    return out;
}

}  // namespace perfbench
