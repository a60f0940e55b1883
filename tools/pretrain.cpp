// Pre-trains the CAMO and RL-OPC policies for both layers and stores the
// weights under data/. The benchmark binaries load these caches; run this
// tool (or any table bench) once after changing training configuration.
//
//   pretrain [--train-workers N] [--log-level quiet|info|debug]
//            [--metrics-json PATH] [--trace PATH]
//
// --train-workers selects the training runtime's worker count (<= 0 = all
// hardware threads); at the default phase-1 batch of 1 it parallelizes
// teacher collection and the phase-2 waves, not phase 1. The trained
// weights are bit-identical at any value — the flag only changes wall
// time — which is why the cache path does not encode it. --metrics-json /
// --trace enable the telemetry layer (observational only: weights stay
// bit-identical) and write the registry snapshot / Chrome trace on exit.
#include <cstdio>
#include <string>
#include <vector>

#include "common/logging.hpp"
#include "common/parse.hpp"
#include "common/timer.hpp"
#include "core/experiment.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"

namespace {

using namespace camo;

void train_one(core::CamoConfig cfg, int train_workers, const std::string& layer) {
    Timer timer;
    cfg.train_workers = train_workers;
    core::CamoEngine engine(cfg);
    const bool cached = core::ensure_trained(engine, layer);
    std::printf("%-12s %-6s %-7s %6.1fs -> %s\n", cfg.name.c_str(), layer.c_str(),
                cached ? "cached" : "trained", timer.seconds(),
                core::Experiment::weights_path(cfg, layer).c_str());
}

}  // namespace

int main(int argc, char** argv) {
    int train_workers = 1;
    std::string log_level = "info";
    std::string metrics_json;
    std::string trace;
    const std::vector<Flag> flags = {
        int_flag("--train-workers", train_workers),
        choice_flag("--log-level", log_level, {"quiet", "info", "debug"}),
        string_flag("--metrics-json", metrics_json),
        string_flag("--trace", trace),
    };
    LogLevel level = LogLevel::kInfo;
    if (!parse_flags(flags, argc, argv, 1) || !parse_log_level(log_level, level)) {
        std::fputs(flag_usage("pretrain", flags).c_str(), stderr);
        return 2;
    }

    set_log_level(level);
    if (!metrics_json.empty()) obs::set_metrics_enabled(true);
    if (!trace.empty()) obs::set_tracing_enabled(true);
    train_one(core::Experiment::via_camo_config(), train_workers, "via");
    train_one(core::Experiment::via_rlopc_config(), train_workers, "via");
    train_one(core::Experiment::metal_camo_config(), train_workers, "metal");
    train_one(core::Experiment::metal_rlopc_config(), train_workers, "metal");

    if (!metrics_json.empty()) obs::write_metrics_json(metrics_json);
    if (!trace.empty()) obs::write_trace_json(trace);
    return 0;
}
