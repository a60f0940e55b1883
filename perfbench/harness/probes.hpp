// Layer probes: time single public calls of the litho and core layers on a
// workload's own final masks, so a per-layer change shows as a direct
// per-call number beside the end-to-end metrics it should move.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/camo.hpp"
#include "geometry/layout.hpp"
#include "litho/simulator.hpp"

namespace perfbench {

/// One probed clip: a layout and the final offsets the workload produced.
struct ProbeClip {
    const camo::geo::SegmentedLayout* layout = nullptr;
    std::vector<int> offsets;
};

/// One named measurement with its unit, e.g. {"litho.fft2d_ms", 31.2, "ms"}.
struct Measured {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// Times every probe `reps` times per clip and reports per-call medians.
/// `engine` supplies the policy and squish settings for the core probes.
std::vector<Measured> run_probes(const camo::litho::LithoSim& sim, std::span<const ProbeClip> clips,
                       camo::core::CamoEngine& engine, int reps);

}  // namespace perfbench
