// OpcServer: admission control, priority scheduling and per-clip
// determinism of the serve loop on a warm scheduler core.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "layout/via_gen.hpp"
#include "litho/simulator.hpp"
#include "runtime/batch.hpp"
#include "service/server.hpp"

namespace camo::service {
namespace {

litho::LithoConfig test_litho_config() {
    litho::LithoConfig cfg;
    cfg.grid = 256;
    cfg.pixel_nm = 4.0;
    cfg.kernels_nominal = 6;
    cfg.kernels_defocus = 5;
    cfg.cache_dir = "";
    return cfg;
}

std::vector<geo::SegmentedLayout> test_clips(int count, std::uint64_t seed = 7) {
    layout::ViaGenOptions gen;
    gen.clip_nm = 1000;
    gen.margin_nm = 200;
    gen.min_spacing_nm = 120;
    return core::fragment_via_clips(layout::via_batch_set(seed, count, gen));
}

ServerOptions server_options(int capacity, int threads = 2) {
    ServerOptions opt;
    opt.queue_capacity = capacity;
    opt.batch.threads = threads;
    opt.batch.seed = 7;
    opt.batch.opc.max_iterations = 3;
    opt.batch.opc.initial_bias_nm = 3;
    return opt;
}

ServeRequest make_request(const std::string& name, int priority,
                          std::vector<geo::SegmentedLayout> clips) {
    ServeRequest req;
    req.name = name;
    req.priority = priority;
    req.clips = std::move(clips);
    return req;
}

TEST(OpcServer, CapacityBelowOneRejectedAtConstruction) {
    EXPECT_THROW(OpcServer(test_litho_config(), server_options(0)), std::invalid_argument);
    EXPECT_THROW(OpcServer(test_litho_config(), server_options(-2)), std::invalid_argument);
}

TEST(OpcServer, AdmissionControlRejectsWithReason) {
    OpcServer server(test_litho_config(), server_options(2));
    const auto clips = test_clips(1);

    // Empty request: rejected regardless of queue room.
    EXPECT_FALSE(server.submit(make_request("empty", 0, {})));
    EXPECT_EQ(server.pending(), 0);

    EXPECT_TRUE(server.submit(make_request("a", 0, clips)));
    EXPECT_TRUE(server.submit(make_request("b", 0, clips)));
    EXPECT_EQ(server.pending(), 2);

    // Queue full: reject, don't buffer.
    EXPECT_FALSE(server.submit(make_request("c", 5, clips)));
    EXPECT_EQ(server.pending(), 2);

    const std::vector<RequestOutcome> outcomes = server.drain(runtime::engine_optimizer("rule"));
    ASSERT_EQ(outcomes.size(), 4U);  // arrival order, rejected included
    EXPECT_EQ(outcomes[0].name, "empty");
    EXPECT_FALSE(outcomes[0].accepted);
    EXPECT_NE(outcomes[0].reject_reason.find("empty request"), std::string::npos)
        << outcomes[0].reject_reason;
    EXPECT_EQ(outcomes[0].served_order, -1);
    EXPECT_TRUE(outcomes[1].accepted);
    EXPECT_TRUE(outcomes[2].accepted);
    EXPECT_FALSE(outcomes[3].accepted);
    EXPECT_NE(outcomes[3].reject_reason.find("queue full"), std::string::npos)
        << outcomes[3].reject_reason;
    EXPECT_TRUE(outcomes[3].results.empty());
}

TEST(OpcServer, DrainServesPriorityDescFifoWithinLevel) {
    OpcServer server(test_litho_config(), server_options(8));
    const auto clips = test_clips(1);
    ASSERT_TRUE(server.submit(make_request("low-1", 0, clips)));
    ASSERT_TRUE(server.submit(make_request("high-1", 2, clips)));
    ASSERT_TRUE(server.submit(make_request("mid-1", 1, clips)));
    ASSERT_TRUE(server.submit(make_request("high-2", 2, clips)));
    ASSERT_TRUE(server.submit(make_request("low-2", 0, clips)));

    const std::vector<RequestOutcome> outcomes = server.drain(runtime::engine_optimizer("rule"));
    ASSERT_EQ(outcomes.size(), 5U);
    // Outcomes are in arrival order; served_order reveals the schedule.
    EXPECT_EQ(outcomes[1].name, "high-1");
    EXPECT_EQ(outcomes[1].served_order, 0);
    EXPECT_EQ(outcomes[3].name, "high-2");
    EXPECT_EQ(outcomes[3].served_order, 1);  // FIFO within priority 2
    EXPECT_EQ(outcomes[2].name, "mid-1");
    EXPECT_EQ(outcomes[2].served_order, 2);
    EXPECT_EQ(outcomes[0].name, "low-1");
    EXPECT_EQ(outcomes[0].served_order, 3);
    EXPECT_EQ(outcomes[4].name, "low-2");
    EXPECT_EQ(outcomes[4].served_order, 4);
    EXPECT_EQ(server.pending(), 0);
}

TEST(OpcServer, ServedClipsMatchDirectSchedulerRunBitwise) {
    // Per-clip results must depend only on (layout, seed policy, clip
    // index) — not on queue order, priorities, or what else is in flight.
    const auto clips = test_clips(3);
    const ServerOptions opt = server_options(4);

    runtime::BatchScheduler direct(test_litho_config(), opt.batch);
    const runtime::BatchResult want = direct.run(clips, runtime::engine_optimizer("rule"));
    ASSERT_EQ(want.failed, 0);

    OpcServer server(test_litho_config(), opt);
    ASSERT_TRUE(server.submit(make_request("decoy", 9, test_clips(2, 99))));
    ASSERT_TRUE(server.submit(make_request("probe", 0, clips)));
    const std::vector<RequestOutcome> outcomes = server.drain(runtime::engine_optimizer("rule"));
    ASSERT_EQ(outcomes.size(), 2U);
    const RequestOutcome& probe = outcomes[1];
    EXPECT_EQ(probe.name, "probe");
    ASSERT_EQ(probe.results.size(), clips.size());
    EXPECT_EQ(probe.failed, 0);
    for (std::size_t i = 0; i < clips.size(); ++i) {
        EXPECT_EQ(probe.results[i].offsets, want.clips[i].offsets) << "clip " << i;
        EXPECT_EQ(probe.results[i].final_epe, want.clips[i].final_epe) << "clip " << i;
    }
}

TEST(OpcServer, FailedClipIsContainedToItsRequest) {
    const ServerOptions opt = server_options(4);
    const std::uint64_t poison = derive_seed(opt.batch.seed, 1);

    // Per-request determinism means job seeds restart at clip 0 for every
    // request — so the poison (keyed on the clip-1 seed) can only be hit by
    // a request with a clip at index 1. The clean request has one clip.
    OpcServer server(test_litho_config(), opt);
    ASSERT_TRUE(server.submit(make_request("poisoned", 1, test_clips(3))));
    ASSERT_TRUE(server.submit(make_request("clean", 0, test_clips(1, 99))));

    const std::vector<RequestOutcome> outcomes = server.drain(
        [poison, rule = runtime::engine_optimizer("rule")](
            const geo::SegmentedLayout& layout, litho::LithoSim& sim, const opc::OpcOptions& o,
            std::uint64_t job_seed) {
            if (job_seed == poison) throw std::runtime_error("injected failure");
            return rule(layout, sim, o, job_seed);
        });
    ASSERT_EQ(outcomes.size(), 2U);
    EXPECT_EQ(outcomes[0].name, "poisoned");
    EXPECT_EQ(outcomes[0].failed, 1);
    ASSERT_EQ(outcomes[0].results.size(), 3U);
    EXPECT_EQ(outcomes[0].results[1].error, "injected failure");
    EXPECT_TRUE(outcomes[0].results[0].error.empty());
    EXPECT_EQ(outcomes[1].failed, 0);
    ASSERT_EQ(outcomes[1].results.size(), 1U);
    EXPECT_TRUE(outcomes[1].results[0].error.empty());
}

TEST(OpcServer, DeadlineMissFlaggedButResultStillComputed) {
    OpcServer server(test_litho_config(), server_options(2));
    ServeRequest req = make_request("tight", 0, test_clips(2));
    req.deadline_s = 1e-9;  // guaranteed miss: any real OPC takes longer
    ASSERT_TRUE(server.submit(std::move(req)));
    ServeRequest loose = make_request("loose", 0, test_clips(1));
    loose.deadline_s = 3600.0;
    ASSERT_TRUE(server.submit(std::move(loose)));

    const std::vector<RequestOutcome> outcomes = server.drain(runtime::engine_optimizer("rule"));
    ASSERT_EQ(outcomes.size(), 2U);
    EXPECT_TRUE(outcomes[0].deadline_missed);
    EXPECT_EQ(outcomes[0].results.size(), 2U);  // soft deadline: still served
    EXPECT_EQ(outcomes[0].failed, 0);
    EXPECT_FALSE(outcomes[1].deadline_missed);
    EXPECT_GT(outcomes[0].latency_s, 0.0);
    EXPECT_GE(outcomes[0].latency_s, outcomes[0].service_s);
}

TEST(OpcServer, RepeatedSubmitDrainCyclesOnWarmCore) {
    OpcServer server(test_litho_config(), server_options(2));
    const auto clips = test_clips(2);

    std::vector<int> first_offsets;
    for (int cycle = 0; cycle < 3; ++cycle) {
        ASSERT_TRUE(server.submit(make_request("r" + std::to_string(cycle), 0, clips)));
        const std::vector<RequestOutcome> outcomes =
            server.drain(runtime::engine_optimizer("rule"));
        ASSERT_EQ(outcomes.size(), 1U);
        ASSERT_EQ(outcomes[0].results.size(), 2U);
        EXPECT_EQ(outcomes[0].failed, 0);
        if (cycle == 0) {
            first_offsets = outcomes[0].results[0].offsets;
        } else {
            // Warm caches must not leak state between cycles.
            EXPECT_EQ(outcomes[0].results[0].offsets, first_offsets) << "cycle " << cycle;
        }
        EXPECT_EQ(server.pending(), 0);
    }
}

}  // namespace
}  // namespace camo::service
