// CLI argument-hardening suite (PR 9).
//
// Drives the real camo_cli binary (path injected by CMake as CAMO_CLI_PATH)
// through malformed and boundary flag values on every subcommand. Contract:
// a bad invocation always exits 2 after printing usage — it never crashes,
// never terminates on an uncaught std::sto* exception (the pre-PR failure
// mode), and never silently truncates an out-of-range value. Well-formed
// fast-path invocations still exit 0.
//
// Each bad-argument case only has to reach argument parsing, so that matrix
// runs in well under a second — no training, litho or GDS work is
// triggered. The happy-path cases run each engine-table mode once on a
// one-cell chip with one iteration where the mode allows it. Every
// subcommand parses through one flag table (common/parse.hpp), exercised
// directly by the FlagTable cases at the end.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/parse.hpp"

namespace {

/// Exit status of `camo_cli <args>` with stdout/stderr discarded.
/// Fails the test outright if the process died on a signal.
int run_cli(const std::string& args) {
    const std::string cmd = std::string(CAMO_CLI_PATH) + " " + args + " >/dev/null 2>&1";
    const int rc = std::system(cmd.c_str());
    EXPECT_NE(rc, -1) << cmd;
    EXPECT_TRUE(WIFEXITED(rc)) << "crashed (signal " << WTERMSIG(rc) << "): " << cmd;
    return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

void expect_usage_exit(const std::string& args) {
    EXPECT_EQ(run_cli(args), 2) << "camo_cli " << args;
}

TEST(CliRobustness, TopLevel) {
    expect_usage_exit("");
    expect_usage_exit("frobnicate");
    expect_usage_exit("--in");  // missing value and missing --out
    EXPECT_EQ(run_cli("--help"), 0);
    EXPECT_EQ(run_cli("--list-scenarios"), 0);
}

TEST(CliRobustness, SingleClipFlags) {
    const std::string base = "--in a.gds --out b.gds ";
    expect_usage_exit(base + "--layer abc");
    expect_usage_exit(base + "--layer 2x");      // trailing garbage
    expect_usage_exit(base + "--layer -1");
    expect_usage_exit(base + "--clip 0");
    expect_usage_exit(base + "--clip 99999999999999999999");  // overflow
    expect_usage_exit(base + "--iterations 0");
    expect_usage_exit(base + "--iterations -3");
    expect_usage_exit(base + "--reward-mode bogus");
    expect_usage_exit(base + "--train-workers 1.5");
    expect_usage_exit(base + "--style bogus");
    expect_usage_exit(base + "--engine bogus");
    expect_usage_exit(base + "--log-level bogus");
    expect_usage_exit(base + "--layer");  // missing trailing value
    expect_usage_exit("--out b.gds");     // --in is required
}

TEST(CliRobustness, BatchFlags) {
    expect_usage_exit("batch --clips foo");
    expect_usage_exit("batch --clips 0");
    expect_usage_exit("batch --clips -4");
    expect_usage_exit("batch --clips 1e3");  // scientific notation is not an int
    expect_usage_exit("batch --threads 0");
    expect_usage_exit("batch --threads two");
    expect_usage_exit("batch --seed -1");
    expect_usage_exit("batch --seed 0x10");
    expect_usage_exit("batch --seed 99999999999999999999999");  // u64 overflow
    expect_usage_exit("batch --iterations 0");
    expect_usage_exit("batch --engine bogus");
    expect_usage_exit("batch --batched --engine rule");  // --batched is no longer a flag
    expect_usage_exit("batch --doses 1.0");              // sweep-only flag
    expect_usage_exit("batch --no-such-flag");
    expect_usage_exit("batch --log-level bogus");
    expect_usage_exit("batch --clips");  // missing trailing value
}

TEST(CliRobustness, SweepLists) {
    expect_usage_exit("sweep --doses 1.0,abc");
    expect_usage_exit("sweep --doses 1.0,");    // empty trailing item
    expect_usage_exit("sweep --doses ,1.0");    // empty leading item
    expect_usage_exit("sweep --doses 1.0,,2");  // empty middle item
    expect_usage_exit("sweep --doses 1.0x,2");  // trailing garbage in item
    expect_usage_exit("sweep --doses ''");
    expect_usage_exit("sweep --focuses 0,nan");
    expect_usage_exit("sweep --focuses 12.5junk");
    expect_usage_exit("sweep --log-level bogus");
    expect_usage_exit("sweep --doses");  // missing trailing value
}

TEST(CliRobustness, CompareFlags) {
    expect_usage_exit("compare --clips abc");
    expect_usage_exit("compare --clips 0");
    expect_usage_exit("compare --threads 0");
    expect_usage_exit("compare --iterations -2");
    expect_usage_exit("compare --ilt-iterations 0");
    expect_usage_exit("compare --train-clips 0");
    expect_usage_exit("compare --seed abc");
    expect_usage_exit("compare --slack -0.5");
    expect_usage_exit("compare --slack nan");
    expect_usage_exit("compare --rewards nominal,bogus");
    expect_usage_exit("compare --no-such-flag");
    expect_usage_exit("compare --log-level bogus");
    expect_usage_exit("compare --golden");  // missing trailing value
    EXPECT_EQ(run_cli("compare --list-scenarios"), 0);
}

TEST(CliRobustness, ChipgenFlags) {
    expect_usage_exit("chipgen");  // --out is required
    expect_usage_exit("chipgen --out c.gds --cols 0");
    expect_usage_exit("chipgen --out c.gds --cols 1e9");
    expect_usage_exit("chipgen --out c.gds --rows -2");
    expect_usage_exit("chipgen --out c.gds --rows 12abc");
    expect_usage_exit("chipgen --out c.gds --pitch -5");
    expect_usage_exit("chipgen --out c.gds --no-such-flag");
    expect_usage_exit("chipgen --out c.gds --log-level bogus");  // no telemetry flags
    expect_usage_exit("chipgen --out c.gds --cols");             // missing trailing value
    expect_usage_exit("chipgen --out");
}

TEST(CliRobustness, ShardFlags) {
    expect_usage_exit("shard --layer -1");
    expect_usage_exit("shard --cols 0");
    expect_usage_exit("shard --rows 0");
    expect_usage_exit("shard --pitch -1");
    expect_usage_exit("shard --tile 0");
    expect_usage_exit("shard --tile abc");
    expect_usage_exit("shard --halo -1");
    expect_usage_exit("shard --threads 0");
    expect_usage_exit("shard --queue-capacity 0");
    expect_usage_exit("shard --seed 18446744073709551616");  // 2^64
    expect_usage_exit("shard --iterations 0");
    expect_usage_exit("shard --engine oneshot");
    expect_usage_exit("shard --no-such-flag");
    expect_usage_exit("shard --log-level bogus");
    expect_usage_exit("shard --tile");  // missing trailing value
}

TEST(CliRobustness, ServeFlags) {
    expect_usage_exit("serve --requests -1");
    expect_usage_exit("serve --requests abc");
    expect_usage_exit("serve --clips 0");
    expect_usage_exit("serve --queue-capacity 0");
    expect_usage_exit("serve --priority-levels 0");
    expect_usage_exit("serve --deadline-s -1");
    expect_usage_exit("serve --deadline-s inf");
    expect_usage_exit("serve --threads 0");
    expect_usage_exit("serve --stream-queue 0");
    expect_usage_exit("serve --seed --quiet");  // flag where a value belongs
    expect_usage_exit("serve --iterations 0");
    expect_usage_exit("serve --engine ilt");
    expect_usage_exit("serve --no-such-flag");
    expect_usage_exit("serve --log-level bogus");
    expect_usage_exit("serve --deadline-s");  // missing trailing value
}

TEST(CliRobustness, CollectFlags) {
    expect_usage_exit("collect");  // --out is required
    expect_usage_exit("collect --out s.ctrj --style bogus");
    expect_usage_exit("collect --out s.ctrj --clips 0");
    expect_usage_exit("collect --out s.ctrj --clips abc");
    expect_usage_exit("collect --out s.ctrj --train-workers 1.5");
    expect_usage_exit("collect --out s.ctrj --seed -1");
    expect_usage_exit("collect --out s.ctrj --no-such-flag");
    expect_usage_exit("collect --out s.ctrj --from-store x");  // train-only flag
    expect_usage_exit("collect --out s.ctrj --log-level bogus");
    expect_usage_exit("collect --out s.ctrj --clips");  // missing trailing value
}

TEST(CliRobustness, TrainFlags) {
    expect_usage_exit("train");  // --from-store and --weights are required
    expect_usage_exit("train --from-store s.ctrj");
    expect_usage_exit("train --weights w.bin");
    const std::string base = "train --from-store s.ctrj --weights w.bin ";
    expect_usage_exit(base + "--style bogus");
    expect_usage_exit(base + "--epochs 0");
    expect_usage_exit(base + "--epochs five");
    expect_usage_exit(base + "--clips -1");
    expect_usage_exit(base + "--train-workers abc");
    expect_usage_exit(base + "--seed 99999999999999999999999");
    expect_usage_exit(base + "--no-such-flag");
    expect_usage_exit(base + "--out x.ctrj");  // collect-only flag
    expect_usage_exit(base + "--log-level bogus");
    expect_usage_exit(base + "--epochs");  // missing trailing value
}

/// Exit status of `pretrain <args>` (CAMO_PRETRAIN_PATH) with output discarded.
int run_pretrain(const std::string& args) {
    const std::string cmd = std::string(CAMO_PRETRAIN_PATH) + " " + args + " >/dev/null 2>&1";
    const int rc = std::system(cmd.c_str());
    EXPECT_NE(rc, -1) << cmd;
    EXPECT_TRUE(WIFEXITED(rc)) << "crashed (signal " << WTERMSIG(rc) << "): " << cmd;
    return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

TEST(CliRobustness, PretrainFlags) {
    // atoi regression: garbage used to silently become 0 (= all hardware
    // threads); now every malformed value is a diagnostic + exit 2.
    EXPECT_EQ(run_pretrain("--train-workers abc"), 2);
    EXPECT_EQ(run_pretrain("--train-workers 1.5"), 2);
    EXPECT_EQ(run_pretrain("--train-workers 2x"), 2);
    EXPECT_EQ(run_pretrain("--train-workers 99999999999999999999"), 2);
    EXPECT_EQ(run_pretrain("--train-workers"), 2);  // missing value
    EXPECT_EQ(run_pretrain("--log-level bogus"), 2);
    EXPECT_EQ(run_pretrain("--no-such-flag"), 2);
}

TEST(CliRobustness, ChipgenHappyPathStillWorks) {
    const std::string out = testing::TempDir() + "cli_robustness_chip.gds";
    EXPECT_EQ(run_cli("chipgen --out " + out + " --cols 1 --rows 1"), 0);
    std::remove(out.c_str());
}

TEST(CliRobustness, EngineModesRunOnAOneCellChip) {
    const std::string chip = testing::TempDir() + "cli_robustness_cell.gds";
    const std::string out = testing::TempDir() + "cli_robustness_mask.gds";
    ASSERT_EQ(run_cli("chipgen --out " + chip + " --cols 1 --rows 1"), 0);
    const std::string single = "--in " + chip + " --out " + out + " --quiet ";
    EXPECT_EQ(run_cli(single + "--engine rule"), 0);
    EXPECT_EQ(run_cli(single + "--engine oneshot --iterations 1"), 0);
    EXPECT_EQ(run_cli("shard --in " + chip + " --engine rule --iterations 1 --threads 2 --quiet"),
              0);
    EXPECT_EQ(run_cli("serve --requests 1 --clips 1 --iterations 1 --threads 2 --quiet"), 0);
    std::remove(chip.c_str());
    std::remove(out.c_str());
}

/// Combined stdout + stderr of `camo_cli <args>`.
std::string cli_output(const std::string& args) {
    const std::string cmd = std::string(CAMO_CLI_PATH) + " " + args + " 2>&1";
    std::string out;
    FILE* pipe = popen(cmd.c_str(), "r");
    if (pipe == nullptr) return out;
    char buf[256];
    while (std::fgets(buf, sizeof buf, pipe) != nullptr) out += buf;
    pclose(pipe);
    return out;
}

TEST(CliRobustness, UsageLineListsTheSubcommandTable) {
    const std::string out = cli_output("train --no-such-flag");
    EXPECT_NE(out.find("unknown argument: --no-such-flag"), std::string::npos) << out;
    EXPECT_NE(out.find("usage: camo_cli train --from-store store.ctrj --weights out.bin"),
              std::string::npos)
        << out;
    for (const char* item : {"[--epochs N]", "[--in-memory]", "[--style via|metal]",
                             "[--log-level quiet|info|debug]", "[--trace PATH]"}) {
        EXPECT_NE(out.find(item), std::string::npos) << item << "\n" << out;
    }
    EXPECT_EQ(out.find("--batched"), std::string::npos);
    EXPECT_EQ(cli_output("batch --batched").find("[--batched]"), std::string::npos);
}

// ---- the flag table itself ---------------------------------------------------

/// parse_flags over a literal argv (argv[0] is the program name).
bool parse(const std::vector<camo::Flag>& flags, std::vector<std::string> args) {
    args.insert(args.begin(), "prog");
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    return camo::parse_flags(flags, static_cast<int>(argv.size()), argv.data(), 1);
}

TEST(FlagTable, ParsesEveryKindAndLastOccurrenceWins) {
    std::string path;
    int n = 0;
    std::uint64_t seed = 0;
    double slack = 0.0;
    std::vector<double> list;
    bool on = false;
    std::string engine = "rule";
    const std::vector<camo::Flag> flags = {
        camo::string_flag("--path", path),
        camo::int_flag("--n", n, 1),
        camo::u64_flag("--seed", seed),
        camo::double_flag("--slack", slack, 0.0),
        camo::double_list_flag("--list", list),
        camo::switch_flag("--on", on),
        camo::choice_flag("--engine", engine, {"rule", "camo"}),
    };
    ASSERT_TRUE(parse(flags, {"--path", "a", "--n", "3", "--seed", "7", "--slack", "0.5",
                              "--list", "1,2.5", "--on", "--engine", "camo", "--n", "4"}));
    EXPECT_EQ(path, "a");
    EXPECT_EQ(n, 4);
    EXPECT_EQ(seed, 7U);
    EXPECT_EQ(slack, 0.5);
    EXPECT_EQ(list, (std::vector<double>{1.0, 2.5}));
    EXPECT_TRUE(on);
    EXPECT_EQ(engine, "camo");

    EXPECT_FALSE(parse(flags, {"--n", "0"}));         // below min
    EXPECT_FALSE(parse(flags, {"--engine", "ilt"}));  // not a choice
    EXPECT_FALSE(parse(flags, {"--on", "extra"}));    // switches take no value
    EXPECT_FALSE(parse(flags, {"--path"}));           // missing value
    EXPECT_EQ(n, 4);  // rejected values leave the destination untouched
}

TEST(FlagTable, RequiredFlagsAndUsageLine) {
    std::string out;
    int n = 2;
    bool quiet = false;
    const std::vector<camo::Flag> flags = {
        camo::required(camo::string_flag("--out", out, "result.gds")),
        camo::int_flag("--n", n, 1),
        camo::switch_flag("--quiet", quiet),
    };
    EXPECT_FALSE(parse(flags, {"--n", "3"}));
    EXPECT_TRUE(parse(flags, {"--out", "x.gds"}));
    EXPECT_EQ(camo::flag_usage("prog sub", flags),
              "usage: prog sub --out result.gds [--n N] [--quiet]\n");

    // Long tables wrap at 80 columns onto indented continuation lines.
    std::vector<camo::Flag> many;
    for (int i = 0; i < 12; ++i) many.push_back(camo::int_flag("--flag" + std::to_string(i), n));
    const std::string usage = camo::flag_usage("prog", many);
    std::size_t start = 0;
    for (std::size_t nl = usage.find('\n'); nl != std::string::npos;
         nl = usage.find('\n', start = nl + 1)) {
        EXPECT_LE(nl - start, 80U) << usage;
    }
    // Continuation lines align under the first flag ("usage: prog " = 12).
    EXPECT_NE(usage.find("\n" + std::string(12, ' ') + "[--flag"), std::string::npos) << usage;
}

}  // namespace
