/**
 * @file
 * End-to-end flag validation for the diva_fleet CLI: empty fleets,
 * zero-chip pods, unknown placement/policy names and malformed knobs
 * must fail with a clear non-zero exit, and good invocations
 * (homogeneous and heterogeneous fleets, rebalance, budgets, output
 * files) must succeed. ctest runs with the build directory as the
 * working directory, so the tool binary sits at ./diva_fleet; the
 * suite skips (rather than fails) when the tool was not built.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace
{

bool
exists(const std::string &path)
{
    return std::ifstream(path).good();
}

/** Run a command with stdout/stderr dropped; -1 if system() failed. */
int
runQuiet(const std::string &cmd)
{
    const int status = std::system((cmd + " >/dev/null 2>&1").c_str());
    if (status == -1)
        return -1;
#ifdef WEXITSTATUS
    return WEXITSTATUS(status);
#else
    return status;
#endif
}

/** Run a command with stdout captured in `path` and stderr dropped;
 *  returns the exit code (-1 if system() failed). */
int
runToFile(const std::string &cmd, const std::string &path)
{
    const int status =
        std::system((cmd + " >" + path + " 2>/dev/null").c_str());
    if (status == -1)
        return -1;
#ifdef WEXITSTATUS
    return WEXITSTATUS(status);
#else
    return status;
#endif
}

/** Run a command with stdout dropped and stderr captured into
 *  `*err`; returns the exit code (-1 if system() failed). */
int
runStderr(const std::string &cmd, std::string *err)
{
    const std::string path = "fleet_cli.err";
    const int status =
        std::system((cmd + " >/dev/null 2>" + path).c_str());
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    *err = text.str();
    std::remove(path.c_str());
    if (status == -1)
        return -1;
#ifdef WEXITSTATUS
    return WEXITSTATUS(status);
#else
    return status;
#endif
}

/** Size of a file in bytes; -1 if it cannot be opened. */
long
fileSize(const std::string &path)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    return in ? long(in.tellg()) : -1;
}

class FleetCli : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        if (!exists("./diva_fleet"))
            GTEST_SKIP() << "tool binary not built";
    }
};

const char kSmallTrace[] =
    "--arrivals poisson:rate=8,horizon=2,seed=3,qos=2,cap=24";

TEST_F(FleetCli, GoodInvocationsSucceed)
{
    EXPECT_EQ(runQuiet(std::string("./diva_fleet --pods 2 --quiet ") +
                       kSmallTrace),
              0);
    // Heterogeneous fleet with rebalance, budget, and output files.
    const std::string csv = "fleet_cli.csv";
    const std::string pod_csv = "fleet_cli_pods.csv";
    const std::string json = "fleet_cli.json";
    EXPECT_EQ(runQuiet(std::string("./diva_fleet --pod df=DiVa,count=2 "
                                   "--pod df=OS --placement energy "
                                   "--policy edf --rebalance-every 0.5 "
                                   "--power-cap-w 500 --working-set 0.5 "
                                   "--quiet --no-summary ") +
                       kSmallTrace + " --csv " + csv + " --pod-csv " +
                       pod_csv + " --json " + json + " --json-tenants"),
              0);
    EXPECT_TRUE(exists(csv));
    EXPECT_TRUE(exists(pod_csv));
    EXPECT_TRUE(exists(json));
    std::remove(csv.c_str());
    std::remove(pod_csv.c_str());
    std::remove(json.c_str());
}

TEST_F(FleetCli, WallBudgetShorterThanTheTraceSucceeds)
{
    // Sessions arriving at or after --wall-s are never placed: the run
    // still succeeds and their rows carry no pod ("-") and stay
    // admitted (the wall cut them off; admission did not reject them).
    const std::string csv = "fleet_cli_wall.csv";
    ASSERT_EQ(runQuiet(std::string("./diva_fleet --pods 2 --quiet ") +
                       kSmallTrace + " --wall-s 1 --csv " + csv),
              0);
    std::ifstream in(csv);
    bool unplaced = false;
    for (std::string row; std::getline(in, row);)
        unplaced = unplaced || row.find(",-,1,") != std::string::npos;
    EXPECT_TRUE(unplaced) << "no session arrived after the wall";
    std::remove(csv.c_str());
}

TEST_F(FleetCli, EmptyFleetsAndZeroChipPodsFail)
{
    EXPECT_NE(runQuiet("./diva_fleet --pods 0"), 0);
    EXPECT_NE(runQuiet("./diva_fleet --pods -4"), 0);
    EXPECT_NE(runQuiet("./diva_fleet --pod chips=0"), 0);
    EXPECT_NE(runQuiet("./diva_fleet --pod count=0"), 0);
    EXPECT_NE(runQuiet("./diva_fleet --pod df=bogus"), 0);
    EXPECT_NE(runQuiet("./diva_fleet --pod df=WS,ppu=on"), 0);
    EXPECT_NE(runQuiet("./diva_fleet --pod nonsense"), 0);
}

TEST_F(FleetCli, UnknownPolicyNamesFail)
{
    EXPECT_NE(runQuiet("./diva_fleet --placement bogus"), 0);
    EXPECT_NE(runQuiet("./diva_fleet --policy bogus"), 0);
    EXPECT_NE(runQuiet("./diva_fleet --backends bogus"), 0);
}

TEST_F(FleetCli, MalformedKnobsFail)
{
    EXPECT_NE(runQuiet("./diva_fleet --admission-cap 0"), 0);
    EXPECT_NE(runQuiet("./diva_fleet --rebalance-every -1"), 0);
    EXPECT_NE(runQuiet("./diva_fleet --skew 0"), 0);
    EXPECT_NE(runQuiet("./diva_fleet --max-migrations 0"), 0);
    EXPECT_NE(runQuiet("./diva_fleet --power-cap-w 0"), 0);
    EXPECT_NE(runQuiet("./diva_fleet --budget-j -5"), 0);
    EXPECT_NE(runQuiet("./diva_fleet --working-set 0"), 0);
    EXPECT_NE(runQuiet("./diva_fleet --working-set 1.5"), 0);
    EXPECT_NE(runQuiet("./diva_fleet --quantum 0"), 0);
    EXPECT_NE(runQuiet("./diva_fleet --wall-s 0"), 0);
    EXPECT_NE(runQuiet("./diva_fleet --threads 0"), 0);
    EXPECT_NE(runQuiet("./diva_fleet --no-such-flag"), 0);
    EXPECT_NE(runQuiet("./diva_fleet --placement"), 0);
}

TEST_F(FleetCli, TraceFlagsValidate)
{
    EXPECT_NE(runQuiet("./diva_fleet --arrivals zipf:rate=2"), 0);
    EXPECT_NE(runQuiet("./diva_fleet --arrivals poisson:rate=0"), 0);
    EXPECT_NE(
        runQuiet("./diva_fleet --arrivals poisson --trace x.csv"), 0);
    EXPECT_NE(runQuiet("./diva_fleet --trace /no/such/file.csv"), 0);

    // A recorded trace with departure-before-arrival fails at replay
    // (exit 2: the run itself reports the error).
    const std::string path = "fleet_cli_bad_trace.csv";
    {
        std::ofstream out(path);
        out << "model,arrival_s,depart_s,steps\n"
            << "SqueezeNet,5,2,4\n";
    }
    EXPECT_NE(runQuiet("./diva_fleet --trace " + path + " --quiet"), 0);
    std::remove(path.c_str());
}

TEST_F(FleetCli, ObservabilityFlagsValidateAtStartup)
{
    // Unwritable output paths must fail fast, before the run.
    const std::string base =
        std::string("./diva_fleet --pods 1 --quiet ") + kSmallTrace;
    EXPECT_NE(runQuiet(base + " --metrics-out /no/such/dir/m.json"),
              0);
    EXPECT_NE(runQuiet(base + " --trace-out /no/such/dir/t.json"), 0);
    EXPECT_NE(
        runQuiet(base + " --timeseries-out /no/such/dir/ts.json"), 0);

    // Malformed telemetry knobs fail at parse time.
    EXPECT_NE(runQuiet(base + " --obs-window-s 0"), 0);
    EXPECT_NE(runQuiet(base + " --obs-window-s -1"), 0);
    EXPECT_NE(runQuiet(base + " --slo-p99-s nonsense"), 0);
    EXPECT_NE(runQuiet(base + " --slo-p99-s 1:0.2,1:0.3"), 0);

    // A good telemetry invocation succeeds and writes the document.
    const std::string ts = "fleet_cli_ts.json";
    EXPECT_EQ(runQuiet(base + " --timeseries-out " + ts +
                       " --obs-window-s 0.25 --slo-p99-s 0.5,1:0.2"),
              0);
    EXPECT_TRUE(exists(ts));
    std::remove(ts.c_str());
}

TEST_F(FleetCli, UnwritableOutputPathsFailBeforeTheRun)
{
    // Every path the tool writes is probed before the replay: a bad
    // one exits non-zero with nothing on stdout (no pod CSV, no
    // summary) instead of failing after the whole run.
    const std::string base =
        std::string("./diva_fleet --pods 1 --quiet ") + kSmallTrace;
    const std::string out = "fleet_cli_probe_stdout.txt";
    for (const char *flag :
         {"--json", "--csv", "--pod-csv", "--save-trace"}) {
        EXPECT_NE(runToFile(base + " " + flag + " /no/such/dir/x", out),
                  0)
            << flag;
        EXPECT_EQ(fileSize(out), 0) << flag << " wrote to stdout";
    }
    std::remove(out.c_str());
}

TEST_F(FleetCli, SavedTraceReplaysIdentically)
{
    // --save-trace writes the canonical CSV; replaying that file must
    // reproduce the generated run's per-pod CSV byte for byte.
    const std::string trace_csv = "fleet_cli_trace.csv";
    const std::string a = "fleet_cli_a.csv";
    const std::string b = "fleet_cli_b.csv";
    ASSERT_EQ(runQuiet(std::string("./diva_fleet --pods 2 --quiet "
                                   "--no-summary ") +
                       kSmallTrace + " --save-trace " + trace_csv +
                       " --pod-csv " + a),
              0);
    ASSERT_EQ(runQuiet("./diva_fleet --pods 2 --quiet --no-summary "
                       "--trace " +
                       trace_csv + " --pod-csv " + b),
              0);
    std::ifstream fa(a), fb(b);
    std::string sa((std::istreambuf_iterator<char>(fa)),
                   std::istreambuf_iterator<char>());
    std::string sb((std::istreambuf_iterator<char>(fb)),
                   std::istreambuf_iterator<char>());
    EXPECT_FALSE(sa.empty());
    EXPECT_EQ(sa, sb);
    std::remove(trace_csv.c_str());
    std::remove(a.c_str());
    std::remove(b.c_str());
}

TEST_F(FleetCli, UnknownBackendNameFailsWithTheChoices)
{
    std::string err;
    EXPECT_EQ(runStderr("./diva_fleet --backends warp-drive", &err), 1);
    EXPECT_EQ(err, "diva_fleet: unknown backend 'warp-drive' (want chip, "
                   "pod, or gpu)\n");
}

} // namespace
