/**
 * @file
 * End-to-end flag validation for the diva_serve and diva_sweep CLIs:
 * bad flag values must fail with a non-zero exit code, and a minimal
 * good invocation must succeed. ctest runs with the build directory as
 * the working directory, so the tool binaries sit at ./diva_serve and
 * ./diva_sweep; the suite skips (rather than fails) when the tools
 * were not built.
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
    const std::string path = "serve_cli.err";
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

class ServeCli : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        if (!exists("./diva_serve") || !exists("./diva_sweep"))
            GTEST_SKIP() << "tool binaries not built";
    }
};

TEST_F(ServeCli, GoodInvocationSucceeds)
{
    EXPECT_EQ(runQuiet("./diva_serve --policy rr --tenants 2 --steps 4 "
                       "--quiet"),
              0);
}

TEST_F(ServeCli, StepsDefaultAppliesToTenantSpecsInAnyFlagOrder)
{
    // --steps fills in every --tenant spec that did not set its own
    // step count, wherever it appears on the command line.
    const std::string csv = "serve_cli_steps.csv";
    for (const char *order :
         {"--tenant SqueezeNet --steps 4", "--steps 4 --tenant SqueezeNet"}) {
        ASSERT_EQ(runQuiet(std::string("./diva_serve ") + order +
                           " --quiet --no-summary --csv " + csv),
                  0);
        std::ifstream in(csv);
        std::string header, row;
        ASSERT_TRUE(std::getline(in, header));
        ASSERT_TRUE(std::getline(in, row));
        EXPECT_NE(row.find(",4,4,1,"), std::string::npos)
            << order << ": steps,steps_done,completed -> " << row;
    }
    std::remove(csv.c_str());
}

TEST_F(ServeCli, BadServeFlagsFail)
{
    // Unknown policy name.
    EXPECT_NE(runQuiet("./diva_serve --policy bogus"), 0);
    // Zero/negative tenant counts.
    EXPECT_NE(runQuiet("./diva_serve --tenants 0"), 0);
    EXPECT_NE(runQuiet("./diva_serve --tenants -3"), 0);
    // Negative/zero budgets and quanta.
    EXPECT_NE(runQuiet("./diva_serve --wall-s -1"), 0);
    EXPECT_NE(runQuiet("./diva_serve --wall-s 0"), 0);
    EXPECT_NE(runQuiet("./diva_serve --quantum 0"), 0);
    EXPECT_NE(runQuiet("./diva_serve --steps -5"), 0);
    // Unbounded steps need a wall budget.
    EXPECT_NE(runQuiet("./diva_serve --steps 0"), 0);
    // Malformed tenant specs.
    EXPECT_NE(runQuiet("./diva_serve --tenant ResNet-50:0"), 0);
    EXPECT_NE(runQuiet("./diva_serve --tenant ResNet-50:8:-2"), 0);
    // Non-finite QoS rates and negative arrivals/departures reject.
    EXPECT_NE(runQuiet("./diva_serve --tenant ResNet-50:8:inf"), 0);
    EXPECT_NE(runQuiet("./diva_serve --tenant ResNet-50:8:nan"), 0);
    EXPECT_NE(runQuiet("./diva_serve --tenant ResNet-50:8:1:-3"), 0);
    // Departure before arrival: parses (both >= 0) but the serve
    // validation rejects it with a non-zero exit.
    EXPECT_NE(
        runQuiet("./diva_serve --tenant SqueezeNet:8:0:5:0:4:2 --quiet"),
        0);
    EXPECT_NE(runQuiet("./diva_serve --tenant SqueezeNet:8:0:0:0:4:-1"),
              0);
    // Unknown model in a tenant spec is a (runtime) serve error.
    EXPECT_NE(runQuiet("./diva_serve --tenant NoSuchNet --quiet"), 0);
    // Unknown flags and missing values.
    EXPECT_NE(runQuiet("./diva_serve --no-such-flag"), 0);
    EXPECT_NE(runQuiet("./diva_serve --policy"), 0);
}

TEST_F(ServeCli, DepartureEndsSessionEarly)
{
    // A tenant departing at t=0.001 with a huge step budget must stop
    // at its departure: the run succeeds and the departed column (20)
    // flips to 1 with the budget unmet.
    const std::string csv = "serve_cli_depart.csv";
    ASSERT_EQ(runQuiet("./diva_serve --tenant SqueezeNet:8:0:0:0:"
                       "100000:0.001 --quiet --no-summary --csv " +
                       csv),
              0);
    std::ifstream in(csv);
    std::string header, row;
    ASSERT_TRUE(std::getline(in, header));
    ASSERT_TRUE(std::getline(in, row));
    EXPECT_NE(header.find(",departed,"), std::string::npos);
    EXPECT_NE(row.find(",0,1,1,"), std::string::npos)
        << "completed,departed,admitted -> " << row;
    std::remove(csv.c_str());
}

TEST_F(ServeCli, TraceFlagsValidate)
{
    // Well-formed generated replay succeeds, with and without
    // admission.
    EXPECT_EQ(runQuiet("./diva_serve --arrivals poisson:rate=4,seed=3,"
                       "hold=1,qos=2 --steps 0 --policy edf --quiet"),
              0);
    EXPECT_EQ(runQuiet("./diva_serve --arrivals poisson:rate=4,seed=3,"
                       "hold=1,qos=2 --steps 0 --admission --quiet"),
              0);
    // Malformed generator specs and flag combinations fail fast.
    EXPECT_NE(runQuiet("./diva_serve --arrivals zipf:rate=2"), 0);
    EXPECT_NE(runQuiet("./diva_serve --arrivals poisson:rate=0"), 0);
    EXPECT_NE(runQuiet("./diva_serve --arrivals poisson:bogus=1"), 0);
    EXPECT_NE(runQuiet("./diva_serve --arrivals poisson --trace x.csv"),
              0);
    EXPECT_NE(runQuiet("./diva_serve --arrivals poisson "
                       "--tenant SqueezeNet"),
              0);
    EXPECT_NE(runQuiet("./diva_serve --trace /no/such/file.csv"), 0);
    EXPECT_NE(runQuiet("./diva_serve --admission-cap 0"), 0);
    EXPECT_NE(runQuiet("./diva_serve --save-trace t.csv"), 0)
        << "--save-trace needs a trace";

    // A recorded trace with departure-before-arrival fails at replay.
    const std::string path = "serve_cli_bad_trace.csv";
    {
        std::ofstream out(path);
        out << "model,arrival_s,depart_s,steps\n"
            << "SqueezeNet,5,2,4\n";
    }
    EXPECT_NE(runQuiet("./diva_serve --trace " + path + " --quiet"), 0);
    std::remove(path.c_str());
}

TEST_F(ServeCli, UnwritableOutputPathsFailBeforeTheRun)
{
    // Every path the tools write is probed before the simulation: a
    // bad one exits non-zero with nothing on stdout (no CSV, no
    // summary) instead of failing after the whole run.
    const std::string out = "serve_cli_probe_stdout.txt";
    const std::string serve = "./diva_serve --tenants 2 --steps 4 --quiet";
    const std::string replay =
        "./diva_serve --arrivals poisson:rate=4,seed=3,hold=1,qos=2 "
        "--steps 0 --quiet";
    const std::string sweep =
        "./diva_sweep --quiet --models SqueezeNet --batches 8";
    for (const std::string &cmd :
         {serve + " --csv /no/such/dir/x.csv",
          serve + " --json /no/such/dir/x.json",
          replay + " --save-trace /no/such/dir/t.csv",
          sweep + " --json /no/such/dir/x.json"}) {
        EXPECT_NE(runToFile(cmd, out), 0) << cmd;
        EXPECT_EQ(fileSize(out), 0) << cmd << ": wrote to stdout";
    }
    std::remove(out.c_str());
}

TEST_F(ServeCli, SweepTraceModeValidates)
{
    EXPECT_NE(runQuiet("./diva_sweep --mode trace"), 0)
        << "trace mode needs --arrivals or --trace";
    EXPECT_NE(runQuiet("./diva_sweep --mode trace --arrivals zipf"), 0);
    EXPECT_NE(runQuiet("./diva_sweep --mode trace --arrivals poisson "
                       "--loads 0"),
              0);
    EXPECT_NE(runQuiet("./diva_sweep --mode trace --trace x.csv "
                       "--loads 2"),
              0)
        << "--loads only scales the generator";
    EXPECT_EQ(runQuiet("./diva_sweep --quiet --mode trace --arrivals "
                       "poisson:rate=4,seed=3,hold=1,qos=2,steps=0 "
                       "--dataflows DiVa --ppu on --policies fifo,edf"),
              0);
}

TEST_F(ServeCli, BadSweepFlagsFail)
{
    EXPECT_NE(runQuiet("./diva_sweep --mode bogus"), 0);
    EXPECT_NE(runQuiet("./diva_sweep --mode duration"), 0)
        << "duration mode requires --wall-s";
    EXPECT_NE(runQuiet("./diva_sweep --mode tenant --policies bogus"), 0);
    EXPECT_NE(runQuiet("./diva_sweep --wall-s -2"), 0);
    EXPECT_NE(runQuiet("./diva_sweep --quantum 0"), 0);
    EXPECT_NE(runQuiet("./diva_sweep --steps 0"), 0);
    EXPECT_NE(runQuiet("./diva_sweep --arrive-every -1"), 0);
    EXPECT_NE(runQuiet("./diva_sweep --models NoSuchNet"), 0);
}

TEST_F(ServeCli, CaughtScenarioFailuresStayOffStderrUnderQuiet)
{
    // At 1e-12 GB/s the 4-chip all-reduce overflows 64-bit cycles, so
    // every scenario fails. The failures belong to the CSV/JSON
    // `error` column and the exit code, not to stderr.
    const std::string err = "serve_cli_quiet_failures.err";
    const int status = std::system(
        ("./diva_sweep --quiet --models ResNet-50 --dataflows DiVa "
         "--chips 4 --ici-gbs 1e-12 >/dev/null 2>" + err)
            .c_str());
    ASSERT_NE(status, -1);
#ifdef WEXITSTATUS
    EXPECT_EQ(WEXITSTATUS(status), 2);
#endif
    EXPECT_EQ(fileSize(err), 0) << "stderr must stay empty";
    std::remove(err.c_str());
}

TEST_F(ServeCli, SweepSummaryCountsTheBaselinePass)
{
    // The default sweep runs its WS baseline pass and then the main
    // pass on one runner, and the summary counts both. Cold, the
    // baseline misses its 12 scenarios and builds every plan; the main
    // pass takes those 12 from the cache and misses the other 48.
    const std::string out = "serve_cli_sweep_summary.txt";
    ASSERT_EQ(runToFile("./diva_sweep --quiet", out), 0);
    std::ifstream in(out);
    std::ostringstream text;
    text << in.rdbuf();
    std::remove(out.c_str());
    const std::string summary = text.str();
    EXPECT_NE(summary.find("\ncache: 12 hits, 60 misses\n"),
              std::string::npos)
        << summary;
    const std::size_t at = summary.find("\nplan cache: ");
    ASSERT_NE(at, std::string::npos) << summary;
    unsigned long hits = 0, misses = 0;
    ASSERT_EQ(std::sscanf(summary.c_str() + at,
                          "\nplan cache: %lu hits, %lu misses", &hits,
                          &misses),
              2);
    EXPECT_GT(misses, 0u);
    EXPECT_GT(hits, 0u);
}

TEST_F(ServeCli, UnknownBackendNamesFailWithTheChoices)
{
    for (const std::string tool : {"diva_sweep", "diva_serve"}) {
        std::string err;
        EXPECT_EQ(runStderr("./" + tool + " --backends warp-drive", &err),
                  1)
            << tool;
        EXPECT_EQ(err, tool + ": unknown backend 'warp-drive' (want "
                              "chip, pod, or gpu)\n");
    }
}

} // namespace
