/**
 * @file
 * Tests for the persistent on-disk sweep result cache: round-trip
 * fidelity, corruption tolerance, version handling, exact keys, the
 * never-persist-failures rule, and SweepRunner integration (fresh run
 * = misses, rerun = 100% hits, byte-identical CSV).
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string_view>
#include <vector>

#include "common/rng.h"

#include "sweep/disk_cache.h"
#include "sweep/emit.h"
#include "sweep/runner.h"
#include "sweep/spec.h"

namespace diva
{
namespace
{

/** Unique empty cache directory under the test temp dir. */
std::string
freshCacheDir(const std::string &name)
{
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) / "diva-cache" / name;
    std::filesystem::remove_all(dir);
    return dir.string();
}

ScenarioResult
sampleResult(int salt)
{
    ScenarioResult r;
    r.resolvedBatch = 8 + salt;
    r.cycles = 1000 + Cycles(salt);
    r.computeCycles = 900 + Cycles(salt);
    r.allReduceCycles = 100;
    r.seconds = 0.125 + double(salt) * 1e-3;
    r.utilization = 0.5;
    r.energyJ = 2.5 + double(salt);
    r.dramBytes = 1 << 20;
    r.postProcDramBytes = 1 << 10;
    r.enginePowerW = 23.8;
    r.engineAreaMm2 = 85.0;
    return r;
}

TEST(DiskCache, RoundTripsEveryStoredField)
{
    const std::string dir = freshCacheDir("roundtrip");
    {
        DiskCache cache(dir);
        EXPECT_EQ(cache.size(), 0u);
        EXPECT_EQ(cache.append({{"key-a", sampleResult(1)},
                                {"key-b", sampleResult(2)}}),
                  2u);
    }
    DiskCache reloaded(dir);
    EXPECT_EQ(reloaded.size(), 2u);
    EXPECT_EQ(reloaded.corruptLinesSkipped(), 0u);
    ASSERT_TRUE(reloaded.contains("key-a"));
    const ScenarioResult &got = reloaded.entries().at("key-a");
    const ScenarioResult want = sampleResult(1);
    EXPECT_EQ(got.resolvedBatch, want.resolvedBatch);
    EXPECT_EQ(got.cycles, want.cycles);
    EXPECT_EQ(got.computeCycles, want.computeCycles);
    EXPECT_EQ(got.allReduceCycles, want.allReduceCycles);
    EXPECT_EQ(got.seconds, want.seconds);
    EXPECT_EQ(got.utilization, want.utilization);
    EXPECT_EQ(got.energyJ, want.energyJ);
    EXPECT_EQ(got.dramBytes, want.dramBytes);
    EXPECT_EQ(got.postProcDramBytes, want.postProcDramBytes);
    EXPECT_EQ(got.enginePowerW, want.enginePowerW);
    EXPECT_EQ(got.engineAreaMm2, want.engineAreaMm2);
    EXPECT_TRUE(got.ok());
}

TEST(DiskCache, AppendSkipsDuplicatesAndUnstorableKeys)
{
    const std::string dir = freshCacheDir("dupes");
    DiskCache cache(dir);
    EXPECT_EQ(cache.append({{"key", sampleResult(0)}}), 1u);
    EXPECT_EQ(cache.append({{"key", sampleResult(1)}}), 0u);
    EXPECT_EQ(cache.append({{"bad\tkey", sampleResult(0)}}), 0u);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(DiskCache, NeverPersistsFailedResults)
{
    const std::string dir = freshCacheDir("failures");
    {
        DiskCache cache(dir);
        ScenarioResult failed = sampleResult(0);
        failed.error = "transient boom";
        EXPECT_EQ(cache.append({{"failed-key", failed}}), 0u);
        EXPECT_FALSE(cache.contains("failed-key"));
    }
    DiskCache reloaded(dir);
    EXPECT_EQ(reloaded.size(), 0u);
}

TEST(DiskCache, SkipsCorruptLinesButKeepsValidOnes)
{
    const std::string dir = freshCacheDir("corrupt");
    std::string path;
    {
        DiskCache cache(dir);
        cache.append({{"good-1", sampleResult(1)}});
        path = cache.filePath();
    }
    // Simulate a torn append and an edited record.
    {
        std::ofstream out(path, std::ios::app);
        out << "deadbeefdeadbeef\tgarbage payload\n";
        out << "not even a record\n";
        out << "0123456789abcdef\ttruncated\t1\t2\n";
    }
    DiskCache cache(dir);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_TRUE(cache.contains("good-1"));
    EXPECT_EQ(cache.corruptLinesSkipped(), 3u);
    // The store stays writable after corruption.
    EXPECT_EQ(cache.append({{"good-2", sampleResult(2)}}), 1u);
    DiskCache reloaded(dir);
    EXPECT_EQ(reloaded.size(), 2u);
}

TEST(DiskCache, AppendAfterTornTailStartsAFreshLine)
{
    // A writer that crashed mid-record leaves a tail with no newline;
    // the next append must not glue its first record onto it.
    const std::string dir = freshCacheDir("torn");
    std::string path;
    {
        DiskCache cache(dir);
        cache.append({{"good-1", sampleResult(1)}});
        path = cache.filePath();
    }
    {
        std::ofstream out(path, std::ios::app);
        out << "0123456789abcdef\tgood-2\t9";
    }
    {
        DiskCache cache(dir);
        EXPECT_EQ(cache.corruptLinesSkipped(), 1u);
        EXPECT_EQ(cache.append({{"good-2", sampleResult(2)}}), 1u);
    }
    DiskCache reloaded(dir);
    EXPECT_EQ(reloaded.size(), 2u);
    EXPECT_TRUE(reloaded.contains("good-2"));
    EXPECT_EQ(reloaded.corruptLinesSkipped(), 1u);
}

TEST(DiskCache, ForeignVersionIsIgnoredThenRewritten)
{
    const std::string dir = freshCacheDir("version");
    std::string path;
    {
        DiskCache cache(dir);
        cache.append({{"old-format-key", sampleResult(0)}});
        path = cache.filePath();
    }
    // Pretend a future version wrote the file.
    {
        std::ofstream out(path, std::ios::trunc);
        out << "diva-sweep-cache v999\n"
            << "some future record format\n";
    }
    DiskCache cache(dir);
    EXPECT_EQ(cache.size(), 0u); // foreign file: nothing half-parsed
    EXPECT_EQ(cache.append({{"new-key", sampleResult(1)}}), 1u);
    DiskCache reloaded(dir);
    EXPECT_EQ(reloaded.size(), 1u);
    EXPECT_TRUE(reloaded.contains("new-key"));
    EXPECT_EQ(reloaded.corruptLinesSkipped(), 0u);
}

/** Every stored field of `got` equals `want`'s. */
bool
sameStoredFields(const ScenarioResult &got, const ScenarioResult &want)
{
    return got.resolvedBatch == want.resolvedBatch &&
           got.cycles == want.cycles &&
           got.computeCycles == want.computeCycles &&
           got.allReduceCycles == want.allReduceCycles &&
           got.seconds == want.seconds &&
           got.utilization == want.utilization &&
           got.energyJ == want.energyJ &&
           got.dramBytes == want.dramBytes &&
           got.postProcDramBytes == want.postProcDramBytes &&
           got.enginePowerW == want.enginePowerW &&
           got.engineAreaMm2 == want.engineAreaMm2 && got.ok();
}

/** `text` split the way the preload splits it: on '\n', with a final
 *  unterminated piece kept and no empty piece after a final '\n'. */
std::vector<std::string>
storeLines(const std::string &text)
{
    std::vector<std::string> lines;
    for (std::size_t pos = 0; pos < text.size();) {
        std::size_t nl = text.find('\n', pos);
        if (nl == std::string::npos)
            nl = text.size();
        lines.push_back(text.substr(pos, nl - pos));
        pos = nl + 1;
    }
    return lines;
}

TEST(DiskCache, GrammarFuzz)
{
    // A store of 20 records, mutated 2000 seeded ways: bytes flipped
    // (to newlines and tabs too), a record torn mid-line, lines
    // duplicated, deleted or swapped, and the header edited. Every
    // load must keep exactly the intact original records, count every
    // other non-empty line as corrupt, and leave the store appendable.
    const std::string dir = freshCacheDir("fuzz");
    std::map<std::string, ScenarioResult> want;
    std::string path, original;
    {
        DiskCache cache(dir);
        std::vector<std::pair<std::string, ScenarioResult>> records;
        for (int i = 0; i < 20; ++i)
            records.emplace_back("key-" + std::to_string(i),
                                 sampleResult(i));
        ASSERT_EQ(cache.append(records), 20u);
        want.insert(records.begin(), records.end());
        path = cache.filePath();
        std::ifstream in(path, std::ios::binary);
        original.assign(std::istreambuf_iterator<char>(in), {});
    }
    const std::vector<std::string> lines = storeLines(original);
    ASSERT_EQ(lines.size(), 21u);
    const std::string &header = lines[0];
    const std::set<std::string> intact(lines.begin() + 1, lines.end());

    Rng rng(0xd15c);
    const char kBytes[] = "\n\t0af-.x9 \xff";
    for (int iter = 0; iter < 2000; ++iter) {
        std::vector<std::string> mutated = lines;
        const int edits = 1 + int(rng.uniformInt(3));
        bool torn = false;
        for (int e = 0; e < edits && !mutated.empty(); ++e) {
            std::string &line = mutated[rng.uniformInt(mutated.size())];
            const std::size_t at = rng.uniformInt(mutated.size());
            switch (rng.uniformInt(6)) {
              case 0: // byte flip
                if (!line.empty())
                    line[rng.uniformInt(line.size())] =
                        rng.uniformInt(2) == 0
                            ? char(rng.uniformInt(256))
                            : kBytes[rng.uniformInt(sizeof(kBytes) - 1)];
                break;
              case 1: // a torn tail record
                mutated.resize(at + 1);
                mutated.back().resize(rng.uniformInt(
                    mutated.back().size() + 1));
                torn = true;
                break;
              case 2: // duplicated line
                mutated.insert(mutated.begin() + std::ptrdiff_t(at), line);
                break;
              case 3: // deleted line
                mutated.erase(mutated.begin() + std::ptrdiff_t(at));
                break;
              case 4: // swapped lines
                std::swap(line, mutated[at]);
                break;
              default: // header edit
                mutated[0] = rng.uniformInt(2) == 0
                                 ? "diva-sweep-cache v" +
                                       std::to_string(rng.uniformInt(3))
                                 : mutated[0] + " ";
                break;
            }
        }
        std::string text;
        for (const std::string &line : mutated)
            text += line + '\n';
        if (torn && !text.empty())
            text.pop_back(); // the torn record has no newline
        {
            std::ofstream out(path, std::ios::binary | std::ios::trunc);
            out << text;
        }

        std::unique_ptr<DiskCache> cache;
        ASSERT_NO_THROW(cache = std::make_unique<DiskCache>(dir))
            << "iteration " << iter;
        for (const auto &[key, r] : cache->entries()) {
            ASSERT_EQ(want.count(key), 1u) << "iteration " << iter;
            EXPECT_TRUE(sameStoredFields(r, want.at(key)))
                << "iteration " << iter << " key " << key;
        }
        const std::vector<std::string> got = storeLines(text);
        if (got.empty() || got[0] != header) {
            // A foreign or headerless file is never half-parsed.
            EXPECT_EQ(cache->size(), 0u) << "iteration " << iter;
            EXPECT_EQ(cache->corruptLinesSkipped(), 0u)
                << "iteration " << iter;
        } else {
            std::size_t content = 0, valid = 0;
            std::set<std::string> keys;
            for (std::size_t i = 1; i < got.size(); ++i) {
                content += !got[i].empty();
                if (intact.count(got[i])) {
                    ++valid;
                    keys.insert(got[i].substr(got[i].find('\t') + 1,
                                              got[i].find('\t', 17) - 17));
                }
            }
            EXPECT_EQ(cache->size(), keys.size()) << "iteration " << iter;
            EXPECT_EQ(cache->corruptLinesSkipped(), content - valid)
                << "iteration " << iter;
        }

        // Appendable: the new record lands intact beside the old ones.
        const std::size_t before = cache->size();
        ASSERT_EQ(cache->append({{"fuzz-new", sampleResult(99)}}), 1u)
            << "iteration " << iter;
        const DiskCache reloaded(dir);
        EXPECT_EQ(reloaded.size(), before + 1) << "iteration " << iter;
        ASSERT_TRUE(reloaded.contains("fuzz-new")) << "iteration " << iter;
        EXPECT_TRUE(sameStoredFields(reloaded.entries().at("fuzz-new"),
                                     sampleResult(99)))
            << "iteration " << iter;
    }
}

/** 2 configs x 1 model x 2 algos, cheap to simulate. */
SweepSpec
tinySpec()
{
    SweepSpec spec;
    spec.configs = {tpuV3Ws(), divaDefault(true)};
    spec.models = {"SqueezeNet"};
    spec.algorithms = {TrainingAlgorithm::kDpSgd,
                       TrainingAlgorithm::kDpSgdR};
    spec.batches = {4};
    return spec;
}

TEST(DiskCache, RunnerFreshRunMissesRerunAllHits)
{
    const std::string dir = freshCacheDir("runner");
    const std::vector<Scenario> scenarios = tinySpec().expand().scenarios;

    SweepOptions opts;
    opts.cacheDir = dir;
    std::string first_csv;
    {
        SweepRunner runner(opts);
        const SweepReport report = runner.run(scenarios);
        EXPECT_EQ(report.cacheMisses, scenarios.size());
        EXPECT_EQ(report.cacheHits, 0u);
        std::ostringstream oss;
        writeCsv(oss, report);
        first_csv = oss.str();
    }
    {
        // A brand-new runner (= a new process) sees only the disk.
        SweepRunner runner(opts);
        const SweepReport report = runner.run(scenarios);
        EXPECT_EQ(report.cacheMisses, 0u);
        EXPECT_EQ(report.cacheHits, scenarios.size());
        for (const ScenarioResult &r : report.results)
            EXPECT_TRUE(r.cacheHit);
        std::ostringstream oss;
        writeCsv(oss, report);
        EXPECT_EQ(oss.str(), first_csv); // byte-identical CSV
    }
}

TEST(DiskCache, IciTwinsAreTwoEntriesAndV1StoresAreIgnored)
{
    // Two pods that differ only in the 7th significant digit of their
    // ICI bandwidth are two design points, stored and served apart.
    const std::string dir = freshCacheDir("ici-twins");
    Scenario low;
    low.config = divaDefault(true);
    low.model = "ResNet-50";
    low.batch = 64;
    low.backend = SweepBackend::kMultiChip;
    low.pod.interconnectGBs = 1.0000001;
    Scenario high = low;
    high.pod.interconnectGBs = 1.0000004;
    SweepOptions opts;
    opts.cacheDir = dir;
    SweepReport cold;
    {
        SweepRunner runner(opts);
        cold = runner.run({low, high});
    }
    EXPECT_EQ(cold.cacheMisses, 2u);
    ASSERT_TRUE(cold.results[0].ok()) << cold.results[0].error;
    ASSERT_TRUE(cold.results[1].ok()) << cold.results[1].error;
    EXPECT_NE(cold.results[0].cycles, cold.results[1].cycles);

    const DiskCache stored(dir);
    EXPECT_EQ(stored.size(), 2u);
    EXPECT_TRUE(stored.contains(low.key()));
    EXPECT_TRUE(stored.contains(high.key()));
    {
        SweepRunner runner(opts);
        const SweepReport warm = runner.run({low, high});
        EXPECT_EQ(warm.cacheHits, 2u);
        for (std::size_t i = 0; i < 2; ++i)
            EXPECT_EQ(warm.results[i].cycles, cold.results[i].cycles);
    }

    // Version-1 keys wrote doubles at 6 significant digits, so a v1
    // record may stand for several design points: a store under a v1
    // header is ignored wholesale, valid records and all.
    EXPECT_EQ(DiskCache::kFormatVersion, 2);
    std::string text;
    {
        std::ifstream in(stored.filePath());
        std::ostringstream whole;
        whole << in.rdbuf();
        text = whole.str();
    }
    const std::string header = "diva-sweep-cache v2\n";
    ASSERT_EQ(text.rfind(header, 0), 0u);
    {
        std::ofstream out(stored.filePath(), std::ios::trunc);
        out << "diva-sweep-cache v1\n" << text.substr(header.size());
    }
    const DiskCache v1(dir);
    EXPECT_EQ(v1.size(), 0u);
    EXPECT_EQ(v1.corruptLinesSkipped(), 0u);
}

TEST(DiskCache, RunnerWithoutCacheDirDoesNotTouchDisk)
{
    SweepRunner runner;
    EXPECT_EQ(runner.diskCache(), nullptr);
}

TEST(DiskCache, RunnerPersistsAcrossClearCacheViaDisk)
{
    const std::string dir = freshCacheDir("clear");
    const std::vector<Scenario> scenarios = tinySpec().expand().scenarios;
    SweepOptions opts;
    opts.cacheDir = dir;
    opts.cacheAcrossRuns = false; // memory cleared, disk preloaded
    SweepRunner runner(opts);
    const SweepReport first = runner.run(scenarios);
    EXPECT_EQ(first.cacheMisses, scenarios.size());
    const SweepReport second = runner.run(scenarios);
    EXPECT_EQ(second.cacheMisses, 0u);
    EXPECT_EQ(second.cacheHits, scenarios.size());
}

} // namespace
} // namespace diva
