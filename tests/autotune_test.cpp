/**
 * @file autotune_test.cpp
 * The autotuner's safety contract (runtime/autotune.h):
 *   - plans are always executable (mk indexes kGemmKernels, grain > 0),
 *   - every candidate tile produces bitwise-identical GEMM results, so
 *     a tuned plan can never change numerics (the property that makes
 *     speed-only selection safe),
 *   - the on-disk cache round-trips deterministically: saving, clearing
 *     and reloading yields the same plan without re-searching, and the
 *     replayed plan computes bit-identical outputs,
 *   - a cache written by a different host/build/isa identity is
 *     rejected, never silently replayed, and a malformed entry line
 *     (trailing text, a sign, zero threads, ...) is skipped whole,
 *   - FABNET_AUTOTUNE honours only on/1/off/0,
 *   - shapes too small to matter skip the search (default plan),
 *   - tuningReport() carries the identity fields the bench JSONs and
 *     ServingEngine::stats() record.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "runtime/autotune.h"
#include "runtime/dispatch.h"
#include "runtime/isa.h"
#include "runtime/kernels.h"
#include "runtime/parallel.h"
#include "tensor/ops.h"
#include "tensor/rng.h"
#include "test_util.h"

namespace fabnet {
namespace {

using runtime::GemmPlan;
using runtime::kNumGemmKernels;
using testutil::bitwiseEqual;

class AutotuneTest : public testutil::RuntimeFixture
{
  protected:
    void TearDown() override
    {
        runtime::resetTuneCacheForTest();
        testutil::RuntimeFixture::TearDown();
    }

    static bool validPlan(const GemmPlan &p)
    {
        return p.mk >= 0 && p.mk < kNumGemmKernels && p.grain > 0;
    }

    /** Temp path for cache round-trips, removed on destruction. */
    struct TempFile
    {
        std::string path;
        explicit TempFile(const char *name)
            : path(std::string(::testing::TempDir()) + name)
        {
        }
        ~TempFile() { std::remove(path.c_str()); }
    };
};

TEST_F(AutotuneTest, PlansAreAlwaysExecutable)
{
    runtime::resetTuneCacheForTest();
    for (const auto &s : testutil::gemmShapeSweep(77, 2)) {
        EXPECT_TRUE(validPlan(runtime::planGemmF32(s.m, s.k, s.n)));
        EXPECT_TRUE(validPlan(runtime::planGemmF16(s.m, s.k, s.n)));
        EXPECT_TRUE(validPlan(runtime::planGemmInt8(s.m, s.k, s.n)));
    }
    // Degenerate shapes must not reach the timed search.
    EXPECT_TRUE(validPlan(runtime::planGemmF32(0, 0, 0)));
    // int8 has no tile menu: the packed layout fixes the kernel.
    EXPECT_EQ(runtime::planGemmInt8(256, 256, 256).mk,
              runtime::kDefaultGemmKernel);
}

TEST_F(AutotuneTest, EveryTileCandidateIsBitwiseIdentical)
{
    // The invariant the whole module rests on: mk partitions the
    // output, never an accumulation chain. If this fails, tuning by
    // speed alone is unsound.
    for (const auto &s : testutil::gemmShapeSweep(78, 2)) {
        Rng rng(79);
        const Tensor a = rng.normalTensor({s.m, s.k});
        const Tensor b = rng.normalTensor({s.k, s.n});
        const Tensor ref = ops::reference::matmul(a, b);
        for (int mk = 0; mk < kNumGemmKernels; ++mk) {
            Tensor c = Tensor::zeros(s.m, s.n);
            runtime::kernels().gemm_f32(a.data(), b.data(), c.data(), 0,
                                        s.m, s.k, s.n, nullptr, mk);
            EXPECT_TRUE(bitwiseEqual(c, ref)) << "mk=" << mk;
        }
    }
}

TEST_F(AutotuneTest, SmallShapesUseTheDefaultPlanWithoutSearching)
{
    runtime::resetTuneCacheForTest();
    const GemmPlan p = runtime::planGemmF32(4, 8, 8);
    EXPECT_EQ(p.mk, runtime::kDefaultGemmKernel);
    // Small shapes never enter the cache, so the report stays empty.
    EXPECT_NE(runtime::tuningReport().find("\"entries\": []"),
              std::string::npos);
}

TEST_F(AutotuneTest, CacheRoundTripReplaysTheSamePlanDeterministically)
{
    runtime::resetTuneCacheForTest();
    const std::size_t m = 128, k = 160, n = 128;
    const GemmPlan tuned = runtime::planGemmF32(m, k, n);
    ASSERT_TRUE(validPlan(tuned));
    // Second query must hit the in-process cache, not re-time.
    const GemmPlan again = runtime::planGemmF32(m, k, n);
    EXPECT_EQ(again.mk, tuned.mk);
    EXPECT_EQ(again.grain, tuned.grain);

    TempFile f("fabnet_tune_roundtrip.txt");
    ASSERT_TRUE(runtime::saveTuneCache(f.path));
    runtime::resetTuneCacheForTest();
    ASSERT_TRUE(runtime::loadTuneCache(f.path));
    const GemmPlan replayed = runtime::planGemmF32(m, k, n);
    EXPECT_EQ(replayed.mk, tuned.mk);
    EXPECT_EQ(replayed.grain, tuned.grain);

    // And the replayed plan computes the reference answer bitwise -
    // a stale-but-valid plan can cost speed, never correctness.
    Rng rng(80);
    const Tensor a = rng.normalTensor({m, k});
    const Tensor b = rng.normalTensor({k, n});
    EXPECT_TRUE(
        bitwiseEqual(ops::matmul(a, b), ops::reference::matmul(a, b)));
}

TEST_F(AutotuneTest, NearbyRowCountsShareOneBucketedPlan)
{
    // m is the batch/ragged axis: a ragged flush group's valid-row
    // total is different almost every batch, so exact-m keys would
    // re-search (and stall serving for tens of ms) per composition.
    // The key buckets m to the next power of two - nearby row counts
    // must resolve to one plan and ONE cache entry.
    runtime::resetTuneCacheForTest();
    const GemmPlan a = runtime::planGemmF32(150, 160, 128);
    const GemmPlan b = runtime::planGemmF32(200, 160, 128);
    const GemmPlan c = runtime::planGemmF32(256, 160, 128);
    EXPECT_EQ(a.mk, b.mk);
    EXPECT_EQ(a.grain, b.grain);
    EXPECT_EQ(a.mk, c.mk);
    EXPECT_EQ(a.grain, c.grain);
    if (runtime::autotuneEnabled()) {
        const std::string report = runtime::tuningReport();
        std::size_t entries = 0;
        for (std::size_t pos = report.find("\"family\"");
             pos != std::string::npos;
             pos = report.find("\"family\"", pos + 1))
            ++entries;
        EXPECT_EQ(entries, 1u) << report;
        EXPECT_NE(report.find("\"m\": 256"), std::string::npos)
            << report;
    }
}

TEST_F(AutotuneTest, ForeignCacheIdentityIsRejected)
{
    runtime::resetTuneCacheForTest();
    (void)runtime::planGemmF32(128, 160, 128);
    TempFile f("fabnet_tune_foreign.txt");
    ASSERT_TRUE(runtime::saveTuneCache(f.path));

    // Rewrite the identity line as if another machine had written it.
    std::vector<std::string> lines;
    {
        std::ifstream in(f.path);
        std::string line;
        while (std::getline(in, line))
            lines.push_back(line);
    }
    ASSERT_GE(lines.size(), 2u);
    lines[1] = "# cpu=OtherCPU build=deadbeef0000 isa=scalar";
    {
        std::ofstream out(f.path, std::ios::trunc);
        for (const auto &l : lines)
            out << l << "\n";
    }
    EXPECT_FALSE(runtime::loadTuneCache(f.path));
    EXPECT_FALSE(runtime::loadTuneCache(f.path + ".does-not-exist"));
}

TEST_F(AutotuneTest, MalformedCacheLinesAreSkipped)
{
    // Header + identity from a real save of an empty cache, then a
    // corpus of entry lines: one valid, the rest each broken one way.
    runtime::resetTuneCacheForTest();
    TempFile f("fabnet_tune_corpus.txt");
    ASSERT_TRUE(runtime::saveTuneCache(f.path));
    const std::string t = std::to_string(runtime::numThreads());
    const std::vector<std::string> bad = {
        "f32 512 160 128 " + t + " 0 8 1.5 junk", // trailing field
        "f32 512 160 128 " + t + " 0 8 1.5x",     // trailing text
        "f32 512 160 128 " + t + " 0 -8 1.5",     // wraps to huge grain
        "f32 -512 160 128 " + t + " 0 8 1.5",     // negative m
        "f32 512 160 128 -1 0 8 1.5",             // negative threads
        "f32 512 160 128 0 0 8 1.5",              // zero threads
        "f32 512 160 128 " + t + " 0 0 1.5",      // zero grain
        "f32 512 160 128 " + t + " -1 8 1.5",     // negative tile
        "f32 512 160 128 " + t + " 999 8 1.5",    // unknown tile
        "f32 512 160 128 " + t + " 0 8 nan",      // non-finite rate
        "f32 512 160 128 " + t + " 0 8 -1",       // negative rate
        "f32 512 160 128 " + t + " 0 8",          // missing field
        "f64 512 160 128 " + t + " 0 8 1.5",      // unknown family
        "f32 +512 160 128 " + t + " 0 8 1.5",     // explicit sign
    };
    {
        std::ofstream out(f.path, std::ios::app);
        for (const auto &l : bad)
            out << l << "\n";
    }
    EXPECT_FALSE(runtime::loadTuneCache(f.path)) << "loaded a bad line";
    EXPECT_NE(runtime::tuningReport().find("\"entries\": []"),
              std::string::npos)
        << runtime::tuningReport();

    {
        std::ofstream out(f.path, std::ios::app);
        out << "f32 256 160 128 " << t << " 0 8 1.5\n";
    }
    EXPECT_TRUE(runtime::loadTuneCache(f.path));
    const std::string report = runtime::tuningReport();
    std::size_t entries = 0;
    for (std::size_t pos = report.find("\"family\"");
         pos != std::string::npos; pos = report.find("\"family\"", pos + 1))
        ++entries;
    EXPECT_EQ(entries, 1u) << report;
    EXPECT_NE(report.find("\"m\": 256"), std::string::npos) << report;
    const GemmPlan p = runtime::planGemmF32(256, 160, 128);
    EXPECT_EQ(p.mk, 0);
    EXPECT_EQ(p.grain, 8u);
}

TEST_F(AutotuneTest, AutotuneEnvAcceptsOnlyOnOffValues)
{
    const char *prev = std::getenv("FABNET_AUTOTUNE");
    const std::string saved = prev ? prev : "";
    const struct
    {
        const char *value;
        bool enabled;
        bool warns;
    } cases[] = {
        {"off", false, false}, {"0", false, false}, {"on", true, false},
        {"1", true, false},    {"", true, false},   {"OFF", true, true},
        {"no", true, true},    {"0x", true, true},  {"2", true, true},
    };
    for (const auto &c : cases) {
        ::setenv("FABNET_AUTOTUNE", c.value, 1);
        runtime::resetTuneCacheForTest();
        ::testing::internal::CaptureStderr();
        EXPECT_EQ(runtime::autotuneEnabled(), c.enabled)
            << "FABNET_AUTOTUNE='" << c.value << "'";
        const std::string err = ::testing::internal::GetCapturedStderr();
        EXPECT_EQ(err.find("FABNET_AUTOTUNE") != std::string::npos,
                  c.warns)
            << "FABNET_AUTOTUNE='" << c.value << "' stderr: " << err;
        EXPECT_LE(std::count(err.begin(), err.end(), '\n'), 1);
    }
    if (prev)
        ::setenv("FABNET_AUTOTUNE", saved.c_str(), 1);
    else
        ::unsetenv("FABNET_AUTOTUNE");
    runtime::resetTuneCacheForTest();
}

TEST_F(AutotuneTest, TuningReportCarriesTheIdentityFields)
{
    runtime::resetTuneCacheForTest();
    (void)runtime::planGemmF32(128, 160, 128);
    const std::string report = runtime::tuningReport();
    EXPECT_NE(report.find("\"isa\": \"" + std::string(runtime::isa()) +
                          "\""),
              std::string::npos)
        << report;
    EXPECT_NE(report.find("\"cpu_signature\""), std::string::npos);
    EXPECT_NE(report.find("\"build\""), std::string::npos);
    EXPECT_NE(report.find("\"entries\""), std::string::npos);
    if (runtime::autotuneEnabled()) {
        EXPECT_NE(report.find("\"family\": \"f32\""), std::string::npos)
            << report;
        EXPECT_NE(report.find("\"m\": 128"), std::string::npos)
            << report;
    }
}

} // namespace
} // namespace fabnet
