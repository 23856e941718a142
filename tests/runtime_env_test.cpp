/**
 * @file runtime_env_test.cpp
 * Environment knobs read at startup get one defined behaviour each:
 * FABNET_NUM_THREADS accepts only a whole decimal in
 * [1, runtime::kMaxEnvThreads]; everything else parses as 0, which
 * makes the pool fall back to hardware concurrency instead of
 * spawning an absurd number of threads during static initialisation.
 */
#include <gtest/gtest.h>

#include "runtime/parallel.h"

namespace fabnet {
namespace {

TEST(RuntimeEnvTest, NumThreadsAcceptsOnlyWholeDecimalsInRange)
{
    EXPECT_EQ(runtime::parseNumThreads("3"), 3u);
    EXPECT_EQ(runtime::parseNumThreads("1"), 1u);
    EXPECT_EQ(runtime::parseNumThreads("1024"), runtime::kMaxEnvThreads);

    EXPECT_EQ(runtime::parseNumThreads(""), 0u);
    EXPECT_EQ(runtime::parseNumThreads("abc"), 0u);
    EXPECT_EQ(runtime::parseNumThreads("0"), 0u);
    EXPECT_EQ(runtime::parseNumThreads("-5"), 0u);
    EXPECT_EQ(runtime::parseNumThreads("+4"), 0u);
    EXPECT_EQ(runtime::parseNumThreads("4abc"), 0u);
    EXPECT_EQ(runtime::parseNumThreads(" 4"), 0u);
    EXPECT_EQ(runtime::parseNumThreads("1025"), 0u);
    EXPECT_EQ(runtime::parseNumThreads("100000000"), 0u);
    EXPECT_EQ(runtime::parseNumThreads("99999999999999999999"), 0u);
}

} // namespace
} // namespace fabnet
