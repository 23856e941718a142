/**
 * @file chaos_soak_test.cpp
 * Seeded chaos soak over both serving engines (`ctest -L fault`).
 *
 * The count-keyed suites (fault_injection_test, generation_engine_test)
 * pin each failure path in isolation. This soak mixes them: for every
 * seed in a fixed list it draws a random FaultPlan (admission faults,
 * sticky model faults, batch delays, stalls with the watchdog armed),
 * a random engine config and random per-request deadlines, then runs
 * concurrent submitters with interleaved flush() calls while another
 * thread races a shutdown(deadline). Whatever the interleaving, the
 * engine must keep its lifecycle contract:
 *   - every future it handed out resolves exactly once, with a value
 *     or a typed serve::Error (never broken_promise/future_error);
 *   - every value is bitwise equal to the serial reference (unpadded
 *     forward for classify, greedy full recompute for decode);
 *   - once drained, requests == completed + failed.
 * A failure names its seed; re-running that seed replays the same
 * plan and config (the interleaving itself is up to the scheduler).
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "model/builder.h"
#include "model/generator.h"
#include "runtime/parallel.h"
#include "serve/error.h"
#include "serve/fault.h"
#include "serve/generation.h"
#include "serve/serving.h"
#include "tensor/rng.h"
#include "test_util.h"

namespace fabnet {
namespace {

using serve::Deadline;
using serve::deadlineAfter;
using serve::Error;
using serve::FaultPlan;
using serve::GenerationConfig;
using serve::GenerationEngine;
using serve::kNoDeadline;
using serve::ServingConfig;
using serve::ServingEngine;
using serve::ShedPolicy;

constexpr unsigned kSeeds[] = {1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233};
constexpr int kSubmitters = 3;
constexpr int kPerSubmitter = 14;

/** Uniform draw in [lo, hi] (inclusive), as size_t. */
std::size_t
draw(Rng &rng, std::size_t lo, std::size_t hi)
{
    return static_cast<std::size_t>(
        rng.randint(static_cast<int>(lo), static_cast<int>(hi)));
}

/**
 * Random fault schedule: admission and sticky model faults keyed on
 * admission indices below @p requests, delays and stalls keyed on
 * invocation indices below @p invocations. Stalls are only drawn when
 * @p stalls is set (the caller then arms the watchdog), and land
 * early so they fire before the racing shutdown.
 */
FaultPlan
randomPlan(Rng &rng, std::size_t requests, std::size_t invocations,
           bool stalls)
{
    FaultPlan plan;
    for (std::size_t i = draw(rng, 0, 3); i > 0; --i)
        plan.request_faults[draw(rng, 0, requests - 1)] =
            FaultPlan::Stage::Admission;
    for (std::size_t i = draw(rng, 0, 4); i > 0; --i)
        plan.request_faults[draw(rng, 0, requests - 1)] =
            FaultPlan::Stage::Model;
    for (std::size_t i = draw(rng, 0, 4); i > 0; --i)
        plan.batch_delays[draw(rng, 0, invocations - 1)] =
            std::chrono::microseconds(draw(rng, 100, 5000));
    if (stalls)
        for (std::size_t i = draw(rng, 1, 2); i > 0; --i)
            plan.batch_stalls.insert(draw(rng, 0, invocations / 4));
    return plan;
}

/** No deadline about half the time, else 1-30 ms out. */
Deadline
randomDeadline(Rng &rng)
{
    return rng.randint(0, 1) == 0
               ? kNoDeadline
               : deadlineAfter(std::chrono::milliseconds(draw(rng, 1, 30)));
}

/** Pause a submitter 0-1 ms so traffic overlaps the shutdown race. */
void
jitter(Rng &rng)
{
    std::this_thread::sleep_for(
        std::chrono::microseconds(draw(rng, 0, 1000)));
}

/** What resolving one future produced. */
enum class Outcome { Value, TypedError, Untyped };

template <class T>
Outcome
resolve(std::future<T> &f, T &value)
{
    try {
        value = f.get();
        return Outcome::Value;
    } catch (const Error &) {
        return Outcome::TypedError;
    } catch (...) {
        return Outcome::Untyped;
    }
}

using ChaosSoakTest = testutil::RuntimeFixture;

ModelConfig
classifyCfg()
{
    ModelConfig cfg;
    cfg.kind = ModelKind::Transformer;
    cfg.vocab = 32;
    cfg.max_seq = 64;
    cfg.d_hid = 16;
    cfg.r_ffn = 2;
    cfg.n_total = 2;
    cfg.heads = 2;
    cfg.classes = 4;
    return cfg;
}

TEST_F(ChaosSoakTest, ClassifyEngineKeepsItsContractUnderRandomFaults)
{
    const ModelConfig cfg = classifyCfg();
    Rng build_rng(7);
    auto model = buildModel(cfg, build_rng);
    std::vector<std::size_t> lens;
    Rng len_rng(77);
    for (int i = 0; i < 48; ++i)
        lens.push_back(draw(len_rng, 1, cfg.max_seq));
    const auto pool = testutil::makeRequests(lens, cfg.vocab, 78);
    const auto want = testutil::serveSerial(*model, pool);

    for (unsigned seed : kSeeds) {
        SCOPED_TRACE("classify soak seed " + std::to_string(seed));
        Rng rng(seed);
        runtime::setNumThreads(rng.randint(0, 1) ? 4 : 1);
        const std::size_t total = kSubmitters * kPerSubmitter;
        const bool stalls = rng.randint(0, 1) == 1;
        const FaultPlan plan = randomPlan(rng, total, total, stalls);
        ServingConfig sc;
        sc.max_batch = draw(rng, 1, 8);
        const std::size_t grains[] = {1, 8, 16};
        sc.bucket_granularity = grains[draw(rng, 0, 2)];
        sc.max_wait = std::chrono::microseconds(draw(rng, 100, 2000));
        sc.max_queue_requests = rng.randint(0, 1) ? 0 : draw(rng, 2, 16);
        sc.shed_policy = rng.randint(0, 1) ? ShedPolicy::DropExpiredFirst
                                           : ShedPolicy::RejectNew;
        if (stalls)
            sc.watchdog_timeout = std::chrono::milliseconds(20);
        sc.fault_plan = &plan;
        const auto shutdown_after =
            std::chrono::milliseconds(draw(rng, 2, 30));
        const auto shutdown_budget =
            std::chrono::milliseconds(draw(rng, 1, 30));

        ServingEngine engine(*model, sc);
        std::mutex mu;
        std::vector<std::pair<std::size_t, std::future<std::vector<float>>>>
            futs;
        std::atomic<std::size_t> untyped_admission{0};
        std::vector<std::thread> threads;
        for (int t = 0; t < kSubmitters; ++t) {
            threads.emplace_back([&, t] {
                Rng trng(seed * 131 + static_cast<unsigned>(t));
                for (int i = 0; i < kPerSubmitter; ++i) {
                    const std::size_t r = draw(trng, 0, pool.size() - 1);
                    const Deadline d = randomDeadline(trng);
                    try {
                        auto f = engine.submit(pool[r], d);
                        std::lock_guard<std::mutex> lk(mu);
                        futs.emplace_back(r, std::move(f));
                    } catch (const Error &) {
                        // Refused at admission: typed, nothing queued.
                    } catch (...) {
                        untyped_admission.fetch_add(1);
                    }
                    if (trng.randint(0, 5) == 0)
                        engine.flush();
                    jitter(trng);
                }
            });
        }
        threads.emplace_back([&] {
            std::this_thread::sleep_for(shutdown_after);
            engine.shutdown(deadlineAfter(shutdown_budget));
        });
        for (auto &th : threads)
            th.join();
        engine.shutdown();

        EXPECT_EQ(untyped_admission.load(), 0u);
        std::size_t values = 0;
        for (auto &[r, f] : futs) {
            ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
                      std::future_status::ready)
                << "request " << r << " unresolved after shutdown";
            std::vector<float> got;
            const Outcome o = resolve(f, got);
            ASSERT_NE(o, Outcome::Untyped) << "request " << r;
            if (o == Outcome::Value) {
                ++values;
                ASSERT_EQ(got.size(), want[r].size());
                EXPECT_EQ(std::memcmp(got.data(), want[r].data(),
                                      got.size() * sizeof(float)),
                          0)
                    << "request " << r << " logits differ from serial";
            }
        }
        const auto st = engine.stats();
        EXPECT_EQ(st.requests, futs.size());
        EXPECT_EQ(st.completed, values);
        EXPECT_EQ(st.requests, st.completed + st.failed);
    }
}

ModelConfig
decodeCfg()
{
    ModelConfig cfg;
    cfg.kind = ModelKind::FABNet;
    cfg.vocab = 32;
    cfg.max_seq = 32;
    cfg.d_hid = 16;
    cfg.r_ffn = 2;
    cfg.n_total = 2;
    cfg.n_abfly = 2;
    cfg.heads = 2;
    cfg.classes = 2;
    cfg.causal = true;
    return cfg;
}

/** Greedy tokens of a solo full-recompute loop (no EOS). */
std::vector<int>
referenceGreedy(CausalGenerator &gen, std::vector<int> seq,
                std::size_t max_new)
{
    std::vector<int> out;
    while (out.size() < max_new) {
        const int tok = nn::argmaxRows(gen.forwardFull({seq}))[0];
        out.push_back(tok);
        if (seq.size() == gen.maxSeq())
            break;
        seq.push_back(tok);
    }
    return out;
}

TEST_F(ChaosSoakTest, GenerationEngineKeepsItsContractUnderRandomFaults)
{
    const ModelConfig cfg = decodeCfg();
    Rng build_rng(9);
    auto gen = buildGenerator(cfg, build_rng);
    constexpr std::size_t kMaxNew = 8;
    std::vector<std::size_t> lens;
    Rng len_rng(99);
    for (int i = 0; i < 32; ++i)
        lens.push_back(draw(len_rng, 1, 20));
    const auto pool = testutil::makeRequests(lens, gen->vocab(), 98);
    // max_new m yields the first m tokens of the kMaxNew reference.
    std::vector<std::vector<int>> want;
    for (const auto &p : pool)
        want.push_back(referenceGreedy(*gen, p, kMaxNew));

    struct Submitted
    {
        std::size_t prompt = 0;
        std::size_t max_new = 0;
        std::shared_ptr<std::vector<int>> streamed;
        std::future<std::vector<int>> fut;
    };

    for (unsigned seed : kSeeds) {
        SCOPED_TRACE("decode soak seed " + std::to_string(seed));
        Rng rng(seed);
        runtime::setNumThreads(rng.randint(0, 1) ? 4 : 1);
        const std::size_t total = kSubmitters * kPerSubmitter;
        const bool stalls = rng.randint(0, 1) == 1;
        // Prefills and decode steps share the invocation counter.
        const FaultPlan plan = randomPlan(rng, total, 4 * total, stalls);
        GenerationConfig gc;
        gc.max_live = draw(rng, 1, 6);
        gc.max_queue_requests = rng.randint(0, 1) ? 0 : draw(rng, 2, 12);
        gc.max_queue_tokens =
            rng.randint(0, 1) ? 0 : draw(rng, gen->maxSeq(), 120);
        gc.shed_policy = rng.randint(0, 1) ? ShedPolicy::DropExpiredFirst
                                           : ShedPolicy::RejectNew;
        if (stalls)
            gc.watchdog_timeout = std::chrono::milliseconds(20);
        gc.fault_plan = &plan;
        const auto shutdown_after =
            std::chrono::milliseconds(draw(rng, 2, 30));
        const auto shutdown_budget =
            std::chrono::milliseconds(draw(rng, 1, 30));

        GenerationEngine engine(*gen, gc);
        std::mutex mu;
        std::vector<Submitted> subs;
        std::atomic<std::size_t> untyped_admission{0};
        std::vector<std::thread> threads;
        for (int t = 0; t < kSubmitters; ++t) {
            threads.emplace_back([&, t] {
                Rng trng(seed * 137 + static_cast<unsigned>(t));
                for (int i = 0; i < kPerSubmitter; ++i) {
                    Submitted s;
                    s.prompt = draw(trng, 0, pool.size() - 1);
                    s.max_new = draw(trng, 1, kMaxNew);
                    const Deadline d = randomDeadline(trng);
                    serve::TokenCallback cb;
                    if (trng.randint(0, 1)) {
                        s.streamed = std::make_shared<std::vector<int>>();
                        cb = [out = s.streamed](int tok) {
                            out->push_back(tok);
                        };
                    }
                    try {
                        s.fut = engine.submit(pool[s.prompt], s.max_new, d,
                                              std::move(cb));
                        std::lock_guard<std::mutex> lk(mu);
                        subs.push_back(std::move(s));
                    } catch (const Error &) {
                        // Refused at admission: typed, nothing queued.
                    } catch (...) {
                        untyped_admission.fetch_add(1);
                    }
                    if (trng.randint(0, 5) == 0)
                        engine.flush();
                    jitter(trng);
                }
            });
        }
        threads.emplace_back([&] {
            std::this_thread::sleep_for(shutdown_after);
            engine.shutdown(deadlineAfter(shutdown_budget));
        });
        for (auto &th : threads)
            th.join();
        engine.shutdown();

        EXPECT_EQ(untyped_admission.load(), 0u);
        std::size_t values = 0;
        for (Submitted &s : subs) {
            ASSERT_EQ(s.fut.wait_for(std::chrono::seconds(0)),
                      std::future_status::ready)
                << "prompt " << s.prompt << " unresolved after shutdown";
            std::vector<int> got;
            const Outcome o = resolve(s.fut, got);
            ASSERT_NE(o, Outcome::Untyped) << "prompt " << s.prompt;
            if (o != Outcome::Value)
                continue;
            ++values;
            const std::vector<int> expect(
                want[s.prompt].begin(),
                want[s.prompt].begin() +
                    std::min(s.max_new, want[s.prompt].size()));
            EXPECT_EQ(got, expect)
                << "prompt " << s.prompt << " max_new " << s.max_new;
            if (s.streamed) {
                EXPECT_EQ(*s.streamed, got) << "prompt " << s.prompt;
            }
        }
        const auto st = engine.stats();
        EXPECT_EQ(st.requests, subs.size());
        EXPECT_EQ(st.completed, values);
        EXPECT_EQ(st.requests, st.completed + st.failed);
    }
}

} // namespace
} // namespace fabnet
