/**
 * @file workloads.cpp
 * The four timed workloads of the FABNet runtime benchmark. Every
 * workload sets up kSetupReps times (the autotuner table is emptied
 * first, so each set-up pays every search), measures inside
 * TuneGuard-checked windows, then checks its outputs against the
 * serial references with the clock stopped.
 */
#include <cstdarg>
#include <cstring>
#include <fstream>
#include <functional>
#include <future>
#include <memory>
#include <thread>

#include "bench.h"
#include "inputs.h"
#include "model/builder.h"
#include "model/generator.h"
#include "nn/embedding.h"
#include "runtime/autotune.h"

namespace fabbench {

using namespace fabnet;

// ------------------------------------------------------------- plumbing

void
Outcome::note(const char *fmt, ...)
{
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof buf, fmt, ap);
    va_end(ap);
    notes.emplace_back(buf);
}

std::size_t
poolThreads(const std::string &workload)
{
    if (workload == "long_context" || workload == "train_step") {
        const unsigned hw = std::thread::hardware_concurrency();
        return std::clamp<std::size_t>(hw > 1 ? hw - 1 : 1, 1, 3);
    }
    return 1;
}

std::size_t
tuningEntries()
{
    const std::string r = runtime::tuningReport();
    std::size_t n = 0;
    for (std::size_t p = r.find("\"family\""); p != std::string::npos;
         p = r.find("\"family\"", p + 1))
        ++n;
    return n;
}

TuneGuard::TuneGuard(const char *window)
    : window_(window), entries_(tuningEntries())
{
}

void
TuneGuard::check(Outcome &out) const
{
    const std::size_t now = tuningEntries();
    if (now != entries_)
        out.invalid.push_back(std::string("autotuner searched inside the "
                                          "timed window ") +
                              window_ + " (" + std::to_string(entries_) +
                              " -> " + std::to_string(now) + " entries)");
}

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    return -1.0;
}

namespace {

/** Median set-up time across repetitions, reported as setup_s. */
void
reportSetup(Outcome &out, const std::vector<double> &setup_s)
{
    out.metrics.set("setup_s", median(setup_s), "s");
    std::string all;
    for (double s : setup_s)
        all += " " + std::to_string(s);
    out.note("setup_s reps:%s", all.c_str());
}

/** An operation with fewer than kMinBestReps repetitions has no best
 *  time worth reporting; the run is refused instead. */
void
requireReps(Outcome &out, const char *what, const BestTimes &best)
{
    if (best.minReps() < kMinBestReps)
        out.invalid.push_back(std::string(what) + ": an operation ran " +
                              std::to_string(best.minReps()) +
                              " times, fewer than " +
                              std::to_string(kMinBestReps));
}

/** Median and tail of a raw timed sample, printed as information: on a
 *  shared host they follow its load (README.md, "Why best times"). */
void
noteSpread(Outcome &out, const char *what, const std::vector<double> &v,
           double tail_p)
{
    if (v.empty())
        return;
    if (supportsPercentile(v.size(), tail_p))
        out.note("%s: raw p50 %.3f ms, p%g %.3f ms (%zu samples, "
                 "information only)",
                 what, percentile(v, 50), tail_p, percentile(v, tail_p),
                 v.size());
    else
        out.note("%s: raw p50 %.3f ms (%zu samples, information only)",
                 what, percentile(v, 50), v.size());
}

void
noteLateness(Outcome &out, const char *phase,
             const std::vector<double> &late_ms)
{
    if (late_ms.empty())
        return;
    out.note("%s: %zu arrivals, generator behind schedule p99 %.3f ms, "
             "max %.3f ms",
             phase, late_ms.size(), percentile(late_ms, 99.0),
             percentile(late_ms, 100.0));
}

bool
sameBits(const std::vector<float> &a, const float *b, std::size_t n)
{
    return a.size() == n &&
           std::memcmp(a.data(), b, n * sizeof(float)) == 0;
}

template <class T>
void
append(std::vector<T> &to, std::vector<T> &from)
{
    to.insert(to.end(), std::make_move_iterator(from.begin()),
              std::make_move_iterator(from.end()));
}

template <class T>
bool
ready(const std::future<T> &f)
{
    return f.wait_for(std::chrono::seconds(0)) ==
           std::future_status::ready;
}

// -------------------------------------------------------- classify_open

/** One classify request served through the engine. */
struct Served
{
    std::size_t pool_index = 0;
    std::vector<float> logits;
    double latency_ms = 0.0;
    bool ok = false;
};

struct OpenLoop
{
    std::vector<double> latency_ms, late_ms, submit_us;
    std::vector<Served> served;
    std::size_t failed = 0;
};

/**
 * Open-loop Poisson phase: one client thread submits each request when
 * it is due and polls the in-flight futures between arrivals. Latency
 * is timed from the due time, so a stalled engine or a late generator
 * is charged to the requests that waited.
 */
OpenLoop
classifyOpenLoop(serve::ServingEngine &eng, const Requests &pool,
                 const std::vector<double> &at,
                 const std::vector<std::size_t> &which, Trace &trace,
                 const char *phase)
{
    struct Inflight
    {
        std::size_t i;
        Clock::time_point due;
        std::future<std::vector<float>> fut;
        std::int64_t span;
    };
    OpenLoop r;
    r.served.resize(at.size());
    std::vector<Inflight> live;
    const Clock::time_point t0 =
        Clock::now() + std::chrono::milliseconds(1);
    const std::int64_t phase_span = trace.open(phase, t0);

    auto poll = [&] {
        for (std::size_t k = 0; k < live.size();) {
            if (!ready(live[k].fut)) {
                ++k;
                continue;
            }
            const Clock::time_point done = Clock::now();
            Served &s = r.served[live[k].i];
            try {
                s.logits = live[k].fut.get();
                s.ok = true;
                s.latency_ms = msBetween(live[k].due, done);
                r.latency_ms.push_back(s.latency_ms);
            } catch (const std::exception &) {
                ++r.failed;
            }
            trace.finish(live[k].span, done);
            live[k] = std::move(live.back());
            live.pop_back();
        }
    };

    // The client spins (yielding) between arrivals: a blocked client
    // pays the VM's wake-up latency on every arrival, which would read
    // as engine latency. The pool sizes leave it a core of its own.
    auto harvest_until = [&](Clock::time_point t) {
        do {
            poll();
            std::this_thread::yield();
        } while (Clock::now() < t);
    };

    for (std::size_t i = 0; i < at.size(); ++i) {
        const Clock::time_point due =
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(at[i]));
        harvest_until(due);
        const Clock::time_point s0 = Clock::now();
        r.late_ms.push_back(msBetween(due, s0));
        r.served[i].pool_index = which[i];
        const std::int64_t span = trace.open(
            "classify.request", due, phase_span,
            static_cast<std::int64_t>(i));
        try {
            auto fut = eng.submit(pool[which[i]]);
            const Clock::time_point s1 = Clock::now();
            r.submit_us.push_back(1e3 * msBetween(s0, s1));
            trace.record("serve.submit", s0, s1, span,
                         static_cast<std::int64_t>(i));
            live.push_back({i, due, std::move(fut), span});
        } catch (const std::exception &) {
            ++r.failed;
            trace.finish(span, Clock::now());
        }
    }
    while (!live.empty())
        harvest_until(Clock::now());
    trace.finish(phase_span, Clock::now());
    return r;
}

/** The engine counters the benchmark reads, combined field by field as
 *  a = op(a, b); the identity fields are left as they are. */
template <class Op>
serve::ServingStats
combine(serve::ServingStats a, const serve::ServingStats &b, Op op)
{
    using S = serve::ServingStats;
    for (std::size_t S::*f :
         {&S::requests, &S::completed, &S::failed, &S::batches,
          &S::flushed_full, &S::flushed_timeout, &S::flushed_drain,
          &S::real_tokens, &S::padded_tokens, &S::tight_tokens, &S::rejected,
          &S::expired_in_queue, &S::expired_mid_batch, &S::model_faults,
          &S::isolation_retries})
        a.*f = op(a.*f, b.*f);
    return a;
}

std::size_t
serveFailures(const serve::ServingStats &s)
{
    return s.rejected + s.expired_in_queue + s.expired_mid_batch +
           s.model_faults + s.isolation_retries;
}

/** The classify engine after set-up, and what set-up cost. */
struct ClassifyRig
{
    std::unique_ptr<SequenceClassifier> model;
    std::unique_ptr<serve::ServingEngine> engine;
    std::vector<double> setup_s;
};

void
setUpClassify(ClassifyRig &rig, std::uint64_t seed, const Requests &pool,
              int reps)
{
    for (int rep = 0; rep < reps; ++rep) {
        rig.engine.reset();
        rig.model.reset();
        runtime::resetTuneCacheForTest();
        const Clock::time_point t0 = Clock::now();
        Rng rng(weightSeed(seed));
        rig.model = buildModel(classifyModel(), rng);
        rig.engine = std::make_unique<serve::ServingEngine>(
            *rig.model, classifyServing());
        rig.engine->serveAll(pool); // every batch shape, every search
        rig.setup_s.push_back(secondsBetween(t0, Clock::now()));
    }
}

/** Saturated classify: kClassifyBlocks fixed blocks of max_batch
 *  requests (the head of the pool). */
inline constexpr std::size_t kClassifyBlocks = 2;
/** The open loop draws its arrivals from this many distinct requests,
 *  so each one arrives often enough for a best latency. */
inline constexpr std::size_t kClassifyOpenDistinct = 16;

/** Saturated and open-loop phases alternate in this many segments. */
inline constexpr std::size_t kSegments = 4;

/** One served saturated block, kept for the output check. */
struct BlockOutput
{
    std::size_t block;
    std::vector<std::vector<float>> logits;
};

/** One saturated segment: each block served by serveAll, passing over
 *  every block for @p seconds (until every block has kMinBestReps
 *  repetitions, at least); block times go to @p best. */
void
classifySaturated(serve::ServingEngine &eng, const Requests &pool,
                  double seconds, Trace &trace, Outcome &out,
                  BestTimes &best, std::vector<BlockOutput> &outputs)
{
    const std::size_t per = classifyServing().max_batch;
    TuneGuard guard("classify.saturated");
    const Clock::time_point end =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    while (best.minReps() < kMinBestReps || Clock::now() < end) {
        for (std::size_t b = 0; b < kClassifyBlocks; ++b) {
            const Requests block(pool.begin() + b * per,
                                 pool.begin() + (b + 1) * per);
            const Clock::time_point t0 = Clock::now();
            const std::int64_t span = trace.open("classify.saturated", t0);
            out.attempted += block.size();
            try {
                outputs.push_back({b, eng.serveAll(block)});
            } catch (const std::exception &e) {
                out.failed += block.size();
                out.note("serveAll failed: %s", e.what());
            }
            const Clock::time_point t1 = Clock::now();
            trace.record("serve.serveAll", t0, t1, span);
            trace.finish(span, t1);
            best.add(b, secondsBetween(t0, t1));
        }
    }
    guard.check(out);
}

} // namespace

Outcome
runClassify(const RunConfig &cfg, double rate, Trace &trace)
{
    Outcome out;
    const Requests pool = classifyPool(cfg.seed);
    ClassifyRig rig;
    setUpClassify(rig, cfg.seed, pool, cfg.setup_reps);
    reportSetup(out, rig.setup_s);
    serve::ServingEngine &eng = *rig.engine;
    // 35% of the run measures capacity, the rest is the open loop at
    // the fixed rate (150 req/s * 0.65 * 20 s = 1950 arrivals over 16
    // distinct requests, about 120 arrivals each). The two phases
    // alternate in kSegments segments, so both meet the host's quiet
    // and busy spells alike.
    const double open_s = 0.65 * cfg.seconds;
    const std::uint64_t stream =
        rate == kClassifyRps ? kInClassifyOpen : kInClassifyBatching;
    const auto at = poissonSchedule(streamSeed(cfg.seed, stream), rate,
                                    open_s);
    const auto which = pickIndices(streamSeed(cfg.seed, stream + 100),
                                   at.size(), kClassifyOpenDistinct);
    BestTimes sat(kClassifyBlocks);
    std::vector<BlockOutput> sat_out;
    OpenLoop open;
    serve::ServingStats d{};
    for (std::size_t k = 0, next = 0; k < kSegments; ++k) {
        classifySaturated(eng, pool, 0.35 * cfg.seconds / kSegments, trace,
                          out, sat, sat_out);
        const double from = open_s * static_cast<double>(k) / kSegments;
        const double to = open_s * static_cast<double>(k + 1) / kSegments;
        std::vector<double> seg_at;
        std::vector<std::size_t> seg_which;
        for (; next < at.size() && at[next] < to; ++next) {
            seg_at.push_back(at[next] - from);
            seg_which.push_back(which[next]);
        }
        const serve::ServingStats s0 = eng.stats();
        TuneGuard guard("classify.open");
        OpenLoop part = classifyOpenLoop(eng, pool, seg_at, seg_which,
                                         trace, "classify.open");
        guard.check(out);
        d = combine(d, combine(eng.stats(), s0, std::minus<>()),
                    std::plus<>());
        append(open.latency_ms, part.latency_ms);
        append(open.late_ms, part.late_ms);
        append(open.submit_us, part.submit_us);
        append(open.served, part.served);
        open.failed += part.failed;
    }
    requireReps(out, "classify.saturated", sat);
    out.metrics.set("peak_rss_mb", peakRssMb(), "MiB");

    BestTimes open_best(kClassifyOpenDistinct);
    for (const Served &sv : open.served)
        if (sv.ok)
            open_best.add(sv.pool_index, sv.latency_ms);
    requireReps(out, "classify.open", open_best);

    out.attempted += at.size();
    out.failed += open.failed;
    out.metrics.set("throughput_per_s",
                    static_cast<double>(kClassifyBlocks *
                                        classifyServing().max_batch) /
                        sat.sum(),
                    "1/s");
    out.metrics.set("latency_ms", open_best.median(), "ms");
    if (!open.latency_ms.empty())
        out.latency_p50_ms = percentile(open.latency_ms, 50);
    noteSpread(out, "classify.open latency", open.latency_ms, 99);
    noteLateness(out, "classify.open", open.late_ms);
    out.note("classify @ %.0f req/s: saturated %zu passes x %zu blocks; "
             "open loop %zu requests, avg batch %.2f, timeout flushes "
             "%zu of %zu batches",
             rate, sat.minReps(), sat.ops(), open.latency_ms.size(),
             d.avgBatch(), d.flushed_timeout, d.batches);

    // Engine counters for the traced run's serve.* metrics.
    out.layer.set("serve.avg_batch", d.avgBatch(), "count");
    out.layer.set("serve.pad_share", d.padOverhead(), "ratio");
    out.layer.set("serve.timeout_flush_share",
                  d.batches ? static_cast<double>(d.flushed_timeout) /
                                  static_cast<double>(d.batches)
                            : 0.0,
                  "ratio");
    if (!open.submit_us.empty())
        out.layer.set("serve.submit_us_p50", percentile(open.submit_us, 50),
                      "us");
    out.serve_failures += serveFailures(d);

    // Output check: every response bitwise equal to the serial
    // unpadded forward of its request on an identically seeded model.
    rig.engine.reset();
    Rng rng(weightSeed(cfg.seed));
    auto ref_model = buildModel(classifyModel(), rng);
    const std::size_t per = classifyServing().max_batch;
    std::vector<Tensor> ref; // the requests the timed phases served
    for (std::size_t i = 0;
         i < std::max(kClassifyBlocks * per, kClassifyOpenDistinct); ++i)
        ref.push_back(ref_model->forward(pool[i], 1, pool[i].size()));
    const std::size_t classes = classifyModel().classes;
    std::size_t mismatched = 0;
    for (const BlockOutput &bo : sat_out)
        for (std::size_t j = 0; j < bo.logits.size(); ++j)
            mismatched += !sameBits(bo.logits[j],
                                    ref[bo.block * per + j].data(), classes);
    for (const Served &sv : open.served)
        if (sv.ok)
            mismatched +=
                !sameBits(sv.logits, ref[sv.pool_index].data(), classes);
    out.note("classify: %zu responses checked against serial forward, "
             "%zu differ",
             open.latency_ms.size() + sat_out.size() * per,
             mismatched);
    out.failed += mismatched;
    return out;
}

// -------------------------------------------------------- decode_stream

namespace {

struct DecodeRig
{
    std::unique_ptr<CausalGenerator> gen;
    std::unique_ptr<serve::GenerationEngine> engine;
    std::vector<double> setup_s;
};

/** One prompt's stream: token times stamped by the engine's callback. */
struct TokenStream
{
    std::size_t pool_index = 0;
    Clock::time_point due;
    std::vector<Clock::time_point> stamps;
    std::vector<int> tokens;
    bool ok = false;
};

struct DecodeRun
{
    std::vector<TokenStream> streams;
    std::vector<double> late_ms;
    std::size_t failed = 0;
    double seconds = 0.0;
};

/**
 * Submit @p which[i] at offset @p at[i] (all zero = saturated) and wait
 * for every stream. The token callback runs on the engine's scheduler
 * thread and only appends to its own stream's stamps; the client reads
 * them after the future resolved.
 */
DecodeRun
decodeRun(serve::GenerationEngine &eng, const Requests &pool,
          const std::vector<double> &at,
          const std::vector<std::size_t> &which, Trace &trace,
          const char *phase)
{
    DecodeRun r;
    r.streams.resize(at.size());
    std::vector<std::future<std::vector<int>>> futs(at.size());
    std::vector<std::int64_t> spans(at.size(), -1);
    const Clock::time_point t0 =
        Clock::now() + std::chrono::milliseconds(1);
    const std::int64_t phase_span = trace.open(phase, t0);
    std::size_t next_get = 0;
    auto drain_ready = [&](bool block) {
        while (next_get < at.size() && futs[next_get].valid() &&
               (block || ready(futs[next_get]))) {
            TokenStream &s = r.streams[next_get];
            try {
                s.tokens = futs[next_get].get();
                s.ok = s.tokens.size() == kDecodeNewTokens &&
                       s.stamps.size() == kDecodeNewTokens;
            } catch (const std::exception &) {
            }
            r.failed += !s.ok;
            if (!s.stamps.empty())
                trace.finish(spans[next_get], s.stamps.back());
            ++next_get;
        }
    };
    for (std::size_t i = 0; i < at.size(); ++i) {
        TokenStream &s = r.streams[i];
        s.pool_index = which[i];
        s.stamps.reserve(kDecodeNewTokens);
        s.due = t0 + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(at[i]));
        while (Clock::now() < s.due) {
            drain_ready(false);
            std::this_thread::yield();
        }
        const Clock::time_point s0 = Clock::now();
        r.late_ms.push_back(msBetween(s.due, s0));
        spans[i] = trace.open("decode.request", s.due, phase_span,
                              static_cast<std::int64_t>(i));
        try {
            futs[i] = eng.submit(
                pool[which[i]], kDecodeNewTokens, serve::kNoDeadline,
                [&s](int) { s.stamps.push_back(Clock::now()); });
            trace.record("gen.submit", s0, Clock::now(), spans[i],
                         static_cast<std::int64_t>(i));
        } catch (const std::exception &) {
            trace.finish(spans[i], Clock::now());
        }
    }
    // Futures resolve roughly in arrival order; a failed submit left an
    // invalid future, which counts once here.
    for (; next_get < at.size();) {
        if (!futs[next_get].valid()) {
            ++r.failed;
            ++next_get;
            continue;
        }
        drain_ready(true);
    }
    const Clock::time_point t1 = Clock::now();
    trace.finish(phase_span, t1);
    r.seconds = secondsBetween(t0, t1);
    return r;
}

/** Saturated decode: this many fixed groups of max_live prompts (the
 *  head of the pool). */
constexpr std::size_t kSatGroups = 2;
/** The decode open loop draws its arrivals from this many distinct
 *  prompts, so each (prompt, token) gap repeats often enough for a
 *  best time. */
constexpr std::size_t kDecodeOpenDistinct = 8;

void
setUpDecode(DecodeRig &rig, std::uint64_t seed, const Requests &pool,
            int reps)
{
    std::vector<std::size_t> warm(2 * decodeServing().max_live);
    for (std::size_t i = 0; i < warm.size(); ++i)
        warm[i] = i;
    const std::vector<double> at(warm.size(), 0.0);
    Trace off(false);
    for (int rep = 0; rep < reps; ++rep) {
        rig.engine.reset();
        rig.gen.reset();
        runtime::resetTuneCacheForTest();
        const Clock::time_point t0 = Clock::now();
        Rng rng(weightSeed(seed));
        rig.gen = buildGenerator(decodeModel(), rng);
        rig.engine = std::make_unique<serve::GenerationEngine>(
            *rig.gen, decodeServing());
        decodeRun(*rig.engine, pool, at, warm, off, "decode.warmup");
        rig.setup_s.push_back(secondsBetween(t0, Clock::now()));
    }
}

/** Greedy recompute of one prompt by full causal forward passes. */
std::vector<int>
greedyRecompute(CausalGenerator &gen, std::vector<int> seq)
{
    std::vector<int> out;
    for (std::size_t k = 0; k < kDecodeNewTokens; ++k) {
        const Tensor logits = gen.forwardFull({seq});
        const int tok = nn::argmaxRows(logits)[0];
        out.push_back(tok);
        seq.push_back(tok);
    }
    return out;
}

} // namespace

Outcome
runDecodeStream(const RunConfig &cfg, Trace &trace)
{
    Outcome out;
    const Requests pool = decodePool(cfg.seed);
    DecodeRig rig;
    setUpDecode(rig, cfg.seed, pool, cfg.setup_reps);
    reportSetup(out, rig.setup_s);
    serve::GenerationEngine &eng = *rig.engine;

    const double sat_s = 0.5 * cfg.seconds;
    const double open_s = 0.5 * cfg.seconds;

    // Saturated: kSatGroups fixed groups of max_live prompts, all due at
    // t=0, passed over repeatedly; the best time of each group.
    const std::size_t per = decodeServing().max_live;
    std::vector<std::vector<std::size_t>> groups(kSatGroups);
    std::vector<double> group_at(per, 0.0);
    for (std::size_t g = 0; g < kSatGroups; ++g)
        for (std::size_t i = 0; i < per; ++i)
            groups[g].push_back(g * per + i);
    BestTimes sat(kSatGroups);
    std::vector<DecodeRun> runs;

    // The open loop: Poisson prompt arrivals at the fixed rate. Like
    // classify, the two phases alternate in kSegments segments.
    const auto at = poissonSchedule(streamSeed(cfg.seed, kInDecodeOpen),
                                    kDecodePromptsPerS, open_s);
    const auto which = pickIndices(streamSeed(cfg.seed, kInDecodeOpen + 100),
                                   at.size(), kDecodeOpenDistinct);
    DecodeRun open;
    std::size_t steps = 0, decode_tokens = 0, prefill_batches = 0,
                prompts = 0;
    for (std::size_t k = 0, next = 0; k < kSegments; ++k) {
        {
            TuneGuard guard("decode.saturated");
            const Clock::time_point end =
                Clock::now() +
                std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(sat_s / kSegments));
            while (sat.minReps() < kMinBestReps || Clock::now() < end)
                for (std::size_t g = 0; g < kSatGroups; ++g) {
                    runs.push_back(decodeRun(eng, pool, group_at, groups[g],
                                             trace, "decode.saturated"));
                    sat.add(g, runs.back().seconds);
                }
            guard.check(out);
        }
        const double from = open_s * static_cast<double>(k) / kSegments;
        const double to = open_s * static_cast<double>(k + 1) / kSegments;
        std::vector<double> seg_at;
        std::vector<std::size_t> seg_which;
        for (; next < at.size() && at[next] < to; ++next) {
            seg_at.push_back(at[next] - from);
            seg_which.push_back(which[next]);
        }
        const serve::GenerationStats g0 = eng.stats();
        TuneGuard guard("decode.open");
        DecodeRun part =
            decodeRun(eng, pool, seg_at, seg_which, trace, "decode.open");
        guard.check(out);
        const serve::GenerationStats g1 = eng.stats();
        steps += g1.steps - g0.steps;
        decode_tokens += g1.decode_tokens - g0.decode_tokens;
        prefill_batches += g1.prefill_batches - g0.prefill_batches;
        prompts += g1.requests - g0.requests;
        out.serve_failures += (g1.rejected - g0.rejected) +
                              (g1.expired_in_queue - g0.expired_in_queue) +
                              (g1.expired_mid_decode - g0.expired_mid_decode) +
                              (g1.model_faults - g0.model_faults) +
                              (g1.isolation_retries - g0.isolation_retries);
        append(open.streams, part.streams);
        append(open.late_ms, part.late_ms);
        open.failed += part.failed;
    }
    requireReps(out, "decode.saturated", sat);
    out.metrics.set("peak_rss_mb", peakRssMb(), "MiB");
    const double avg_live =
        steps > 0 ? static_cast<double>(decode_tokens) /
                        static_cast<double>(steps)
                  : 0.0;
    out.layer.set("gen.avg_live", avg_live, "count");
    out.layer.set("gen.prefill_per_prompt",
                  static_cast<double>(prefill_batches) /
                      static_cast<double>(std::max<std::size_t>(prompts, 1)),
                  "ratio");

    // Gap k of a stream of prompt p is one operation, repeated by every
    // arrival of p; each operation's best gap.
    std::vector<double> ttft, itl;
    BestTimes gap_best(kDecodeOpenDistinct * (kDecodeNewTokens - 1));
    for (const TokenStream &st : open.streams) {
        if (!st.ok)
            continue;
        ttft.push_back(msBetween(st.due, st.stamps.front()));
        for (std::size_t k = 1; k < st.stamps.size(); ++k) {
            itl.push_back(msBetween(st.stamps[k - 1], st.stamps[k]));
            gap_best.add(st.pool_index * (kDecodeNewTokens - 1) + k - 1,
                         itl.back());
        }
    }
    requireReps(out, "decode.open", gap_best);
    out.attempted += open.streams.size();
    out.failed += open.failed;
    for (const DecodeRun &r : runs) {
        out.attempted += r.streams.size();
        out.failed += r.failed;
    }
    out.metrics.set("throughput_per_s",
                    static_cast<double>(kSatGroups * per * kDecodeNewTokens) /
                        sat.sum(),
                    "1/s");
    out.metrics.set("latency_ms", gap_best.median(), "ms");
    noteSpread(out, "decode.open inter-token gap", itl, 99);
    noteLateness(out, "decode.open", open.late_ms);
    if (supportsPercentile(ttft.size(), 90))
        out.note("decode: time to first token p50 %.3f ms, p90 %.3f ms "
                 "(%zu prompts)",
                 percentile(ttft, 50), percentile(ttft, 90), ttft.size());
    out.note("decode: saturated %zu passes x %zu groups of %zu prompts; "
             "open %zu prompts, %zu gaps, avg live %.2f, prefill batches %zu",
             sat.minReps(), sat.ops(), per, ttft.size(), itl.size(), avg_live,
             prefill_batches);
    if (!ttft.empty())
        out.latency_p50_ms = percentile(ttft, 50);

    // Output check: a seeded sample of prompts recomputed greedily by
    // full causal forwards; every served stream of a sampled prompt,
    // saturated or open, must equal its recompute.
    runs.push_back(std::move(open));
    rig.engine.reset();
    Rng rng(weightSeed(cfg.seed));
    auto ref = buildGenerator(decodeModel(), rng);
    constexpr std::size_t kSample = 8;
    const auto sample = pickIndices(streamSeed(cfg.seed, kInDecodeSample),
                                    kSample, kSatGroups * per);
    std::size_t checked = 0, mismatched = 0;
    for (std::size_t p : sample) {
        const std::vector<int> want = greedyRecompute(*ref, pool[p]);
        for (const DecodeRun &r : runs)
            for (const TokenStream &s : r.streams)
                if (s.ok && s.pool_index == p) {
                    ++checked;
                    mismatched += s.tokens != want;
                }
    }
    out.note("decode: %zu streams of %zu sampled prompts checked against "
             "greedy recompute, %zu differ",
             checked, kSample, mismatched);
    out.failed += mismatched;
    return out;
}

// --------------------------------------------------------- long_context

namespace {

/** A long-context model behind its one-in-flight engine. */
struct LongServed
{
    std::unique_ptr<SequenceClassifier> model;
    std::unique_ptr<serve::ServingEngine> engine;
};

LongServed
serveLong(const ModelConfig &cfg, std::uint64_t seed,
          const std::vector<int> &warmup)
{
    LongServed s;
    Rng rng(weightSeed(seed));
    s.model = buildModel(cfg, rng);
    s.engine = std::make_unique<serve::ServingEngine>(*s.model,
                                                      longServing());
    // Every request length of a case shares one row bucket, so one
    // warm-up request covers the model's tuning searches.
    s.engine->submit(warmup).get();
    return s;
}

} // namespace

Outcome
runLongContext(const RunConfig &cfg, Trace &trace)
{
    Outcome out;
    const std::vector<LongCase> cases = longCases(cfg.seed);
    std::vector<LongServed> bfly;
    std::vector<double> setup_s;
    for (int rep = 0; rep < cfg.setup_reps; ++rep) {
        bfly.clear();
        runtime::resetTuneCacheForTest();
        const Clock::time_point t0 = Clock::now();
        for (const LongCase &c : cases)
            bfly.push_back(
                serveLong(c.butterfly, cfg.seed, c.requests.front()));
        setup_s.push_back(secondsBetween(t0, Clock::now()));
    }
    reportSetup(out, setup_s);

    // Closed loop, one request in flight: each round sends one request
    // of every length (1k, 2k, 4k) to the butterfly-attention model.
    struct Response
    {
        std::size_t c, r;
        std::vector<float> logits;
    };
    std::vector<Response> responses;
    std::vector<double> latency_ms;
    // One operation per distinct request: case c, request r.
    BestTimes best(cases.size() * kLongPerLength);
    double distinct_tokens = 0.0;
    for (const LongCase &c : cases)
        for (const auto &req : c.requests)
            distinct_tokens += static_cast<double>(req.size());
    std::size_t rounds = 0;
    {
        TuneGuard guard("long.closed_loop");
        const Clock::time_point end =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(cfg.seconds));
        std::int64_t request_id = 0;
        for (; best.minReps() < kMinBestReps || Clock::now() < end;
             ++rounds) {
            const Clock::time_point r0 = Clock::now();
            const std::int64_t round_span = trace.open("long.round", r0);
            for (std::size_t c = 0; c < cases.size(); ++c) {
                const std::size_t r = rounds % kLongPerLength;
                const auto &req = cases[c].requests[r];
                const Clock::time_point t0 = Clock::now();
                const std::int64_t span = trace.open(
                    "long.request", t0, round_span, request_id);
                ++out.attempted;
                try {
                    auto fut = bfly[c].engine->submit(req);
                    trace.record("serve.submit", t0, Clock::now(), span,
                                 request_id);
                    responses.push_back({c, r, fut.get()});
                } catch (const std::exception &) {
                    ++out.failed;
                }
                const Clock::time_point t1 = Clock::now();
                trace.finish(span, t1);
                latency_ms.push_back(msBetween(t0, t1));
                best.add(c * kLongPerLength + r, secondsBetween(t0, t1));
                ++request_id;
            }
            trace.finish(round_span, Clock::now());
        }
        guard.check(out);
    }
    out.metrics.set("peak_rss_mb", peakRssMb(), "MiB");
    requireReps(out, "long.closed_loop", best);
    out.metrics.set("throughput_per_s", distinct_tokens / best.sum(), "1/s");
    out.metrics.set("latency_ms", 1e3 * best.median(), "ms");
    noteSpread(out, "long request latency", latency_ms, 90);
    out.note("long: %zu closed-loop rounds of %zu requests (butterfly "
             "attention), each of %zu distinct requests (%.0f tokens) "
             "served at least %zu times",
             rounds, cases.size(), best.ops(), distinct_tokens,
             best.minReps());

    // Output checks, clock stopped: every butterfly response bitwise
    // equal to the serial forward of an identically seeded model; one
    // request per length also served by the dense-attention model and
    // checked the same way. Butterfly-vs-dense argmax agreement is
    // information, not a check.
    bfly.clear();
    std::size_t mismatched = 0, agree = 0;
    for (std::size_t c = 0; c < cases.size(); ++c) {
        const std::size_t classes = cases[c].butterfly.classes;
        Rng rb(weightSeed(cfg.seed));
        auto bref = buildModel(cases[c].butterfly, rb);
        std::vector<Tensor> ref;
        for (const auto &req : cases[c].requests)
            ref.push_back(bref->forward(req, 1, req.size()));
        for (const Response &rsp : responses)
            if (rsp.c == c)
                mismatched +=
                    !sameBits(rsp.logits, ref[rsp.r].data(), classes);

        const auto &req = cases[c].requests.front();
        ++out.attempted;
        std::vector<float> dense_out;
        {
            LongServed dense = serveLong(cases[c].dense, cfg.seed, req);
            dense_out = dense.engine->submit(req).get();
        }
        Rng rd(weightSeed(cfg.seed));
        auto dref = buildModel(cases[c].dense, rd);
        const Tensor dlog = dref->forward(req, 1, req.size());
        mismatched += !sameBits(dense_out, dlog.data(), classes);
        agree += nn::argmaxRows(dlog) == nn::argmaxRows(ref.front());
    }
    out.note("long: %zu butterfly + %zu dense responses checked against "
             "serial forward, %zu differ; butterfly and dense argmax "
             "agree on %zu of %zu (information only)",
             responses.size(), cases.size(), mismatched, agree,
             cases.size());
    out.failed += mismatched;
    return out;
}

// ------------------------------------------------------------ train_step

Outcome
runTrainStep(const RunConfig &cfg, Trace &trace)
{
    Outcome out;
    const auto batches = trainBatches(cfg.seed);
    std::unique_ptr<SequenceClassifier> model;
    std::unique_ptr<nn::Adam> opt;
    std::vector<double> setup_s;
    std::vector<float> losses;
    for (int rep = 0; rep < cfg.setup_reps; ++rep) {
        opt.reset();
        model.reset();
        runtime::resetTuneCacheForTest();
        const Clock::time_point t0 = Clock::now();
        Rng rng(weightSeed(cfg.seed));
        model = buildModel(trainModel(), rng);
        opt = std::make_unique<nn::Adam>(model->params());
        losses.assign(1, model->trainBatch(batches[0], *opt));
        setup_s.push_back(secondsBetween(t0, Clock::now()));
    }
    reportSetup(out, setup_s);
    ++out.attempted;

    // One operation per training batch; steps cycle through them.
    BestTimes best(batches.size());
    std::vector<double> step_ms;
    {
        TuneGuard guard("train.steps");
        const Clock::time_point end =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(cfg.seconds));
        for (std::size_t s = 1;
             best.minReps() < kMinBestReps || Clock::now() < end; ++s) {
            const Clock::time_point t0 = Clock::now();
            float loss = 0.0f;
            ++out.attempted;
            try {
                loss = model->trainBatch(batches[s % batches.size()], *opt);
            } catch (const std::exception &) {
                ++out.failed;
            }
            const Clock::time_point t1 = Clock::now();
            const std::int64_t span = trace.record(
                "train.step", t0, t1, -1, static_cast<std::int64_t>(s));
            trace.record("model.trainBatch", t0, t1, span,
                         static_cast<std::int64_t>(s));
            best.add(s % batches.size(), secondsBetween(t0, t1));
            step_ms.push_back(msBetween(t0, t1));
            if (!std::isfinite(loss))
                ++out.failed;
            if (losses.size() < 2)
                losses.push_back(loss);
        }
        guard.check(out);
    }
    out.metrics.set("peak_rss_mb", peakRssMb(), "MiB");
    requireReps(out, "train.steps", best);
    out.metrics.set("throughput_per_s",
                    static_cast<double>(kTrainBatch * best.ops()) /
                        best.sum(),
                    "1/s");
    out.metrics.set("latency_ms", 1e3 * best.median(), "ms");
    noteSpread(out, "train step", step_ms, 90);
    out.note("train: %zu timed steps of %zu x %zu tokens", step_ms.size(),
             kTrainBatch, kTrainSeq);

    // Output check: the first two losses (the second one depends on the
    // first step's gradients and Adam update) equal the reference
    // backward's on an identically seeded model, bit for bit.
    Rng rng(weightSeed(cfg.seed));
    auto ref = buildModel(trainModel(), rng);
    nn::Adam ref_opt(ref->params());
    const float r0 = ref->trainBatchReference(batches[0], ref_opt);
    const float r1 = ref->trainBatchReference(batches[1], ref_opt);
    const bool ok = losses.size() == 2 &&
                    std::memcmp(&losses[0], &r0, sizeof r0) == 0 &&
                    std::memcmp(&losses[1], &r1, sizeof r1) == 0;
    out.note("train: losses %.9g %.9g vs reference %.9g %.9g (%s)",
             losses.empty() ? 0.0 : losses[0],
             losses.size() < 2 ? 0.0 : losses[1], r0, r1,
             ok ? "bitwise equal" : "DIFFER");
    out.failed += !ok;
    return out;
}

} // namespace fabbench
