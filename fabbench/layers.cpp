/**
 * @file layers.cpp
 * The traced run's layer pass. Spans are recorded here, in the
 * benchmark, around calls into each layer's public functions:
 *
 *  - serve:     engine counters of short traced open-loop phases;
 *  - model:     forwardBatch / prefill / decodeStep / trainBatch on
 *               each workload's own inputs;
 *  - nn:        the standalone layers of each workload's config, fed
 *               the same RowSets, chained under one parent span whose
 *               children's self times give the per-layer times;
 *  - butterfly: ButterflyLinear::applyBatch at the paper's shapes;
 *  - tensor / runtime: ops::matmul, an almost-empty parallelFor and
 *               the autotuner's first-call cost.
 */
#include <map>
#include <memory>

#include "bench.h"
#include "inputs.h"
#include "model/builder.h"
#include "model/flops.h"
#include "model/generator.h"
#include "nn/attention.h"
#include "nn/basic_layers.h"
#include "nn/block.h"
#include "nn/dense.h"
#include "nn/embedding.h"
#include "nn/optimizer.h"
#include "runtime/autotune.h"
#include "runtime/parallel.h"
#include "tensor/ops.h"

namespace fabbench {

using namespace fabnet;

namespace {

/** Seconds the serve probes give each open-loop phase. */
constexpr double kProbeSeconds = 5.0;

/** Time one call as a span; returns its milliseconds. */
template <class F>
double
timed(Trace &tr, const char *name, std::int64_t parent, std::int64_t req,
      F &&f)
{
    const Clock::time_point t0 = Clock::now();
    f();
    const Clock::time_point t1 = Clock::now();
    tr.record(name, t0, t1, parent, req);
    return msBetween(t0, t1);
}

/** Median of @p reps timed calls after one untimed warm-up call. */
template <class F>
double
medianMs(Trace &tr, const char *name, int reps, F &&f)
{
    f(0);
    std::vector<double> ms;
    for (int r = 0; r < reps; ++r)
        ms.push_back(timed(tr, name, -1, r, [&] { f(r); }));
    return median(ms);
}

/** One chain run's parent spans, by the tag its metrics carry. */
struct ChainReps
{
    const char *tag;
    std::vector<std::int64_t> spans; ///< one parent span per rep
    double model_ms = 0.0;           ///< median of the paired model span
};

/**
 * The model entry point and the standalone layer chain on the same
 * inputs, interleaved call by call so both medians see the same
 * machine; @p chain records the chain's parent spans and the model
 * median. Rep -1 warms both up untimed.
 */
template <class ModelCall, class ChainCall>
ChainReps
pairedReps(Trace &tr, const char *tag, const char *model_span, int reps,
           ModelCall &&model_call, ChainCall &&chain_call)
{
    ChainReps c{tag, {}, 0.0};
    std::vector<double> ms;
    for (int r = -1; r < reps; ++r) {
        const int i = r < 0 ? 0 : r;
        const double t = timed(tr, model_span, -1, r, [&] { model_call(i); });
        const std::int64_t span = tr.open("nn.chain", Clock::now(), -1, r);
        chain_call(i, span);
        tr.finish(span, Clock::now());
        if (r >= 0) {
            ms.push_back(t);
            c.spans.push_back(span);
        }
    }
    c.model_ms = median(ms);
    return c;
}

/** A padded classify batch of pool requests [first, first + b). */
struct PaddedBatch
{
    std::vector<int> tokens;
    std::vector<std::size_t> lens;
    std::size_t batch = 0, seq = 0;
};

PaddedBatch
padBatch(const Requests &pool, std::size_t first, std::size_t b,
         std::size_t granularity)
{
    PaddedBatch p;
    p.batch = b;
    for (std::size_t i = 0; i < b; ++i) {
        const auto &r = pool[(first + i) % pool.size()];
        p.lens.push_back(r.size());
        p.seq = std::max(p.seq, r.size());
    }
    p.seq = (p.seq + granularity - 1) / granularity * granularity;
    p.tokens.assign(b * p.seq, 0);
    for (std::size_t i = 0; i < b; ++i) {
        const auto &r = pool[(first + i) % pool.size()];
        std::copy(r.begin(), r.end(), p.tokens.begin() + i * p.seq);
    }
    return p;
}

double
batchFlops(const ModelConfig &cfg, const std::vector<std::size_t> &lens)
{
    double f = 0.0;
    for (std::size_t L : lens)
        f += modelFlops(cfg, L).total();
    return f;
}

// ------------------------------------------------------------ nn chain

std::unique_ptr<nn::Layer>
linear(const ModelConfig &cfg, std::size_t in, std::size_t out, Rng &rng)
{
    if (cfg.kind == ModelKind::FABNet)
        return std::make_unique<nn::ButterflyDense>(in, out, rng);
    return std::make_unique<nn::Dense>(in, out, rng);
}

/**
 * The public layers of one attention-mixer encoder model, standalone:
 * embedding, per block attention + LayerNorm + FFN + LayerNorm, and
 * the classifier (or, for the causal LM, a Dense vocabulary) head.
 */
struct Chain
{
    struct Block
    {
        std::unique_ptr<nn::MultiHeadAttention> attn;
        std::unique_ptr<nn::FeedForward> ffn;
        std::unique_ptr<nn::LayerNorm> ln1, ln2;
        std::vector<nn::KVCache> caches; ///< causal prefill / step
    };

    Chain(const ModelConfig &cfg, std::uint64_t seed)
        : cfg(cfg), rng(seed), emb(cfg.vocab, cfg.max_seq, cfg.d_hid, rng),
          pool_head(cfg.d_hid, cfg.classes, rng),
          lm_head(cfg.d_hid, cfg.vocab, rng)
    {
        const std::size_t d = cfg.d_hid;
        for (std::size_t i = 0; i < cfg.n_total; ++i) {
            Block b;
            b.attn = std::make_unique<nn::MultiHeadAttention>(
                d, cfg.heads, linear(cfg, d, d, rng),
                linear(cfg, d, d, rng), linear(cfg, d, d, rng),
                linear(cfg, d, d, rng), cfg.causal);
            b.attn->setSparse(cfg.attn_sparse);
            b.ffn = std::make_unique<nn::FeedForward>(
                linear(cfg, d, cfg.ffnHidden(), rng),
                std::make_unique<nn::Gelu>(),
                linear(cfg, cfg.ffnHidden(), d, rng));
            b.ln1 = std::make_unique<nn::LayerNorm>(d);
            b.ln2 = std::make_unique<nn::LayerNorm>(d);
            blocks.push_back(std::move(b));
        }
    }

    std::vector<nn::ParamRef> params()
    {
        std::vector<nn::ParamRef> ps;
        emb.collectParams(ps);
        for (auto &b : blocks) {
            b.attn->collectParams(ps);
            b.ffn->collectParams(ps);
            b.ln1->collectParams(ps);
            b.ln2->collectParams(ps);
        }
        pool_head.collectParams(ps);
        return ps;
    }

    ModelConfig cfg;
    Rng rng;
    nn::Embedding emb;
    std::vector<Block> blocks;
    nn::MeanPoolClassifier pool_head;
    nn::Dense lm_head;
};

void
addInto(Tensor &a, const Tensor &b)
{
    float *pa = a.data();
    const float *pb = b.data();
    for (std::size_t i = 0; i < a.size(); ++i)
        pa[i] += pb[i];
}

/** Inference through the chain on a RowSet (prefill when causal),
 *  every layer call a child span of @p parent. */
void
chainForward(Chain &c, Trace &tr, std::int64_t parent, std::int64_t req,
             const std::vector<int> &tokens, const nn::RowSet &rows)
{
    Tensor x;
    timed(tr, "nn.embedding", parent, req,
          [&] { x = c.emb.forwardRows(tokens, rows); });
    for (auto &b : c.blocks) {
        Tensor a;
        if (c.cfg.causal) {
            b.caches.assign(rows.batch(), nn::KVCache());
            nn::StepState st;
            for (auto &kv : b.caches)
                st.caches.push_back(&kv);
            st.positions.assign(rows.batch(), 0);
            timed(tr, "nn.attention", parent, req,
                  [&] { a = b.attn->forwardPrefill(x, rows, st); });
        } else {
            timed(tr, "nn.attention", parent, req,
                  [&] { a = b.attn->forwardRows(x, rows); });
        }
        addInto(a, x);
        Tensor h, f;
        timed(tr, "nn.layernorm", parent, req,
              [&] { h = b.ln1->forwardRows(a, rows); });
        timed(tr, "nn.ffn", parent, req,
              [&] { f = b.ffn->forwardRows(h, rows); });
        addInto(f, h);
        timed(tr, "nn.layernorm", parent, req,
              [&] { x = b.ln2->forwardRows(f, rows); });
    }
    if (c.cfg.causal) {
        // The LM head sees each sequence's last row, as decode does.
        const std::size_t n = rows.batch(), d = c.cfg.d_hid;
        Tensor last = Tensor::zeros(n, 1, d);
        for (std::size_t i = 0; i < n; ++i)
            std::copy_n(x.data() + (i * rows.seq() + rows.len(i) - 1) * d,
                        d, last.data() + i * d);
        const nn::RowSet one(n, 1, std::vector<std::size_t>(n, 1));
        timed(tr, "nn.head", parent, req,
              [&] { c.lm_head.forwardRows(last, one); });
    } else {
        timed(tr, "nn.head", parent, req,
              [&] { c.pool_head.forwardMasked(x, rows.lens()); });
    }
}

/** One training step through the chain: forward with caches, loss,
 *  backward, clipping and Adam, layer calls as child spans. */
void
chainTrain(Chain &c, nn::Adam &opt, Trace &tr, std::int64_t parent,
           std::int64_t req, const Batch &batch)
{
    auto ps = c.params();
    nn::zeroGrads(ps);
    Tensor x;
    timed(tr, "nn.embedding", parent, req,
          [&] { x = c.emb.forward(batch.tokens, batch.batch, batch.seq); });
    for (auto &b : c.blocks) {
        Tensor a, h, f;
        timed(tr, "nn.attention", parent, req,
              [&] { a = b.attn->forward(x); });
        addInto(a, x);
        timed(tr, "nn.layernorm", parent, req,
              [&] { h = b.ln1->forward(a); });
        timed(tr, "nn.ffn", parent, req, [&] { f = b.ffn->forward(h); });
        addInto(f, h);
        timed(tr, "nn.layernorm", parent, req,
              [&] { x = b.ln2->forward(f); });
    }
    Tensor logits, g;
    timed(tr, "nn.head", parent, req,
          [&] { logits = c.pool_head.forward(x); });
    nn::softmaxCrossEntropy(logits, batch.labels, g);
    timed(tr, "nn.head", parent, req, [&] { g = c.pool_head.backward(g); });
    for (std::size_t i = c.blocks.size(); i-- > 0;) {
        auto &b = c.blocks[i];
        Tensor g_hf, g_h, g_xa, g_x;
        timed(tr, "nn.layernorm", parent, req,
              [&] { g_hf = b.ln2->backward(g); });
        timed(tr, "nn.ffn", parent, req, [&] { g_h = b.ffn->backward(g_hf); });
        addInto(g_h, g_hf);
        timed(tr, "nn.layernorm", parent, req,
              [&] { g_xa = b.ln1->backward(g_h); });
        timed(tr, "nn.attention", parent, req,
              [&] { g_x = b.attn->backward(g_xa); });
        addInto(g_x, g_xa);
        g = std::move(g_x);
    }
    timed(tr, "nn.embedding", parent, req, [&] { c.emb.backward(g); });
    nn::clipGradNorm(ps, 1.0f);
    timed(tr, "nn.adam", parent, req, [&] { opt.step(); });
}

/** Layer metrics of one tag: the median over reps of each layer's
 *  summed self time, and their sum over the model span. */
void
reportChain(Outcome &out, const ChainReps &c,
            const std::vector<Span> &spans,
            const std::vector<double> &self_us)
{
    std::map<std::int64_t, std::size_t> rep_of;
    for (std::size_t r = 0; r < c.spans.size(); ++r)
        rep_of[c.spans[r]] = r;
    std::map<std::string, std::vector<double>> per_layer;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const auto it = rep_of.find(spans[i].parent);
        if (it == rep_of.end())
            continue;
        auto &v = per_layer[spans[i].name];
        v.resize(c.spans.size(), 0.0);
        v[it->second] += 1e-3 * self_us[i];
    }
    std::vector<double> layer_ms;
    for (const auto &[name, v] : per_layer) {
        const std::string layer = name.substr(3); // drop "nn."
        layer_ms.push_back(median(v));
        out.metrics.set("nn." + layer + "_ms." + c.tag, layer_ms.back(),
                        "ms");
    }
    const double ratio = layerSumRatio(layer_ms, c.model_ms);
    out.metrics.set(std::string("nn.layer_sum_ratio.") + c.tag, ratio,
                    "ratio");
    ++out.attempted;
    if (!layerSumWithinTolerance(ratio)) {
        ++out.failed;
        out.note("nn.layer_sum_ratio.%s = %.3f is outside [%.2f, %.2f]",
                 c.tag, ratio, kLayerSumLo, kLayerSumHi);
    }
}

} // namespace

Outcome
runLayerPass(std::uint64_t seed, Trace &trace)
{
    Outcome out;
    Metrics &m = out.metrics;

    // Each section runs at the pool size of the workload it replays.
    const std::size_t small_pool = poolThreads("classify_open");
    const std::size_t large_pool = poolThreads("long_context");
    runtime::setNumThreads(small_pool);

    // serve / gen: engine counters of short traced open-loop phases.
    RunConfig probe;
    probe.seed = seed;
    probe.seconds = kProbeSeconds;
    probe.setup_reps = 1;
    const Outcome lo = runClassify(probe, kClassifyRps, trace);
    const Outcome hi = runClassify(probe, kClassifyBatchingRps, trace);
    const Outcome dec = runDecodeStream(probe, trace);
    for (const Outcome *o : {&lo, &hi, &dec}) {
        out.attempted += o->attempted;
        out.failed += o->failed;
    }
    m.set("serve.avg_batch", hi.layer.get("serve.avg_batch"), "count");
    m.set("serve.pad_share", hi.layer.get("serve.pad_share"), "ratio");
    m.set("serve.timeout_flush_share",
          lo.layer.get("serve.timeout_flush_share"), "ratio");
    m.set("serve.submit_us_p50", lo.layer.get("serve.submit_us_p50"), "us");
    m.set("gen.avg_live", dec.layer.get("gen.avg_live"), "count");
    m.set("gen.prefill_per_prompt", dec.layer.get("gen.prefill_per_prompt"),
          "ratio");
    m.set("serve.failed",
          static_cast<double>(lo.serve_failures + hi.serve_failures +
                              dec.serve_failures),
          "count");

    std::vector<ChainReps> chains;

    // ------------------------------------------------ classify model
    {
        const ModelConfig cfg = classifyModel();
        const Requests pool = classifyPool(seed);
        const std::size_t gran = classifyServing().bucket_granularity;
        std::vector<double> builds;
        std::unique_ptr<SequenceClassifier> model;
        for (int r = 0; r < 3; ++r) {
            const Clock::time_point t0 = Clock::now();
            Rng rng(weightSeed(seed));
            model = buildModel(cfg, rng);
            builds.push_back(secondsBetween(t0, Clock::now()));
        }
        m.set("model.build_s.classify", median(builds), "s");
        auto batches = [&](std::size_t b, int reps) {
            std::vector<PaddedBatch> out;
            for (int r = 0; r < reps; ++r)
                out.push_back(padBatch(pool, r * b, b, gran));
            return out;
        };
        for (const std::size_t b : {1, 4}) {
            const auto bs = batches(b, 32 / static_cast<int>(b) + 8);
            const std::string name = "model.forward_ms.b" + std::to_string(b);
            m.set(name,
                  medianMs(trace, "model.forwardBatch",
                           static_cast<int>(bs.size()), [&](int r) {
                               const PaddedBatch &p = bs[r];
                               model->forwardBatch(p.tokens, p.batch, p.seq,
                                                   p.lens);
                           }),
                  "ms");
        }
        m.set("serve.wait_ms_p50",
              lo.latency_p50_ms - m.get("model.forward_ms.b1"), "ms");

        const auto b16 = batches(16, 16);
        Chain c(cfg, weightSeed(seed));
        chains.push_back(pairedReps(
            trace, "classify", "model.forwardBatch",
            static_cast<int>(b16.size()),
            [&](int r) {
                const PaddedBatch &p = b16[r];
                model->forwardBatch(p.tokens, p.batch, p.seq, p.lens);
            },
            [&](int r, std::int64_t span) {
                const PaddedBatch &p = b16[r];
                chainForward(c, trace, span, r, p.tokens,
                             nn::RowSet(p.batch, p.seq, p.lens));
            }));
        const double ms = chains.back().model_ms;
        m.set("model.forward_ms.b16", ms, "ms");
        std::vector<double> gflops;
        for (const PaddedBatch &p : b16)
            gflops.push_back(batchFlops(cfg, p.lens) / (ms * 1e6));
        m.set("model.gflops.classify", median(gflops), "GFLOP/s");
    }

    // ------------------------------------------------- decode model
    {
        const ModelConfig cfg = decodeModel();
        const Requests pool = decodePool(seed);
        std::vector<double> builds;
        std::unique_ptr<CausalGenerator> gen;
        for (int r = 0; r < 3; ++r) {
            const Clock::time_point t0 = Clock::now();
            Rng rng(weightSeed(seed));
            gen = buildGenerator(cfg, rng);
            builds.push_back(secondsBetween(t0, Clock::now()));
        }
        m.set("model.build_s.decode", median(builds), "s");

        auto prompts = [&](int r, std::size_t n) {
            Requests p;
            for (std::size_t i = 0; i < n; ++i)
                p.push_back(pool[(r * n + i) % pool.size()]);
            return p;
        };
        std::vector<SequenceState> states;
        auto prefill = [&](const Requests &p) {
            states.clear();
            for (std::size_t i = 0; i < p.size(); ++i)
                states.push_back(gen->newState());
            std::vector<SequenceState *> sp;
            for (auto &s : states)
                sp.push_back(&s);
            return gen->prefill(p, sp);
        };
        m.set("model.prefill_ms.b1",
              medianMs(trace, "model.prefill", 24,
                       [&](int r) { prefill(prompts(r, 1)); }),
              "ms");
        m.set("gen.wait_ms_p50",
              dec.latency_p50_ms - m.get("model.prefill_ms.b1"), "ms");

        for (const std::size_t live : {1, 4, 8}) {
            std::vector<double> ms;
            for (int r = 0; r < 3; ++r) {
                std::vector<int> next = nn::argmaxRows(prefill(prompts(r, live)));
                std::vector<SequenceState *> sp;
                for (auto &s : states)
                    sp.push_back(&s);
                for (int k = 0; k < 16; ++k)
                    ms.push_back(timed(
                        trace, "model.decodeStep", -1, r, [&] {
                            next = nn::argmaxRows(gen->decodeStep(next, sp));
                        }));
            }
            m.set("model.step_ms.live" + std::to_string(live), median(ms),
                  "ms");
        }

        Chain c(cfg, weightSeed(seed));
        constexpr int kReps = 16;
        chains.push_back(pairedReps(
            trace, "decode", "model.prefill", kReps,
            [&](int r) { prefill(prompts(r, 8)); },
            [&](int r, std::int64_t span) {
                const Requests p = prompts(r, 8);
                std::vector<std::size_t> lens;
                std::size_t seq = 0;
                for (const auto &q : p) {
                    lens.push_back(q.size());
                    seq = std::max(seq, q.size());
                }
                std::vector<int> flat(p.size() * seq, 0);
                for (std::size_t i = 0; i < p.size(); ++i)
                    std::copy(p[i].begin(), p[i].end(),
                              flat.begin() + i * seq);
                chainForward(c, trace, span, r, flat,
                             nn::RowSet(p.size(), seq, lens));
            }));
        const double ms = chains.back().model_ms;
        m.set("model.prefill_ms.b8", ms, "ms");
        std::vector<double> gflops;
        for (int r = 0; r < kReps; ++r) {
            std::vector<std::size_t> lens;
            for (const auto &p : prompts(r, 8))
                lens.push_back(p.size());
            gflops.push_back(batchFlops(cfg, lens) / (ms * 1e6));
        }
        m.set("model.gflops.decode", median(gflops), "GFLOP/s");

        // One attention decode step at 8 live sequences, on the K/V
        // caches the last prefill chain left in block 0.
        auto &blk = c.blocks.front();
        std::vector<double> step_ms;
        Rng xr(streamSeed(seed, kInProbe));
        const Tensor x = xr.normalTensor({8, 1, cfg.d_hid});
        for (int k = 0; k < 17; ++k) {
            nn::StepState st;
            for (auto &kv : blk.caches) {
                st.caches.push_back(&kv);
                st.positions.push_back(kv.len);
            }
            const double t = timed(trace, "nn.attention_step", -1, k,
                                   [&] { blk.attn->forwardStep(x, st); });
            if (k > 0)
                step_ms.push_back(t);
        }
        m.set("nn.attention_step_ms.live8", median(step_ms), "ms");
    }

    // --------------------------------------------- long-context models
    runtime::setNumThreads(large_pool);
    {
        const std::vector<LongCase> cases = longCases(seed);
        std::vector<double> builds;
        for (int r = 0; r < 3; ++r) {
            const Clock::time_point t0 = Clock::now();
            for (const LongCase &c : cases)
                for (const ModelConfig *cfg : {&c.dense, &c.butterfly}) {
                    Rng rng(weightSeed(seed));
                    buildModel(*cfg, rng);
                }
            builds.push_back(secondsBetween(t0, Clock::now()));
        }
        m.set("model.build_s.long", median(builds), "s");
        for (const LongCase &c : cases) {
            for (const bool bfly : {false, true}) {
                const ModelConfig &cfg = bfly ? c.butterfly : c.dense;
                Rng rng(weightSeed(seed));
                auto model = buildModel(cfg, rng);
                const std::string name =
                    std::string("model.long_ms.") +
                    (bfly ? "butterfly." : "dense.") + std::to_string(c.seq);
                const int reps = bfly ? 6 : 3;
                auto model_call = [&](int r) {
                    const auto &req = c.requests[r % c.requests.size()];
                    model->forwardBatch(req, 1, req.size(), {req.size()});
                };
                if (c.seq != cases.back().seq) {
                    m.set(name, medianMs(trace, "model.forwardBatch", reps,
                                         model_call),
                          "ms");
                    continue;
                }
                // The longest length also carries the layer breakdown.
                Chain ch(cfg, weightSeed(seed));
                chains.push_back(pairedReps(
                    trace, bfly ? "long_butterfly" : "long_dense",
                    "model.forwardBatch", reps, model_call,
                    [&](int r, std::int64_t span) {
                        const auto &req = c.requests[r % c.requests.size()];
                        chainForward(ch, trace, span, r, req,
                                     nn::RowSet(1, req.size(), {req.size()}));
                    }));
                const double ms = chains.back().model_ms;
                m.set(name, ms, "ms");
                if (!bfly)
                    m.set("model.gflops.long_dense",
                          modelFlops(cfg, c.requests.front().size()).total() /
                              (ms * 1e6),
                          "GFLOP/s");
            }
        }
    }

    // ---------------------------------------------------- train model
    {
        const ModelConfig cfg = trainModel();
        const auto batches = trainBatches(seed);
        std::vector<double> builds;
        std::unique_ptr<SequenceClassifier> model;
        std::unique_ptr<nn::Adam> opt;
        for (int r = 0; r < 3; ++r) {
            const Clock::time_point t0 = Clock::now();
            Rng rng(weightSeed(seed));
            model = buildModel(cfg, rng);
            opt = std::make_unique<nn::Adam>(model->params());
            builds.push_back(secondsBetween(t0, Clock::now()));
        }
        m.set("model.build_s.train", median(builds), "s");
        Chain c(cfg, weightSeed(seed));
        nn::Adam copt(c.params());
        chains.push_back(pairedReps(
            trace, "train", "model.trainBatch", 6,
            [&](int r) {
                model->trainBatch(batches[r % batches.size()], *opt);
            },
            [&](int r, std::int64_t span) {
                chainTrain(c, copt, trace, span, r,
                           batches[r % batches.size()]);
            }));
        const double ms = chains.back().model_ms;
        m.set("model.train_batch_ms", ms, "ms");
        m.set("model.gflops.train",
              3.0 * static_cast<double>(kTrainBatch) *
                  modelFlops(cfg, kTrainSeq).total() / (ms * 1e6),
              "GFLOP/s");
    }

    // ------------------------------------------------------- butterfly
    {
        Rng rng(streamSeed(seed, kInProbe));
        const std::size_t shapes[][2] = {{256, 256}, {256, 1024}, {1024, 256}};
        for (const auto &sh : shapes) {
            ButterflyLinear bl(sh[0], sh[1]);
            bl.initRandomRotation(rng);
            for (const std::size_t rows : {8, 256}) {
                const Tensor x = rng.normalTensor({rows, sh[0]});
                const int reps = rows == 8 ? 200 : 40;
                const double ms =
                    medianMs(trace, "butterfly.applyBatch", reps,
                             [&](int) { bl.applyBatch(x); });
                const std::string key = std::to_string(sh[0]) + "x" +
                                        std::to_string(sh[1]) + ".rows" +
                                        std::to_string(rows);
                m.set("butterfly.apply_us." + key, 1e3 * ms, "us");
                m.set("butterfly.gflops." + key,
                      static_cast<double>(rows * bl.flops()) / (ms * 1e6),
                      "GFLOP/s");
            }
        }
    }

    // ------------------------------------------------ tensor / runtime
    {
        const std::size_t n = runtime::numThreads();
        std::vector<double> sink(n, 0.0);
        std::vector<double> per_call_us;
        for (int b = 0; b < 40; ++b) {
            const Clock::time_point t0 = Clock::now();
            for (int i = 0; i < 100; ++i)
                runtime::parallelFor(0, n, 1,
                                     [&](std::size_t a, std::size_t e) {
                                         for (std::size_t j = a; j < e; ++j)
                                             sink[j] += 1.0;
                                     });
            const Clock::time_point t1 = Clock::now();
            trace.record("runtime.parallelFor.x100", t0, t1, -1, b);
            per_call_us.push_back(10.0 * msBetween(t0, t1));
        }
        m.set("runtime.parallel_for_us", median(per_call_us), "us");

        Rng rng(streamSeed(seed, kInProbe) + 1);
        const std::size_t gemms[][3] = {{4096, 64, 64}, {16, 256, 1024}};
        double tune_s = 0.0;
        runtime::resetTuneCacheForTest();
        for (const auto &g : gemms) {
            const Tensor a = rng.normalTensor({g[0], g[1]});
            const Tensor b = rng.normalTensor({g[1], g[2]});
            const double first =
                timed(trace, "tensor.matmul.first", -1, 0,
                      [&] { ops::matmul(a, b); });
            const double ms = medianMs(trace, "tensor.matmul", 20,
                                       [&](int) { ops::matmul(a, b); });
            tune_s += 1e-3 * (first - ms);
            m.set("tensor.matmul_gflops." + std::to_string(g[0]) + "x" +
                      std::to_string(g[1]) + "x" + std::to_string(g[2]),
                  2.0 * static_cast<double>(g[0] * g[1] * g[2]) /
                      (ms * 1e6),
                  "GFLOP/s");
        }
        m.set("runtime.tune_s", tune_s, "s");
    }

    // Per-layer self times: each chain span's children, minus nothing
    // (layer calls do not nest), summed per rep; the chain's own self
    // time is the glue (residual adds, loss, clipping) no layer covers.
    const std::vector<Span> spans = trace.spans();
    const std::vector<double> self_us = selfTimesUs(spans);
    for (const ChainReps &c : chains)
        reportChain(out, c, spans, self_us);
    return out;
}

} // namespace fabbench
