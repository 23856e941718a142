/**
 * @file inputs.h
 * Model configurations and seeded inputs of the four workloads, shared
 * by the timed workloads (workloads.cpp) and the layer pass that
 * replays them (layers.cpp).
 */
#ifndef FABBENCH_INPUTS_H
#define FABBENCH_INPUTS_H

#include <cstdint>
#include <string>
#include <vector>

#include "data/lra.h"
#include "model/classifier.h"
#include "model/config.h"
#include "serve/generation.h"
#include "serve/serving.h"

#include "harness.h"

namespace fabbench {

/** Independent input streams of one seed (streamSeed). */
enum InputStream : std::uint64_t {
    kInWeights = 1,
    kInClassifyPool,
    kInClassifyOpen,
    kInClassifyBatching,
    kInDecodePool,
    kInDecodeOpen,
    kInDecodeSample,
    kInLongRequests,
    kInTrainBatches,
    kInProbe,
};

using Requests = std::vector<std::vector<int>>;

/** Stride of the length pattern of makeRequests; coprime to the
 *  classify (29) and decode (21) length spans. */
inline constexpr int kLengthStride = 11;

/**
 * Token sequences with seeded ids in [1, vocab-1] (0 stays the pad
 * token) and stratified lengths: request i is min_len + (11 i mod span)
 * long, so every window of span consecutive requests holds each length
 * of [min_len, max_len] once. A seed changes ids and weights, never the
 * amount of work, so runs on different seeds measure the same sizes.
 */
inline Requests
makeRequests(std::uint64_t seed, std::size_t n, int min_len, int max_len,
             int vocab)
{
    SplitMix rng(seed);
    const int span = max_len - min_len + 1;
    Requests out(n);
    for (std::size_t i = 0; i < n; ++i) {
        out[i].resize(static_cast<std::size_t>(
            min_len + static_cast<int>(i * kLengthStride % span)));
        for (int &t : out[i])
            t = rng.range(1, vocab - 1);
    }
    return out;
}

/** Seeded pool indices for an open-loop schedule of @p n arrivals. */
inline std::vector<std::size_t>
pickIndices(std::uint64_t seed, std::size_t n, std::size_t pool)
{
    SplitMix rng(seed);
    std::vector<std::size_t> idx(n);
    for (auto &i : idx)
        i = static_cast<std::size_t>(rng.next() % pool);
    return idx;
}

// ---------------------------------------------------------- classify_open

/** All-ABfly FABNet of the paper's short-text serving regime. */
inline fabnet::ModelConfig
classifyModel()
{
    fabnet::ModelConfig c;
    c.kind = fabnet::ModelKind::FABNet;
    c.vocab = 256;
    c.max_seq = 64;
    c.d_hid = 256;
    c.r_ffn = 4;
    c.n_total = 2;
    c.n_abfly = 2;
    c.heads = 8;
    c.classes = 10;
    return c;
}

inline fabnet::serve::ServingConfig
classifyServing()
{
    fabnet::serve::ServingConfig s;
    s.max_batch = 16;
    s.bucket_granularity = 8;
    return s;
}

inline constexpr std::size_t kClassifyPool = 768;
inline constexpr int kClassifyMinLen = 4;
inline constexpr int kClassifyMaxLen = 32;

inline Requests
classifyPool(std::uint64_t seed)
{
    return makeRequests(streamSeed(seed, kInClassifyPool), kClassifyPool,
                        kClassifyMinLen, kClassifyMaxLen,
                        static_cast<int>(classifyModel().vocab));
}

// ---------------------------------------------------------- decode_stream

inline fabnet::ModelConfig
decodeModel()
{
    fabnet::ModelConfig c = classifyModel();
    c.causal = true;
    c.max_seq = 96; // longest prompt + every new token
    return c;
}

inline fabnet::serve::GenerationConfig
decodeServing()
{
    fabnet::serve::GenerationConfig g;
    g.max_live = 8;
    return g;
}

inline constexpr std::size_t kDecodePool = 256;
inline constexpr int kDecodeMinPrompt = 4;
inline constexpr int kDecodeMaxPrompt = 24;
inline constexpr std::size_t kDecodeNewTokens = 48;

inline Requests
decodePool(std::uint64_t seed)
{
    return makeRequests(streamSeed(seed, kInDecodePool), kDecodePool,
                        kDecodeMinPrompt, kDecodeMaxPrompt,
                        static_cast<int>(decodeModel().vocab));
}

// ----------------------------------------------------------- long_context

inline constexpr std::size_t kLongPerLength = 4;

/** One LRA length: its dense and butterfly configs and requests. */
struct LongCase
{
    std::string task;
    std::size_t seq = 0;
    fabnet::ModelConfig dense, butterfly;
    Requests requests; ///< near-full length, in (3/4 seq, seq]
};

inline std::vector<LongCase>
longCases(std::uint64_t seed)
{
    std::vector<LongCase> out;
    std::uint64_t stream = streamSeed(seed, kInLongRequests);
    for (const auto &sc : fabnet::data::longRangeScenarios()) {
        LongCase c;
        c.task = sc.task;
        c.seq = sc.seq;
        c.dense = sc.exact;
        c.butterfly = sc.butterfly;
        const auto gen = fabnet::data::makeLraGenerator(sc.task, sc.seq);
        fabnet::Rng rng(stream++);
        // Stratified lengths, as in makeRequests: request i is
        // seq - i * seq / (4 * kLongPerLength) long, spanning (3/4 seq, seq].
        for (std::size_t i = 0; i < kLongPerLength; ++i) {
            std::vector<int> toks = gen->sample(rng).tokens;
            toks.resize(std::min<std::size_t>(
                toks.size(), sc.seq - i * sc.seq / (4 * kLongPerLength)));
            c.requests.push_back(std::move(toks));
        }
        out.push_back(std::move(c));
    }
    return out;
}

inline fabnet::serve::ServingConfig
longServing()
{
    fabnet::serve::ServingConfig s;
    s.max_batch = 1; // one request in flight: flush on arrival
    return s;
}

// ------------------------------------------------------------- train_step

inline fabnet::ModelConfig
trainModel()
{
    fabnet::ModelConfig c = classifyModel();
    c.d_hid = 128;
    c.max_seq = 128;
    return c;
}

inline constexpr std::size_t kTrainBatch = 8;
inline constexpr std::size_t kTrainSeq = 128;
inline constexpr std::size_t kTrainBatches = 2;

inline std::vector<fabnet::Batch>
trainBatches(std::uint64_t seed)
{
    const fabnet::ModelConfig c = trainModel();
    SplitMix rng(streamSeed(seed, kInTrainBatches));
    std::vector<fabnet::Batch> out(kTrainBatches);
    for (auto &b : out) {
        b.batch = kTrainBatch;
        b.seq = kTrainSeq;
        b.tokens.resize(kTrainBatch * kTrainSeq);
        for (int &t : b.tokens)
            t = rng.range(1, static_cast<int>(c.vocab) - 1);
        b.labels.resize(kTrainBatch);
        for (int &l : b.labels)
            l = rng.range(0, static_cast<int>(c.classes) - 1);
    }
    return out;
}

/** Model weights are drawn from the run seed too. */
inline std::uint64_t
weightSeed(std::uint64_t seed)
{
    return streamSeed(seed, kInWeights);
}

} // namespace fabbench

#endif // FABBENCH_INPUTS_H
