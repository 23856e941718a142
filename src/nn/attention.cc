#include "nn/attention.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "runtime/kernels.h"
#include "runtime/parallel.h"
#include "runtime/workspace.h"

namespace fabnet {
namespace nn {

MultiHeadAttention::MultiHeadAttention(std::size_t d_model,
                                       std::size_t heads,
                                       std::unique_ptr<Layer> proj_q,
                                       std::unique_ptr<Layer> proj_k,
                                       std::unique_ptr<Layer> proj_v,
                                       std::unique_ptr<Layer> proj_o,
                                       bool causal)
    : d_model_(d_model), heads_(heads), causal_(causal),
      proj_q_(std::move(proj_q)), proj_k_(std::move(proj_k)),
      proj_v_(std::move(proj_v)), proj_o_(std::move(proj_o))
{
    if (d_model_ % heads_ != 0)
        throw std::invalid_argument(
            "MultiHeadAttention: d_model must be divisible by heads");
}

namespace {

/**
 * Head-slice helpers: activations are stored [b, t, d] with head h
 * occupying columns [h*dh, (h+1)*dh). These accessors avoid a
 * physical [b, h, t, dh] reshape.
 */
inline const float *
rowPtr(const Tensor &x, std::size_t b, std::size_t t_idx)
{
    return x.data() + (b * x.dim(1) + t_idx) * x.dim(2);
}

inline float *
rowPtr(Tensor &x, std::size_t b, std::size_t t_idx)
{
    return x.data() + (b * x.dim(1) + t_idx) * x.dim(2);
}

/** Workspace tag for the gathered head slices. */
struct AttnWs;
/** Workspace tag for the backward pass's gathered/accumulator panels. */
struct AttnGradWs;
/** Workspace tag for the decode step's gathered cache slices. */
struct DecodeWs;
/** Workspace tag for the sparse paths' selected-index scratch. */
struct AttnSelWs;
/** Workspace tag for the decode step's selected-index scratch. */
struct DecodeSelWs;

/**
 * Shared body of the approximate per-query attention row (forwardImpl
 * and forwardStep): select keys, softmax over the selected set only,
 * context over the gathered selected V rows. All inputs are the
 * already-gathered per-(batch, head) panels, so the two call sites
 * replay identical op chains - the decode-vs-full-recompute bitwise
 * contract extends to the approximate kinds by construction.
 *
 * Selection is deterministic (nn/sparse_attention.h) and the selected
 * set is processed in ascending key order with the dense path's exact
 * expression sequence (scale-then-max from -1e30f, ascending exp/sum,
 * one gemmRowsIKJ row call), so TopK with k >= visible reproduces the
 * dense bits and every kind is bitwise run-to-run deterministic.
 *
 * @param sparse   validated non-dense config
 * @param i        query position (key index space)
 * @param visible  number of visible keys (causal prefix or valid len)
 * @param stride   row stride of the transposed K panel @p kht
 * @param qi       query head slice, [dh]
 * @param kht      transposed K head panel, [dh, stride]
 * @param vh       V head panel, [>= visible, dh]
 * @param srow     score scratch, [>= visible]
 * @param prow     selected-probability scratch, [>= visible]
 * @param vsel     gathered selected-V scratch, [>= visible * dh]
 * @param sel,cand index scratch, each [>= visible]
 * @param ci       context output row, [dh] (overwritten)
 * @param arow     optional dense attn_ cache row (zero-initialised):
 *                 selected probabilities land at their key positions
 * @return number of selected keys
 */
std::size_t
sparseAttendRow(const SparseAttentionConfig &sparse, std::size_t i,
                std::size_t visible, std::size_t dh, std::size_t stride,
                float scale, const float *qi, const float *kht,
                const float *vh, float *srow, float *prow, float *vsel,
                std::uint32_t *sel, std::uint32_t *cand, float *ci,
                float *arow)
{
    std::size_t m = 0;
    if (sparse.kind == SparseKind::TopK) {
        // Full score row via the dense path's exact axpy chains (the
        // A^3 approximation keeps exact scores and prunes after), so
        // k >= visible degenerates bitwise to dense attention.
        std::fill(srow, srow + visible, 0.0f);
        for (std::size_t c = 0; c < dh; ++c) {
            const float qv = qi[c];
            const float *krow = kht + c * stride;
            for (std::size_t j = 0; j < visible; ++j)
                srow[j] = runtime::madd(qv, krow[j], srow[j]);
        }
        m = selectTopK(srow, visible, sparse.k, sel);
        for (std::size_t s = 0; s < m; ++s)
            prow[s] = srow[sel[s]];
    } else {
        // Butterfly kinds: scores ONLY at the O(log t) candidate
        // positions - the full score row is never materialised. Each
        // score's reduction runs the same ascending-c madd chain as
        // the dense path, so a shared position carries the same bits.
        const std::size_t nc = butterflyCandidates(i, visible, cand);
        for (std::size_t s = 0; s < nc; ++s) {
            const float *krow = kht + cand[s];
            float acc = 0.0f;
            for (std::size_t c = 0; c < dh; ++c)
                acc = runtime::madd(qi[c], krow[c * stride], acc);
            srow[s] = acc;
        }
        if (sparse.kind == SparseKind::ButterflyTopK && sparse.k < nc) {
            m = selectTopK(srow, nc, sparse.k, sel);
            for (std::size_t s = 0; s < m; ++s) {
                prow[s] = srow[sel[s]];
                sel[s] = cand[sel[s]];
            }
        } else {
            m = nc;
            for (std::size_t s = 0; s < m; ++s) {
                prow[s] = srow[s];
                sel[s] = cand[s];
            }
        }
    }
    // Softmax over the selected set only, replaying the dense path's
    // expression sequence over the compacted row.
    float mx = -1e30f;
    for (std::size_t s = 0; s < m; ++s) {
        prow[s] *= scale;
        mx = std::max(mx, prow[s]);
    }
    float denom = 0.0f;
    for (std::size_t s = 0; s < m; ++s) {
        prow[s] = std::exp(prow[s] - mx);
        denom += prow[s];
    }
    const float inv = 1.0f / denom;
    for (std::size_t s = 0; s < m; ++s)
        prow[s] = prow[s] * inv;
    // Training cache: probabilities at their original key positions;
    // unselected keys stay exactly zero, which backward() skips -
    // straight-through selection, no new backward code.
    if (arow)
        for (std::size_t s = 0; s < m; ++s)
            arow[sel[s]] = prow[s];
    // Context over the gathered selected V rows, through the same row
    // kernel as the dense path (identity selection -> identical call).
    for (std::size_t s = 0; s < m; ++s)
        std::memcpy(vsel + s * dh, vh + sel[s] * dh, dh * sizeof(float));
    runtime::gemmRowsIKJ(prow, vsel, ci, 0, 1, m, dh);
    return m;
}

} // namespace

void
MultiHeadAttention::setSparse(const SparseAttentionConfig &sparse)
{
    sparse.validate();
    sparse_ = sparse;
}

Tensor
MultiHeadAttention::forward(const Tensor &x)
{
    return forwardImpl(x);
}

Tensor
MultiHeadAttention::forwardImpl(const Tensor &x, const nn::RowSet *rows,
                                StepState *capture)
{
    if (x.rank() != 3 || x.dim(2) != d_model_)
        throw std::invalid_argument("MultiHeadAttention: [b,t,d] required");
    b_ = x.dim(0);
    t_ = x.dim(1);
    const std::size_t dh = headDim();
    const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
    const bool ragged = rows != nullptr;

    // The dense path fills the q_/k_/v_/attn_ training caches; the ragged
    // path is inference-only, so its projections live in locals (no
    // peak-batch tensors retained between requests) and the softmax
    // row normalises in thread scratch instead of materialising the
    // O(b * heads * t^2) attn_ tensor.
    Tensor ql, kl, vl;
    if (ragged) {
        ql = proj_q_->forwardRows(x, *rows);
        kl = proj_k_->forwardRows(x, *rows);
        vl = proj_v_->forwardRows(x, *rows);
    } else {
        q_ = proj_q_->forward(x);
        k_ = proj_k_->forward(x);
        v_ = proj_v_->forward(x);
        // attn_ rows: (b * heads + h) * t_  + i  over keys j.
        attn_ = Tensor::zeros(b_, heads_ * t_, t_);
    }
    const Tensor &q = ragged ? ql : q_;
    const Tensor &k = ragged ? kl : k_;
    const Tensor &v = ragged ? vl : v_;

    // Prefill capture: copy each sequence's valid projected K/V rows
    // into its cache. A pure copy of the ragged locals - the attention
    // core below neither sees nor depends on it, so captured and
    // plain forwardRows logits are the same bits.
    if (capture) {
        if (!causal_)
            throw std::logic_error(
                "MultiHeadAttention::forwardPrefill: causal attention "
                "required (the cached prefix must be the visible set)");
        if (capture->caches.size() != b_)
            throw std::invalid_argument(
                "MultiHeadAttention::forwardPrefill: cache count != batch");
        for (std::size_t b = 0; b < b_; ++b) {
            KVCache &c = *capture->caches[b];
            if (c.len != 0)
                throw std::logic_error(
                    "MultiHeadAttention::forwardPrefill: cache not empty");
            const std::size_t n = rows->len(b);
            const float *kr = rowPtr(k, b, 0);
            const float *vr = rowPtr(v, b, 0);
            c.k.assign(kr, kr + n * d_model_);
            c.v.assign(vr, vr + n * d_model_);
            c.len = n;
        }
    }

    Tensor ctx = Tensor::zeros(b_, t_, d_model_);

    // One task per (batch, head): gather that head's Q/K/V slices into
    // contiguous [t, dh] panels, then scores -> softmax -> context on
    // the shared micro-kernels. Each task writes disjoint attn_ rows
    // and a disjoint ctx column slice, so the parallel loop is
    // deterministic at any thread count.
    runtime::parallelFor(0, b_ * heads_, 1, [&](std::size_t task0,
                                                std::size_t task1) {
        for (std::size_t task = task0; task < task1; ++task) {
            const std::size_t b = task / heads_;
            const std::size_t h = task % heads_;
            const std::size_t off = h * dh;
            // Rows past the real prefix are padding: skipped as keys,
            // values and queries alike - gather and compute stop at
            // `valid`, so each real query row runs the exact op
            // sequence of an unpadded length-`valid` forward.
            const std::size_t valid = ragged ? rows->len(b) : t_;

            // The sparse kinds add a compacted-probability row, a
            // gathered selected-V panel and index scratch on top of
            // the dense layout; the dense request is unchanged.
            const bool approx = !sparse_.dense();
            const std::size_t ws_floats =
                t_ * (4 * dh + 1) + (approx ? t_ * (dh + 1) : 0);
            float *scratch = runtime::threadWorkspace<AttnWs>(ws_floats);
            float *qh = scratch;
            float *kht = qh + t_ * dh; // K head slice, transposed
            float *vh = kht + t_ * dh;
            float *ch = vh + t_ * dh;
            float *srow = ch + t_ * dh;
            float *prow = approx ? srow + t_ : nullptr;
            float *vsel = approx ? prow + t_ : nullptr;
            std::uint32_t *sel =
                approx ? runtime::threadWorkspaceAs<AttnSelWs,
                                                    std::uint32_t>(2 * t_)
                       : nullptr;
            std::uint32_t *cand = approx ? sel + t_ : nullptr;
            // K is gathered transposed ([dh, t]) so the score loop
            // below runs contiguously over keys.
            for (std::size_t t_idx = 0; t_idx < valid; ++t_idx) {
                std::memcpy(qh + t_idx * dh,
                            rowPtr(q, b, t_idx) + off,
                            dh * sizeof(float));
                std::memcpy(vh + t_idx * dh,
                            rowPtr(v, b, t_idx) + off,
                            dh * sizeof(float));
                const float *krow = rowPtr(k, b, t_idx) + off;
                for (std::size_t c = 0; c < dh; ++c)
                    kht[c * t_ + t_idx] = krow[c];
            }

            for (std::size_t i = 0; i < valid; ++i) {
                const std::size_t visible =
                    causal_ ? std::min(i + 1, valid) : valid;
                const float *qi = qh + i * dh;
                if (approx) {
                    // Approximate row: deterministic selection +
                    // softmax over the selected set only. Selection
                    // depends only on (i, the real prefix), so the
                    // ragged/unpadded bitwise parity argument carries
                    // over unchanged.
                    float *arow =
                        ragged ? nullptr
                               : attn_.data() +
                                     (b * heads_ * t_ + h * t_ + i) * t_;
                    sparseAttendRow(sparse_, i, visible, dh, t_, scale,
                                    qi, kht, vh, srow, prow, vsel, sel,
                                    cand, ch + i * dh, arow);
                    continue;
                }
                // Scores q_i . k_j for the visible keys: axpy over the
                // transposed K panel keeps the j loop contiguous while
                // each score's reduction stays in c order (bitwise
                // equal to the reference dot product).
                std::fill(srow, srow + visible, 0.0f);
                for (std::size_t c = 0; c < dh; ++c) {
                    const float qv = qi[c];
                    const float *krow = kht + c * t_;
                    for (std::size_t j = 0; j < visible; ++j)
                        srow[j] = runtime::madd(qv, krow[j], srow[j]);
                }
                float mx = -1e30f;
                for (std::size_t j = 0; j < visible; ++j) {
                    srow[j] *= scale;
                    mx = std::max(mx, srow[j]);
                }
                float denom = 0.0f;
                for (std::size_t j = 0; j < visible; ++j) {
                    srow[j] = std::exp(srow[j] - mx);
                    denom += srow[j];
                }
                const float inv = 1.0f / denom;
                // Normalised probabilities land in the attn_ training
                // cache (dense) or stay in srow (ragged) - the same
                // srow[j] * inv product either way.
                float *arow =
                    ragged ? srow
                           : attn_.data() +
                                 (b * heads_ * t_ + h * t_ + i) * t_;
                for (std::size_t j = 0; j < visible; ++j)
                    arow[j] = srow[j] * inv;
                // (masked tail stays at the tensor's zero init)
                // Context row: ctx_i += sum_j a_ij * v_j.
                runtime::gemmRowsIKJ(arow, vh, ch + i * dh, 0, 1,
                                     visible, dh);
            }

            for (std::size_t i = 0; i < valid; ++i)
                std::memcpy(rowPtr(ctx, b, i) + off, ch + i * dh,
                            dh * sizeof(float));
        }
    });
    return ragged ? proj_o_->forwardRows(ctx, *rows)
                  : proj_o_->forward(ctx);
}

Tensor
MultiHeadAttention::forwardRows(const Tensor &x, const nn::RowSet &rows)
{
    if (rows.batch() != x.dim(0) || rows.seq() != x.dim(1))
        throw std::invalid_argument(
            "MultiHeadAttention::forwardRows: RowSet shape mismatch");
    return forwardImpl(x, &rows);
}

Tensor
MultiHeadAttention::forwardPrefill(const Tensor &x, const nn::RowSet &rows,
                                   StepState &step)
{
    if (rows.batch() != x.dim(0) || rows.seq() != x.dim(1))
        throw std::invalid_argument(
            "MultiHeadAttention::forwardPrefill: RowSet shape mismatch");
    return forwardImpl(x, &rows, &step);
}

Tensor
MultiHeadAttention::forwardStep(const Tensor &x, StepState &step)
{
    if (x.rank() != 3 || x.dim(1) != 1 || x.dim(2) != d_model_)
        throw std::invalid_argument(
            "MultiHeadAttention::forwardStep: [n, 1, d] step required");
    if (!causal_)
        throw std::logic_error(
            "MultiHeadAttention::forwardStep: causal attention required "
            "(the cached prefix must be the visible set)");
    const std::size_t n = x.dim(0);
    if (step.caches.size() != n)
        throw std::invalid_argument(
            "MultiHeadAttention::forwardStep: cache count != step rows");
    const std::size_t dh = headDim();
    const float scale = 1.0f / std::sqrt(static_cast<float>(dh));

    // The step is a 1-row ragged batch: the projections run their
    // ordinary forwardRows paths, whose rows are computed independently
    // with a fixed per-row op order - so each step row's Q/K/V bits
    // match the corresponding row of a full-recompute projection.
    const nn::RowSet rows(n, 1, std::vector<std::size_t>(n, 1));
    const Tensor q = proj_q_->forwardRows(x, rows);
    const Tensor k = proj_k_->forwardRows(x, rows);
    const Tensor v = proj_v_->forwardRows(x, rows);

    // Append the new K/V row before attending, so the prefix below
    // includes the step position itself (the `visible = i + 1` of the
    // causal full forward).
    for (std::size_t b = 0; b < n; ++b) {
        KVCache &c = *step.caches[b];
        const float *kr = k.data() + b * d_model_;
        const float *vr = v.data() + b * d_model_;
        c.k.insert(c.k.end(), kr, kr + d_model_);
        c.v.insert(c.v.end(), vr, vr + d_model_);
        ++c.len;
    }

    Tensor ctx = Tensor::zeros(n, 1, d_model_);

    // One task per (sequence, head), as in forwardImpl; each task
    // gathers its sequence's cached prefix and replays forwardImpl's
    // last-query-row pipeline verbatim: scores via ascending-c madd
    // chains over the transposed K panel, scale-then-max from -1e30f,
    // exp/denom ascending-j, context through the same gemmRowsIKJ row
    // kernel. Tasks write disjoint ctx column slices, so the loop is
    // deterministic at any thread count.
    runtime::parallelFor(0, n * heads_, 1, [&](std::size_t task0,
                                               std::size_t task1) {
        for (std::size_t task = task0; task < task1; ++task) {
            const std::size_t b = task / heads_;
            const std::size_t h = task % heads_;
            const std::size_t off = h * dh;
            const KVCache &c = *step.caches[b];
            const std::size_t L = c.len;

            const bool approx = !sparse_.dense();
            const std::size_t ws_floats =
                L * (2 * dh + 1) + dh + (approx ? L * (dh + 1) : 0);
            float *scratch = runtime::threadWorkspace<DecodeWs>(ws_floats);
            float *kht = scratch;        // K head slice, transposed [dh, L]
            float *vh = kht + L * dh;    // V head slice, [L, dh]
            float *srow = vh + L * dh;   // scores, [L]
            float *ch = srow + L;        // context row, [dh]
            float *prow = approx ? ch + dh : nullptr;
            float *vsel = approx ? prow + L : nullptr;
            std::uint32_t *sel =
                approx ? runtime::threadWorkspaceAs<DecodeSelWs,
                                                    std::uint32_t>(2 * L)
                       : nullptr;
            std::uint32_t *cand = approx ? sel + L : nullptr;
            for (std::size_t j = 0; j < L; ++j) {
                const float *kr = c.k.data() + j * d_model_ + off;
                for (std::size_t cc = 0; cc < dh; ++cc)
                    kht[cc * L + j] = kr[cc];
                std::memcpy(vh + j * dh, c.v.data() + j * d_model_ + off,
                            dh * sizeof(float));
            }

            const float *qi = q.data() + b * d_model_ + off;
            if (approx) {
                // The step row is query position L-1 with the whole
                // cached prefix visible: the same sparseAttendRow
                // body forwardImpl's approximate branch runs for its
                // last causal query row, so decode stays bitwise
                // identical to the full recompute for every kind.
                sparseAttendRow(sparse_, L - 1, L, dh, L, scale, qi,
                                kht, vh, srow, prow, vsel, sel, cand,
                                ch, nullptr);
                std::memcpy(ctx.data() + b * d_model_ + off, ch,
                            dh * sizeof(float));
                continue;
            }
            std::fill(srow, srow + L, 0.0f);
            for (std::size_t cc = 0; cc < dh; ++cc) {
                const float qv = qi[cc];
                const float *krow = kht + cc * L;
                for (std::size_t j = 0; j < L; ++j)
                    srow[j] = runtime::madd(qv, krow[j], srow[j]);
            }
            float mx = -1e30f;
            for (std::size_t j = 0; j < L; ++j) {
                srow[j] *= scale;
                mx = std::max(mx, srow[j]);
            }
            float denom = 0.0f;
            for (std::size_t j = 0; j < L; ++j) {
                srow[j] = std::exp(srow[j] - mx);
                denom += srow[j];
            }
            const float inv = 1.0f / denom;
            for (std::size_t j = 0; j < L; ++j)
                srow[j] = srow[j] * inv;
            runtime::gemmRowsIKJ(srow, vh, ch, 0, 1, L, dh);
            std::memcpy(ctx.data() + b * d_model_ + off, ch,
                        dh * sizeof(float));
        }
    });
    return proj_o_->forwardRows(ctx, rows);
}

Tensor
MultiHeadAttention::forwardReference(const Tensor &x)
{
    if (x.rank() != 3 || x.dim(2) != d_model_)
        throw std::invalid_argument("MultiHeadAttention: [b,t,d] required");
    b_ = x.dim(0);
    t_ = x.dim(1);
    const std::size_t dh = headDim();
    const float scale = 1.0f / std::sqrt(static_cast<float>(dh));

    q_ = proj_q_->forward(x);
    k_ = proj_k_->forward(x);
    v_ = proj_v_->forward(x);

    attn_ = Tensor::zeros(b_, heads_ * t_, t_);
    Tensor ctx = Tensor::zeros(b_, t_, d_model_);

    std::vector<float> row(t_);
    for (std::size_t b = 0; b < b_; ++b) {
        for (std::size_t h = 0; h < heads_; ++h) {
            const std::size_t off = h * dh;
            for (std::size_t i = 0; i < t_; ++i) {
                const float *qi = rowPtr(q_, b, i) + off;
                // Scores against every visible key (all of them, or
                // only the prefix when causal), softmax-normalised.
                const std::size_t visible = causal_ ? i + 1 : t_;
                float mx = -1e30f;
                for (std::size_t j = 0; j < visible; ++j) {
                    const float *kj = rowPtr(k_, b, j) + off;
                    float s = 0.0f;
                    for (std::size_t c = 0; c < dh; ++c)
                        s = runtime::madd(qi[c], kj[c], s);
                    row[j] = s * scale;
                    mx = std::max(mx, row[j]);
                }
                float denom = 0.0f;
                for (std::size_t j = 0; j < visible; ++j) {
                    row[j] = std::exp(row[j] - mx);
                    denom += row[j];
                }
                const float inv = 1.0f / denom;
                float *arow =
                    attn_.data() + (b * heads_ * t_ + h * t_ + i) * t_;
                for (std::size_t j = 0; j < visible; ++j)
                    arow[j] = row[j] * inv;
                for (std::size_t j = visible; j < t_; ++j)
                    arow[j] = 0.0f; // masked future positions
                // Context: weighted sum of visible value head-slices.
                float *ci = rowPtr(ctx, b, i) + off;
                for (std::size_t j = 0; j < visible; ++j) {
                    const float a = arow[j];
                    const float *vj = rowPtr(v_, b, j) + off;
                    for (std::size_t c = 0; c < dh; ++c)
                        ci[c] = runtime::madd(a, vj[c], ci[c]);
                }
            }
        }
    }
    return proj_o_->forward(ctx);
}

Tensor
MultiHeadAttention::backward(const Tensor &grad_out)
{
    const std::size_t dh = headDim();
    const float scale = 1.0f / std::sqrt(static_cast<float>(dh));

    Tensor g_ctx = proj_o_->backward(grad_out);

    Tensor gq = Tensor::zeros(b_, t_, d_model_);
    Tensor gk = Tensor::zeros(b_, t_, d_model_);
    Tensor gv = Tensor::zeros(b_, t_, d_model_);

    // One task per (batch, head), mirroring the forward: gather the
    // head's Q/K/V and dL/dcontext slices into contiguous panels, run
    // the seed per-head loops (identical per-element expressions and
    // ascending-i accumulation chains), collect dL/dq, dL/dk and
    // dL/dv in per-thread panels and copy them to the task's disjoint
    // head slice. No gradient element is ever touched by two tasks,
    // so no cross-thread reduction is needed (runtime/reduce.h) and
    // the result is bitwise identical to backwardReference at any
    // thread count.
    runtime::parallelFor(0, b_ * heads_, 1, [&](std::size_t task0,
                                                std::size_t task1) {
        for (std::size_t task = task0; task < task1; ++task) {
            const std::size_t b = task / heads_;
            const std::size_t h = task % heads_;
            const std::size_t off = h * dh;

            float *scratch = runtime::threadWorkspace<AttnGradWs>(
                t_ * (7 * dh + 2));
            float *qh = scratch;
            float *kh = qh + t_ * dh;
            float *vh = kh + t_ * dh;
            float *gch = vh + t_ * dh;
            float *lgq = gch + t_ * dh; // dL/dq panel, [t, dh]
            float *lgk = lgq + t_ * dh;
            float *lgv = lgk + t_ * dh;
            float *ga = lgv + t_ * dh; // dL/dattn for one query row
            float *gs = ga + t_;       // dL/dscore (pre-softmax)

            for (std::size_t t_idx = 0; t_idx < t_; ++t_idx) {
                std::memcpy(qh + t_idx * dh,
                            rowPtr(q_, b, t_idx) + off,
                            dh * sizeof(float));
                std::memcpy(kh + t_idx * dh,
                            rowPtr(k_, b, t_idx) + off,
                            dh * sizeof(float));
                std::memcpy(vh + t_idx * dh,
                            rowPtr(v_, b, t_idx) + off,
                            dh * sizeof(float));
                std::memcpy(gch + t_idx * dh,
                            rowPtr(g_ctx, b, t_idx) + off,
                            dh * sizeof(float));
            }
            std::fill(lgq, lgq + 3 * t_ * dh, 0.0f);

            for (std::size_t i = 0; i < t_; ++i) {
                const float *gci = gch + i * dh;
                const float *arow =
                    attn_.data() + (b * heads_ * t_ + h * t_ + i) * t_;
                // dL/da_ij = g_ctx_i . v_j ; also accumulate dL/dv_j.
                for (std::size_t j = 0; j < t_; ++j) {
                    const float *vj = vh + j * dh;
                    float acc = 0.0f;
                    for (std::size_t c = 0; c < dh; ++c)
                        acc = runtime::madd(gci[c], vj[c], acc);
                    ga[j] = acc;
                    float *gvj = lgv + j * dh;
                    const float a = arow[j];
                    for (std::size_t c = 0; c < dh; ++c)
                        gvj[c] = runtime::madd(a, gci[c], gvj[c]);
                }
                // Softmax backward: gs_j = a_j * (ga_j - sum_k ga_k a_k).
                float dot = 0.0f;
                for (std::size_t j = 0; j < t_; ++j)
                    dot = runtime::madd(ga[j], arow[j], dot);
                for (std::size_t j = 0; j < t_; ++j)
                    gs[j] = arow[j] * (ga[j] - dot);
                // Score backward into q_i and k_j.
                const float *qi = qh + i * dh;
                float *gqi = lgq + i * dh;
                for (std::size_t j = 0; j < t_; ++j) {
                    const float g = gs[j] * scale;
                    if (g == 0.0f)
                        continue;
                    const float *kj = kh + j * dh;
                    float *gkj = lgk + j * dh;
                    for (std::size_t c = 0; c < dh; ++c) {
                        gqi[c] = runtime::madd(g, kj[c], gqi[c]);
                        gkj[c] = runtime::madd(g, qi[c], gkj[c]);
                    }
                }
            }

            for (std::size_t t_idx = 0; t_idx < t_; ++t_idx) {
                std::memcpy(rowPtr(gq, b, t_idx) + off,
                            lgq + t_idx * dh, dh * sizeof(float));
                std::memcpy(rowPtr(gk, b, t_idx) + off,
                            lgk + t_idx * dh, dh * sizeof(float));
                std::memcpy(rowPtr(gv, b, t_idx) + off,
                            lgv + t_idx * dh, dh * sizeof(float));
            }
        }
    });

    Tensor gx = proj_q_->backward(gq);
    Tensor gxk = proj_k_->backward(gk);
    Tensor gxv = proj_v_->backward(gv);
    float *p = gx.data();
    const float *pk = gxk.data();
    const float *pv = gxv.data();
    runtime::parallelFor(0, gx.size(), 1 << 14,
                         [&](std::size_t i0, std::size_t i1) {
                             for (std::size_t i = i0; i < i1; ++i)
                                 p[i] += pk[i] + pv[i];
                         });
    return gx;
}

Tensor
MultiHeadAttention::backwardReference(const Tensor &grad_out)
{
    const std::size_t dh = headDim();
    const float scale = 1.0f / std::sqrt(static_cast<float>(dh));

    Tensor g_ctx = proj_o_->backwardReference(grad_out);

    Tensor gq = Tensor::zeros(b_, t_, d_model_);
    Tensor gk = Tensor::zeros(b_, t_, d_model_);
    Tensor gv = Tensor::zeros(b_, t_, d_model_);

    std::vector<float> ga(t_); // dL/dattn for one query row
    std::vector<float> gs(t_); // dL/dscore (pre-softmax)
    for (std::size_t b = 0; b < b_; ++b) {
        for (std::size_t h = 0; h < heads_; ++h) {
            const std::size_t off = h * dh;
            for (std::size_t i = 0; i < t_; ++i) {
                const float *gci = rowPtr(g_ctx, b, i) + off;
                const float *arow =
                    attn_.data() + (b * heads_ * t_ + h * t_ + i) * t_;
                // dL/da_ij = g_ctx_i . v_j ; also accumulate dL/dv_j.
                for (std::size_t j = 0; j < t_; ++j) {
                    const float *vj = rowPtr(v_, b, j) + off;
                    float acc = 0.0f;
                    for (std::size_t c = 0; c < dh; ++c)
                        acc = runtime::madd(gci[c], vj[c], acc);
                    ga[j] = acc;
                    float *gvj = rowPtr(gv, b, j) + off;
                    const float a = arow[j];
                    for (std::size_t c = 0; c < dh; ++c)
                        gvj[c] = runtime::madd(a, gci[c], gvj[c]);
                }
                // Softmax backward: gs_j = a_j * (ga_j - sum_k ga_k a_k).
                float dot = 0.0f;
                for (std::size_t j = 0; j < t_; ++j)
                    dot = runtime::madd(ga[j], arow[j], dot);
                for (std::size_t j = 0; j < t_; ++j)
                    gs[j] = arow[j] * (ga[j] - dot);
                // Score backward into q_i and k_j.
                const float *qi = rowPtr(q_, b, i) + off;
                float *gqi = rowPtr(gq, b, i) + off;
                for (std::size_t j = 0; j < t_; ++j) {
                    const float g = gs[j] * scale;
                    if (g == 0.0f)
                        continue;
                    const float *kj = rowPtr(k_, b, j) + off;
                    float *gkj = rowPtr(gk, b, j) + off;
                    for (std::size_t c = 0; c < dh; ++c) {
                        gqi[c] = runtime::madd(g, kj[c], gqi[c]);
                        gkj[c] = runtime::madd(g, qi[c], gkj[c]);
                    }
                }
            }
        }
    }

    Tensor gx = proj_q_->backwardReference(gq);
    Tensor gxk = proj_k_->backwardReference(gk);
    Tensor gxv = proj_v_->backwardReference(gv);
    float *p = gx.data();
    const float *pk = gxk.data();
    const float *pv = gxv.data();
    for (std::size_t i = 0; i < gx.size(); ++i)
        p[i] += pk[i] + pv[i];
    return gx;
}

void
MultiHeadAttention::collectParams(std::vector<ParamRef> &out)
{
    proj_q_->collectParams(out);
    proj_k_->collectParams(out);
    proj_v_->collectParams(out);
    proj_o_->collectParams(out);
}

std::size_t
MultiHeadAttention::quantizeLinears(QuantKind kind)
{
    return quantizeChildLayer(proj_q_, kind) +
           quantizeChildLayer(proj_k_, kind) +
           quantizeChildLayer(proj_v_, kind) +
           quantizeChildLayer(proj_o_, kind);
}

} // namespace nn
} // namespace fabnet
