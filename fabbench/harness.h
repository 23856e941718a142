/**
 * @file harness.h
 * Measurement helpers of the FABNet runtime benchmark, kept free of
 * any fabnet dependency so helpers_test.cpp can pin them on their own:
 * the percentile and samples-beyond rule, per-operation best times,
 * the seeded Poisson arrival schedule, the in-memory span trace with
 * self time, the layer-sum ratio, and the metric table printed as the
 * run's last line.
 */
#ifndef FABBENCH_HARNESS_H
#define FABBENCH_HARNESS_H

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace fabbench {

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return 1e3 * secondsBetween(a, b);
}

// ------------------------------------------------------------ percentiles

/** Samples strictly beyond the nearest-rank @p p-th percentile of @p n
 *  samples: the count a tail estimate rests on. */
inline std::size_t
samplesBeyond(std::size_t n, double p)
{
    if (n == 0)
        return 0;
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
    return n - std::max<std::size_t>(rank, 1);
}

/** A tail percentile is reported only with at least this many samples
 *  beyond it; fewer and it would be an anecdote, not a percentile. */
inline constexpr std::size_t kMinSamplesBeyond = 10;

/** True when @p n samples support reporting the @p p-th percentile. */
inline bool
supportsPercentile(std::size_t n, double p)
{
    return p <= 50.0 ? n > 0 : samplesBeyond(n, p) >= kMinSamplesBeyond;
}

/** Nearest-rank percentile (p in (0, 100]); @p v need not be sorted. */
inline double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        throw std::invalid_argument("percentile: no samples");
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size()) - 1e-9));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/** Median as the mean of the two middle samples for an even count. */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        throw std::invalid_argument("median: no samples");
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ------------------------------------------------------------ best times

/** Repetitions each operation needs before its best time is reported. */
inline constexpr std::size_t kMinBestReps = 5;

/**
 * Best (lowest) time of each operation of a fixed, seeded set across
 * its repetitions in one run. On a shared host whose speed moves by 2x
 * or more from second to second (contention the guest cannot see: no
 * steal, CPU time grows with wall time), the median and the tails of a
 * run track the host's load, while an operation cannot run faster than
 * its own cost, so its best repetition is the steady statistic
 * (README.md, "Why best times").
 */
class BestTimes
{
  public:
    explicit BestTimes(std::size_t ops)
        : best_(ops, std::numeric_limits<double>::infinity()), reps_(ops, 0)
    {
    }

    void add(std::size_t op, double t)
    {
        best_.at(op) = std::min(best_[op], t);
        ++reps_[op];
    }

    std::size_t ops() const { return best_.size(); }

    /** Fewest repetitions of any operation. */
    std::size_t minReps() const
    {
        return reps_.empty()
                   ? 0
                   : *std::min_element(reps_.begin(), reps_.end());
    }

    /** Best time of the whole set: the sum of the per-operation bests. */
    double sum() const
    {
        double s = 0.0;
        for (double b : best_)
            s += b;
        return s;
    }

    /** Median over operations of their best times. */
    double median() const { return fabbench::median(best_); }

  private:
    std::vector<double> best_;
    std::vector<std::size_t> reps_;
};

// ------------------------------------------------------ seeded randomness

/** splitmix64: a fully specified generator, so a seed reproduces the
 *  same inputs on every standard library (std:: distributions are not
 *  specified bit for bit). */
class SplitMix
{
  public:
    explicit SplitMix(std::uint64_t seed) : s_(seed) {}

    std::uint64_t next()
    {
        std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, 1) with 53 random bits. */
    double uniform() { return static_cast<double>(next() >> 11) * 0x1p-53; }

    /** Uniform integer in [lo, hi]. */
    int range(int lo, int hi)
    {
        const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
        return lo + static_cast<int>(next() % span);
    }

  private:
    std::uint64_t s_;
};

/** Stream seed for one named input of a run: workloads draw from
 *  independent streams, so adding one input never shifts another. */
inline std::uint64_t
streamSeed(std::uint64_t seed, std::uint64_t stream)
{
    return SplitMix(seed * 0x100000001B3ull ^ stream).next();
}

/**
 * Open-loop Poisson arrival offsets (seconds from the phase start) at
 * @p rate per second over @p duration seconds. Exponential gaps by
 * inversion of a splitmix64 uniform, so the schedule is a pure
 * function of (seed, rate, duration).
 */
inline std::vector<double>
poissonSchedule(std::uint64_t seed, double rate, double duration)
{
    if (!(rate > 0.0) || !(duration > 0.0))
        throw std::invalid_argument("poissonSchedule: rate and duration "
                                    "must be positive");
    SplitMix rng(seed);
    std::vector<double> at;
    double t = 0.0;
    for (;;) {
        t += -std::log1p(-rng.uniform()) / rate;
        if (t >= duration)
            return at;
        at.push_back(t);
    }
}

// ------------------------------------------------------------------ spans

/** One traced interval. parent and request are -1 when absent. */
struct Span
{
    const char *name = "";
    double start_us = 0.0; ///< from the trace origin
    double end_us = 0.0;
    std::int64_t id = -1;
    std::int64_t parent = -1;
    std::int64_t request = -1;
};

/**
 * In-memory span trace. Disabled, every call is one branch and records
 * nothing; enabled, spans are appended under a mutex (the decode token
 * callbacks record from the engine's scheduler thread) and written out
 * once, when the run ends.
 */
class Trace
{
  public:
    explicit Trace(bool enabled) : enabled_(enabled) {}

    /** Record a finished span; returns its id (-1 when disabled). */
    std::int64_t record(const char *name, Clock::time_point start,
                        Clock::time_point end, std::int64_t parent = -1,
                        std::int64_t request = -1)
    {
        if (!enabled_)
            return -1;
        std::lock_guard<std::mutex> lk(mu_);
        Span s;
        s.name = name;
        s.start_us = 1e6 * secondsBetween(origin_, start);
        s.end_us = 1e6 * secondsBetween(origin_, end);
        s.id = static_cast<std::int64_t>(spans_.size());
        s.parent = parent;
        s.request = request;
        spans_.push_back(s);
        return s.id;
    }

    /** Reserve an id for a parent whose end is not known yet; finish()
     *  fills it in. Children may name the id in between. */
    std::int64_t open(const char *name, Clock::time_point start,
                      std::int64_t parent = -1, std::int64_t request = -1)
    {
        return record(name, start, start, parent, request);
    }

    void finish(std::int64_t id, Clock::time_point end)
    {
        if (!enabled_ || id < 0)
            return;
        std::lock_guard<std::mutex> lk(mu_);
        spans_[static_cast<std::size_t>(id)].end_us =
            1e6 * secondsBetween(origin_, end);
    }

    std::vector<Span> spans() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return spans_;
    }

    /** Chrome trace-event JSON (chrome://tracing, Perfetto): one
     *  complete event per span, parent and request id in args. */
    bool writeJson(const std::string &path) const
    {
        std::ofstream out(path);
        if (!out)
            return false;
        std::lock_guard<std::mutex> lk(mu_);
        out << "{\"traceEvents\": [\n";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            char buf[320];
            std::snprintf(buf, sizeof buf,
                          "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                          "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                          "\"args\": {\"id\": %lld, \"parent\": %lld, "
                          "\"request\": %lld}}%s\n",
                          s.name, s.start_us, s.end_us - s.start_us,
                          static_cast<long long>(s.id),
                          static_cast<long long>(s.parent),
                          static_cast<long long>(s.request),
                          i + 1 < spans_.size() ? "," : "");
            out << buf;
        }
        out << "]}\n";
        return static_cast<bool>(out);
    }

  private:
    bool enabled_;
    Clock::time_point origin_ = Clock::now();
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/**
 * Self time of every span, in microseconds, indexed like @p spans: the
 * span's duration minus the part of its interval that its children
 * cover. Overlapping children (concurrent requests under one phase)
 * are counted once, and child time outside the parent is ignored.
 */
inline std::vector<double>
selfTimesUs(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
    for (const Span &s : spans)
        if (s.parent >= 0 &&
            static_cast<std::size_t>(s.parent) < spans.size())
            kids[static_cast<std::size_t>(s.parent)].emplace_back(
                s.start_us, s.end_us);
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const double lo = spans[i].start_us, hi = spans[i].end_us;
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        double covered = 0.0, cur_lo = 0.0, cur_hi = 0.0;
        bool open = false;
        for (auto [a, b] : iv) {
            a = std::max(a, lo);
            b = std::min(b, hi);
            if (b <= a)
                continue;
            if (open && a <= cur_hi) {
                cur_hi = std::max(cur_hi, b);
                continue;
            }
            if (open)
                covered += cur_hi - cur_lo;
            cur_lo = a;
            cur_hi = b;
            open = true;
        }
        if (open)
            covered += cur_hi - cur_lo;
        self[i] = (hi - lo) - covered;
    }
    return self;
}

// ---------------------------------------------------------- layer sums

/** Sum of per-layer self times over the whole-model time they should
 *  add up to (1.0 = the layer spans cover the model span exactly). */
inline double
layerSumRatio(const std::vector<double> &layer_ms, double model_ms)
{
    if (!(model_ms > 0.0))
        throw std::invalid_argument("layerSumRatio: model time must be "
                                    "positive");
    double sum = 0.0;
    for (double v : layer_ms)
        sum += v;
    return sum / model_ms;
}

/** Tolerance on nn.layer_sum_ratio.*: the standalone layers, fed the
 *  model's own RowSets, must account for the model span within 20%
 *  (residual adds, tensor copies and, for training, loss and gradient
 *  clipping are the glue no layer span covers). */
inline constexpr double kLayerSumLo = 0.8;
inline constexpr double kLayerSumHi = 1.2;

inline bool
layerSumWithinTolerance(double ratio)
{
    return ratio >= kLayerSumLo && ratio <= kLayerSumHi;
}

// ---------------------------------------------------------------- output

/** Ordered name -> (value, unit) table, printed as the result line. */
class Metrics
{
  public:
    void set(const std::string &name, double value, const char *unit)
    {
        for (auto &m : rows_)
            if (m.name == name) {
                m.value = value;
                m.unit = unit;
                return;
            }
        rows_.push_back({name, value, unit});
    }

    bool has(const std::string &name) const
    {
        for (const auto &m : rows_)
            if (m.name == name)
                return true;
        return false;
    }

    double get(const std::string &name) const
    {
        for (const auto &m : rows_)
            if (m.name == name)
                return m.value;
        throw std::out_of_range("metric not set: " + name);
    }

    /** {"name": {"value": v, "unit": "u"}, ...} */
    std::string json() const
    {
        std::string s = "{";
        for (std::size_t i = 0; i < rows_.size(); ++i) {
            char buf[256];
            std::snprintf(buf, sizeof buf,
                          "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                          i ? ", " : "", rows_[i].name.c_str(),
                          rows_[i].value, rows_[i].unit);
            s += buf;
        }
        return s + "}";
    }

    struct Row
    {
        std::string name;
        double value;
        const char *unit;
    };
    const std::vector<Row> &rows() const { return rows_; }

  private:
    std::vector<Row> rows_;
};

} // namespace fabbench

#endif // FABBENCH_HARNESS_H
