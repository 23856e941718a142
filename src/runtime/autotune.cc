#include "runtime/autotune.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <vector>

#include "runtime/dispatch.h"
#include "runtime/kernels.h"
#include "runtime/parallel.h"

#ifndef FABNET_BUILD_HASH
#define FABNET_BUILD_HASH "unknown"
#endif

namespace fabnet {
namespace runtime {

namespace {

enum class Family : int { F32 = 0, F16 = 1, I8 = 2 };

const char *
familyName(Family f)
{
    switch (f) {
    case Family::F32:
        return "f32";
    case Family::F16:
        return "f16";
    case Family::I8:
        return "i8";
    }
    return "?";
}

bool
parseFamily(const std::string &s, Family &out)
{
    if (s == "f32")
        out = Family::F32;
    else if (s == "f16")
        out = Family::F16;
    else if (s == "i8")
        out = Family::I8;
    else
        return false;
    return true;
}

struct Key
{
    Family family;
    std::size_t m, k, n, threads;

    bool operator<(const Key &o) const
    {
        if (family != o.family)
            return static_cast<int>(family) < static_cast<int>(o.family);
        if (m != o.m)
            return m < o.m;
        if (k != o.k)
            return k < o.k;
        if (n != o.n)
            return n < o.n;
        return threads < o.threads;
    }
};

struct Entry
{
    GemmPlan plan;
    double gflops; ///< measured rate of the chosen plan (0 = loaded)
};

/** Shapes below this many multiply-adds aren't worth a search: the
 *  panel finishes in microseconds and the default plan is within
 *  noise. They get the default plan without a cache entry. */
constexpr std::size_t kTuneMinMadds = std::size_t{1} << 21;

/**
 * Tuning keys bucket the row dimension to the next power of two
 * (capped): m is the batch/ragged axis and jitters with every batch
 * composition - the valid-row total of a ragged flush group is
 * different almost every time - so keying on the exact m would
 * re-run the search (and stall the serving path for tens of ms)
 * on each new composition. Tile and grain choice depend on m only
 * coarsely; nearby row counts share one plan. k and n are weight
 * dimensions, fixed per layer, and stay exact.
 */
std::size_t
bucketRows(std::size_t m)
{
    std::size_t b = 1;
    while (b < m && b < std::size_t{4096})
        b <<= 1;
    return b;
}

/** The historical fixed configuration: 4x32 tile, 8-row grain. */
constexpr GemmPlan kDefaultPlan = {kDefaultGemmKernel, 8};

struct TuneState
{
    std::mutex mu;
    std::map<Key, Entry> entries;
    bool search_enabled = true;
    std::string cache_path; ///< empty = in-memory only
    bool env_loaded = false;
};

TuneState &
state()
{
    static TuneState s;
    return s;
}

/** Cache-file header fields that must match for entries to be valid
 *  on this host/build/isa. */
std::string
cacheIdentity()
{
    std::string id = "cpu=";
    id += cpuSignature();
    id += " build=";
    id += FABNET_BUILD_HASH;
    id += " isa=";
    id += isa();
    return id;
}

/** A whole unsigned decimal: digits only - no sign (a '-' would wrap
 *  through a size_t read), no trailing text, no overflow. */
bool
parseCount(const std::string &s, std::size_t &out)
{
    if (s.empty() || s.size() > 18) // 10^18 < 2^64: cannot overflow
        return false;
    std::size_t n = 0;
    for (const char c : s) {
        if (c < '0' || c > '9')
            return false;
        n = n * 10 + static_cast<std::size_t>(c - '0');
    }
    out = n;
    return true;
}

/** One cache entry line: exactly "family m k n threads mk grain
 *  gflops" with positive sizes, a known tile and a finite,
 *  non-negative rate. Anything else is rejected whole. */
bool
parseEntryLine(const std::string &line, Key &key, Entry &e)
{
    std::istringstream ls(line);
    std::vector<std::string> f;
    for (std::string tok; ls >> tok;)
        f.push_back(tok);
    std::size_t mk = 0;
    if (f.size() != 8 || !parseFamily(f[0], key.family) ||
        !parseCount(f[1], key.m) || !parseCount(f[2], key.k) ||
        !parseCount(f[3], key.n) || !parseCount(f[4], key.threads) ||
        !parseCount(f[5], mk) || !parseCount(f[6], e.plan.grain))
        return false;
    char *end = nullptr;
    e.gflops = std::strtod(f[7].c_str(), &end);
    if (*end != '\0' || !std::isfinite(e.gflops) || e.gflops < 0.0)
        return false;
    if (key.m == 0 || key.k == 0 || key.n == 0 || key.threads == 0 ||
        e.plan.grain == 0 ||
        mk >= static_cast<std::size_t>(kNumGemmKernels))
        return false;
    e.plan.mk = static_cast<int>(mk);
    return true;
}

bool
loadCacheLocked(TuneState &s, const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::string header;
    std::getline(in, header);
    if (header != "# fabnet-tune v1")
        return false;
    std::string identity;
    std::getline(in, identity);
    if (identity != "# " + cacheIdentity()) {
        std::fprintf(stderr,
                     "fabnet: tuning cache %s was written for a "
                     "different cpu/build/isa; ignoring it\n",
                     path.c_str());
        return false;
    }
    std::string line;
    std::size_t loaded = 0;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        Key key;
        Entry e;
        if (!parseEntryLine(line, key, e))
            continue;
        s.entries[key] = e;
        ++loaded;
    }
    return loaded > 0;
}

bool
saveCacheLocked(TuneState &s, const std::string &path)
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        return false;
    out << "# fabnet-tune v1\n";
    out << "# " << cacheIdentity() << "\n";
    out << "# family m k n threads mk grain gflops\n";
    for (const auto &[key, e] : s.entries)
        out << familyName(key.family) << ' ' << key.m << ' ' << key.k
            << ' ' << key.n << ' ' << key.threads << ' ' << e.plan.mk
            << ' ' << e.plan.grain << ' ' << e.gflops << '\n';
    return static_cast<bool>(out);
}

/** One-time environment wiring (FABNET_AUTOTUNE, FABNET_TUNE_CACHE). */
void
initFromEnvLocked(TuneState &s)
{
    if (s.env_loaded)
        return;
    s.env_loaded = true;
    const char *env = std::getenv("FABNET_AUTOTUNE");
    const std::string mode = env ? env : "";
    if (mode == "off" || mode == "0")
        s.search_enabled = false;
    else if (!mode.empty() && mode != "on" && mode != "1")
        std::fprintf(stderr,
                     "fabnet: unknown FABNET_AUTOTUNE '%s' (on|1|off|0); "
                     "keeping autotuning on\n",
                     env);
    const char *path = std::getenv("FABNET_TUNE_CACHE");
    if (path && *path) {
        s.cache_path = path;
        loadCacheLocked(s, s.cache_path);
    }
}

/** Round @p grain to a multiple of the plan's row tile (>= mr). */
std::size_t
alignGrain(std::size_t grain, int mk)
{
    const std::size_t mr =
        static_cast<std::size_t>(kGemmKernels[mk].mr);
    if (grain < mr)
        return mr;
    return (grain / mr) * mr;
}

using Clock = std::chrono::steady_clock;

/** Wall time of one parallelFor'd panel run with the given plan. */
double
timedRun(Family family, const float *a, const float *b, float *c,
         const std::int8_t *a8, const std::int16_t *bp,
         const float *a_scale, const float *b_scale, std::size_t m,
         std::size_t k, std::size_t n, const GemmPlan &plan)
{
    const KernelTable &t = kernels();
    const auto t0 = Clock::now();
    parallelFor(0, m, plan.grain, [&](std::size_t r0, std::size_t r1) {
        if (family == Family::I8)
            t.gemm_i8(a8, bp, c, r0, r1, k, n, a_scale, b_scale,
                      nullptr);
        else
            t.gemm_f32(a, b, c, r0, r1, k, n, nullptr, plan.mk);
        if (family == Family::F16)
            for (std::size_t r = r0; r < r1; ++r)
                t.round_row_to_half(c + r * n, n);
    });
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Best-of-@p reps timing (min filters scheduler noise). */
double
bestTime(Family family, const float *a, const float *b, float *c,
         const std::int8_t *a8, const std::int16_t *bp,
         const float *a_scale, const float *b_scale, std::size_t m,
         std::size_t k, std::size_t n, const GemmPlan &plan, int reps)
{
    double best = 1e30;
    for (int r = 0; r < reps; ++r)
        best = std::min(best, timedRun(family, a, b, c, a8, bp,
                                       a_scale, b_scale, m, k, n,
                                       plan));
    return best;
}

/**
 * The search: time each candidate register tile at the default grain,
 * then each candidate grain with the winning tile. Scratch operands
 * are deterministic fills - plans affect speed, never bits, so the
 * values don't matter beyond being finite.
 */
Entry
searchPlan(const Key &key)
{
    const std::size_t m = key.m, k = key.k, n = key.n;
    std::vector<float> a, b, c(m * n, 0.0f);
    std::vector<std::int8_t> a8;
    std::vector<std::int16_t> bp;
    std::vector<float> a_scale, b_scale;
    if (key.family == Family::I8) {
        a8.assign(m * k, 0);
        for (std::size_t i = 0; i < a8.size(); ++i)
            a8[i] = static_cast<std::int8_t>((i % 255) - 127);
        std::vector<std::int8_t> b8(k * n, 0);
        for (std::size_t i = 0; i < b8.size(); ++i)
            b8[i] = static_cast<std::int8_t>((i % 251) - 125);
        bp.assign(((k + 1) / 2) * n * 2, 0);
        packInt8PairsB(b8.data(), bp.data(), k, n);
        a_scale.assign(m, 0.01f);
        b_scale.assign(n, 0.02f);
    } else {
        a.assign(m * k, 0.0f);
        b.assign(k * n, 0.0f);
        for (std::size_t i = 0; i < a.size(); ++i)
            a[i] = 0.001f * static_cast<float>(i % 1023);
        for (std::size_t i = 0; i < b.size(); ++i)
            b[i] = 0.002f * static_cast<float>(i % 511);
    }

    const int reps = 2;
    Entry best;
    best.plan = kDefaultPlan;
    best.plan.grain = alignGrain(kDefaultPlan.grain, best.plan.mk);
    // Warm up caches/pool once before any timing.
    bestTime(key.family, a.data(), b.data(), c.data(), a8.data(),
             bp.data(), a_scale.data(), b_scale.data(), m, k, n,
             best.plan, 1);
    double best_t = bestTime(key.family, a.data(), b.data(), c.data(),
                             a8.data(), bp.data(), a_scale.data(),
                             b_scale.data(), m, k, n, best.plan, reps);

    if (key.family != Family::I8) {
        // The int8 panel's tile shape is fixed by the packed layout.
        for (int mk = 0; mk < kNumGemmKernels; ++mk) {
            if (mk == kDefaultPlan.mk)
                continue;
            GemmPlan cand{mk, alignGrain(kDefaultPlan.grain, mk)};
            const double t = bestTime(
                key.family, a.data(), b.data(), c.data(), a8.data(),
                bp.data(), a_scale.data(), b_scale.data(), m, k, n,
                cand, reps);
            if (t < best_t) {
                best_t = t;
                best.plan = cand;
            }
        }
    }

    const std::size_t base_grains[] = {4, 8, 16, 32, 64};
    for (std::size_t g : base_grains) {
        const std::size_t grain = alignGrain(g, best.plan.mk);
        if (grain == best.plan.grain || grain > std::max(m, grain))
            continue;
        if (grain >= 2 * m && best.plan.grain >= m)
            continue; // both are "one chunk": identical execution
        GemmPlan cand{best.plan.mk, grain};
        const double t = bestTime(key.family, a.data(), b.data(),
                                  c.data(), a8.data(), bp.data(),
                                  a_scale.data(), b_scale.data(), m, k,
                                  n, cand, reps);
        if (t < best_t) {
            best_t = t;
            best.plan = cand;
        }
    }

    const double madds = static_cast<double>(m) *
                         static_cast<double>(k) *
                         static_cast<double>(n);
    best.gflops = best_t > 0.0 ? 2.0 * madds / best_t / 1e9 : 0.0;
    return best;
}

GemmPlan
plan(Family family, std::size_t m, std::size_t k, std::size_t n)
{
    if (m == 0 || k == 0 || n == 0)
        return kDefaultPlan;
    const std::size_t madds = m * k * n;
    if (madds < kTuneMinMadds)
        return kDefaultPlan;

    const Key key{family, bucketRows(m), k, n, numThreads()};
    TuneState &s = state();
    std::lock_guard<std::mutex> lk(s.mu);
    initFromEnvLocked(s);
    auto it = s.entries.find(key);
    if (it != s.entries.end())
        return it->second.plan;
    if (!s.search_enabled)
        return kDefaultPlan;
    const Entry e = searchPlan(key);
    s.entries[key] = e;
    if (!s.cache_path.empty())
        saveCacheLocked(s, s.cache_path);
    return e.plan;
}

} // namespace

GemmPlan
planGemmF32(std::size_t m, std::size_t k, std::size_t n)
{
    return plan(Family::F32, m, k, n);
}

GemmPlan
planGemmF16(std::size_t m, std::size_t k, std::size_t n)
{
    return plan(Family::F16, m, k, n);
}

GemmPlan
planGemmInt8(std::size_t m, std::size_t k, std::size_t n)
{
    return plan(Family::I8, m, k, n);
}

bool
autotuneEnabled()
{
    TuneState &s = state();
    std::lock_guard<std::mutex> lk(s.mu);
    initFromEnvLocked(s);
    return s.search_enabled;
}

std::string
tuningReport()
{
    TuneState &s = state();
    std::lock_guard<std::mutex> lk(s.mu);
    initFromEnvLocked(s);
    std::ostringstream out;
    out << "{\"isa\": \"" << isa() << "\", \"cpu_signature\": \""
        << cpuSignature() << "\", \"build\": \"" << FABNET_BUILD_HASH
        << "\", \"autotune\": \""
        << (s.search_enabled ? "on" : "off") << "\", \"entries\": [";
    bool first = true;
    for (const auto &[key, e] : s.entries) {
        if (!first)
            out << ", ";
        first = false;
        out << "{\"family\": \"" << familyName(key.family)
            << "\", \"m\": " << key.m << ", \"k\": " << key.k
            << ", \"n\": " << key.n << ", \"threads\": " << key.threads
            << ", \"mk\": " << e.plan.mk
            << ", \"mr\": " << kGemmKernels[e.plan.mk].mr
            << ", \"nr\": " << kGemmKernels[e.plan.mk].nr
            << ", \"grain\": " << e.plan.grain << ", \"gflops\": "
            << e.gflops << "}";
    }
    out << "]}";
    return out.str();
}

bool
loadTuneCache(const std::string &path)
{
    TuneState &s = state();
    std::lock_guard<std::mutex> lk(s.mu);
    initFromEnvLocked(s);
    return loadCacheLocked(s, path);
}

bool
saveTuneCache(const std::string &path)
{
    TuneState &s = state();
    std::lock_guard<std::mutex> lk(s.mu);
    initFromEnvLocked(s);
    return saveCacheLocked(s, path);
}

void
resetTuneCacheForTest()
{
    TuneState &s = state();
    std::lock_guard<std::mutex> lk(s.mu);
    s.entries.clear();
    s.search_enabled = true;
    s.cache_path.clear();
    s.env_loaded = false;
}

} // namespace runtime
} // namespace fabnet
