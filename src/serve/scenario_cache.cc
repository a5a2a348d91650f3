#include "serve/scenario_cache.hh"

#include <bit>
#include <chrono>
#include <string>

#include "clocktree/clock_tree.hh"
#include "common/logging.hh"
#include "layout/layout.hh"
#include "obs/metrics.hh"

namespace vsync::serve
{

namespace
{

/** Name prefix of the cache's counters and compile gauge. */
const std::string metricsPrefix = "serve.cache.";

/**
 * Two independent FNV-1a streams over the same word sequence. A single
 * 64-bit hash keyed over thousands of doubles would make silent
 * cross-scenario collisions merely unlikely; two streams with distinct
 * offsets/primes make them negligible for any realistic cache lifetime.
 */
struct Hash128
{
    std::uint64_t lo = 0xcbf29ce484222325ull;
    std::uint64_t hi = 0x9e3779b97f4a7c15ull;

    void
    word(std::uint64_t w)
    {
        lo = (lo ^ w) * 0x100000001b3ull;
        hi = (hi ^ w) * 0xff51afd7ed558ccdull;
        hi ^= hi >> 29;
    }

    void
    real(double v)
    {
        // Bit pattern, not value: -0.0 and 0.0 hash apart, which is
        // fine -- equality of content implies equality of bits here
        // because keys come from deterministic builders.
        word(std::bit_cast<std::uint64_t>(v));
    }
};

} // namespace

ScenarioKey
scenarioKeyOf(const layout::Layout &l, const clocktree::ClockTree *t)
{
    Hash128 h;
    // Domain tag first: pairs-only and tree-compiled kernels answer
    // different queries, so they must never share a key.
    h.word(t ? 0x7265656bull : 0x72696170ull);

    h.word(l.size());
    h.word(l.comm().edgeCount());
    for (const graph::Edge &e : l.comm().allEdges()) {
        h.word(static_cast<std::uint64_t>(e.src));
        h.word(static_cast<std::uint64_t>(e.dst));
    }
    for (const geom::Point &p : l.positions()) {
        h.real(p.x);
        h.real(p.y);
    }

    if (t) {
        h.word(t->size());
        for (NodeId v = 0; v < static_cast<NodeId>(t->size()); ++v) {
            h.word(static_cast<std::uint64_t>(
                t->structure().parent(v)));
            h.real(t->wireLength(v));
            h.real(t->position(v).x);
            h.real(t->position(v).y);
        }
        for (CellId c = 0; c < static_cast<CellId>(l.size()); ++c)
            h.word(static_cast<std::uint64_t>(t->nodeOfCell(c)));
    }

    return ScenarioKey{h.lo, h.hi};
}

ScenarioCache::ScenarioCache() : ScenarioCache(Config{}) {}

ScenarioCache::ScenarioCache(Config config) : cfg(std::move(config))
{
    VSYNC_ASSERT(cfg.capacity >= 1, "cache capacity must be >= 1");
}

std::shared_ptr<const core::SkewKernel>
ScenarioCache::get(const layout::Layout &l, const clocktree::ClockTree &t)
{
    return getOrCompile(scenarioKeyOf(l, &t), l, &t);
}

std::shared_ptr<const core::SkewKernel>
ScenarioCache::get(const layout::Layout &l)
{
    return getOrCompile(scenarioKeyOf(l, nullptr), l, nullptr);
}

core::KernelProvider
ScenarioCache::provider()
{
    return [this](const layout::Layout &l, const clocktree::ClockTree *t) {
        return t ? get(l, *t) : get(l);
    };
}

std::size_t
ScenarioCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return entries.size();
}

double
ScenarioCache::compileMillis() const
{
    return compileMs.load(std::memory_order_relaxed);
}

ScenarioCache::KernelPtr
ScenarioCache::getOrCompile(const ScenarioKey &key,
                            const layout::Layout &l,
                            const clocktree::ClockTree *t)
{
    std::shared_future<KernelPtr> future;
    std::promise<KernelPtr> promise;
    bool compiler = false;
    std::uint64_t myGeneration = 0;

    {
        std::lock_guard<std::mutex> lock(mutex);
        auto it = entries.find(key);
        if (it != entries.end()) {
            // Hit (possibly on a compile still in flight -- we then
            // block on the future below, outside the lock).
            lru.splice(lru.begin(), lru, it->second.lruPos);
            future = it->second.kernel;
            hitCount.fetch_add(1, std::memory_order_relaxed);
            if (cfg.metrics)
                cfg.metrics->counter(metricsPrefix + "hits").inc();
        } else {
            // Miss: insert the future as a placeholder before
            // compiling, so concurrent callers of the same scenario
            // wait instead of compiling again.
            future = promise.get_future().share();
            myGeneration = ++nextGeneration;
            lru.push_front(key);
            entries.emplace(key, Entry{future, lru.begin(), myGeneration});
            compiler = true;
            missCount.fetch_add(1, std::memory_order_relaxed);
            if (cfg.metrics)
                cfg.metrics->counter(metricsPrefix + "misses").inc();
            while (entries.size() > cfg.capacity) {
                // Evict coldest. Waiters on an evicted in-flight entry
                // are unaffected: they hold the shared state.
                entries.erase(lru.back());
                lru.pop_back();
                evictionCount.fetch_add(1, std::memory_order_relaxed);
                if (cfg.metrics)
                    cfg.metrics
                        ->counter(metricsPrefix + "evictions")
                        .inc();
            }
        }
    }

    if (compiler) {
        try {
            const auto t0 = std::chrono::steady_clock::now();
            KernelPtr kernel =
                t ? std::make_shared<const core::SkewKernel>(l, *t)
                  : std::make_shared<const core::SkewKernel>(l);
            const std::chrono::duration<double, std::milli> dt =
                std::chrono::steady_clock::now() - t0;
            noteCompiled(dt.count());
            promise.set_value(std::move(kernel));
        } catch (...) {
            // Poisoned entries must not persist: drop ours -- and only
            // ours; after an eviction the slot may hold a fresh compile
            // of the same scenario -- so the next get() retries.
            promise.set_exception(std::current_exception());
            std::lock_guard<std::mutex> lock(mutex);
            auto it = entries.find(key);
            if (it != entries.end() &&
                it->second.generation == myGeneration) {
                lru.erase(it->second.lruPos);
                entries.erase(it);
            }
        }
    }

    return future.get();
}

void
ScenarioCache::noteCompiled(double ms)
{
    double cur = compileMs.load(std::memory_order_relaxed);
    while (!compileMs.compare_exchange_weak(cur, cur + ms,
                                            std::memory_order_relaxed))
        ;
    if (cfg.metrics)
        cfg.metrics->gauge(metricsPrefix + "compile_ms").add(ms);
}

} // namespace vsync::serve
