/**
 * @file
 * Content-addressed cache of compiled skew kernels.
 *
 * PR 4's core::SkewKernel made scenario compilation a one-time cost
 * per sweep, but every caller still compiled its own kernel per call:
 * the dominant serving pattern -- many batches of queries against the
 * same handful of (Layout, ClockTree) scenarios -- paid the compile
 * again and again. The ScenarioCache closes that gap: scenarios are
 * keyed by a content hash of their topology and geometry (not by
 * object identity, so two independently built but identical scenarios
 * share one kernel), kernels are handed out as shared_ptr<const> and
 * therefore safe to use read-only from any number of threads, and a
 * bounded LRU keeps the working set in check.
 *
 * Concurrency contract: get() is thread-safe. When several threads ask
 * for the same not-yet-cached scenario at once, exactly one compiles;
 * the others block on a shared_future and receive the same kernel
 * object. Eviction of an entry that is still being waited on is safe:
 * waiters hold the future's shared state, the cache merely forgets it.
 */

#ifndef VSYNC_SERVE_SCENARIO_CACHE_HH
#define VSYNC_SERVE_SCENARIO_CACHE_HH

#include <atomic>
#include <cstdint>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "core/skew_kernel.hh"

namespace vsync::obs
{
class MetricsRegistry;
} // namespace vsync::obs

namespace vsync::serve
{

/** 128-bit content hash identifying one compiled scenario. */
struct ScenarioKey
{
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;

    bool
    operator==(const ScenarioKey &o) const
    {
        return lo == o.lo && hi == o.hi;
    }
};

/**
 * The content hash a cache entry is addressed by: layout cell count,
 * communication edges (in id order), cell placements, and -- when a
 * tree is given -- the tree's parent structure, wire lengths, node
 * positions and cell bindings. Pairs-only keys (tree == nullptr) never
 * collide with tree keys for the same layout.
 */
ScenarioKey scenarioKeyOf(const layout::Layout &l,
                          const clocktree::ClockTree *t);

/** A bounded, thread-safe, LRU kernel cache. */
class ScenarioCache
{
  public:
    struct Config
    {
        /** Max resident kernels; at least 1. */
        std::size_t capacity = 32;
        /**
         * Optional registry receiving "serve.cache.hits" / "misses" /
         * "evictions" counters and a cumulative "serve.cache.compile_ms"
         * gauge (wall clock, so not bit-stable across runs).
         */
        obs::MetricsRegistry *metrics = nullptr;
    };

    ScenarioCache();
    explicit ScenarioCache(Config cfg);

    ScenarioCache(const ScenarioCache &) = delete;
    ScenarioCache &operator=(const ScenarioCache &) = delete;

    /**
     * The compiled kernel of scenario (l, t); compiles on first use.
     * The returned kernel is immutable and remains valid after
     * eviction for as long as the caller holds the pointer.
     */
    std::shared_ptr<const core::SkewKernel>
    get(const layout::Layout &l, const clocktree::ClockTree &t);

    /** Pairs-only form (TRIX-style scenarios with no clock tree). */
    std::shared_ptr<const core::SkewKernel> get(const layout::Layout &l);

    /**
     * This cache as a core::KernelProvider, pluggable into the
     * provider overloads of mc::skewSweep, mc::resilienceAtRate and
     * the fault drivers. The provider borrows the cache; keep the
     * cache alive while the provider is in use.
     */
    core::KernelProvider provider();

    /** Resident kernels (compiles in flight count). */
    std::size_t size() const;

    /** Lookups that found a resident or in-flight kernel. */
    std::uint64_t hits() const
    {
        return hitCount.load(std::memory_order_relaxed);
    }

    /** Lookups that had to compile. */
    std::uint64_t misses() const
    {
        return missCount.load(std::memory_order_relaxed);
    }

    /** Kernels evicted by the LRU bound. */
    std::uint64_t evictions() const
    {
        return evictionCount.load(std::memory_order_relaxed);
    }

    /** Wall-clock milliseconds spent compiling, cumulative. */
    double compileMillis() const;

  private:
    using KernelPtr = std::shared_ptr<const core::SkewKernel>;

    struct KeyHash
    {
        std::size_t
        operator()(const ScenarioKey &k) const
        {
            return static_cast<std::size_t>(k.lo ^ (k.hi >> 1));
        }
    };

    struct Entry
    {
        std::shared_future<KernelPtr> kernel;
        std::list<ScenarioKey>::iterator lruPos;
        /** Distinguishes re-inserted entries from the one a failed
         *  compile must remove. */
        std::uint64_t generation = 0;
    };

    KernelPtr getOrCompile(const ScenarioKey &key,
                           const layout::Layout &l,
                           const clocktree::ClockTree *t);
    void noteCompiled(double ms);

    Config cfg;
    mutable std::mutex mutex;
    std::unordered_map<ScenarioKey, Entry, KeyHash> entries;
    std::list<ScenarioKey> lru; // front = most recently used

    std::uint64_t nextGeneration = 0; // guarded by mutex
    std::atomic<std::uint64_t> hitCount{0};
    std::atomic<std::uint64_t> missCount{0};
    std::atomic<std::uint64_t> evictionCount{0};
    std::atomic<double> compileMs{0.0};
};

} // namespace vsync::serve

#endif // VSYNC_SERVE_SCENARIO_CACHE_HH
