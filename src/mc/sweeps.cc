#include "mc/sweeps.hh"

#include <algorithm>

#include "circuit/inverter_string.hh"
#include "circuit/yield.hh"
#include "common/logging.hh"
#include "core/skew_kernel.hh"
#include "systolic/selftimed.hh"

namespace vsync::mc
{

McResult
skewSweep(const layout::Layout &l, const clocktree::ClockTree &t,
          const core::WireDelay &delay, const McConfig &cfg,
          const core::KernelProvider &kernels)
{
    // One kernel fetch for the scenario, shared read-only by every
    // worker; a kernel is immutable after construction, so no warm-up
    // or locking is needed before the threads start. A caching
    // provider amortises the compile across sweeps as well.
    const std::shared_ptr<const core::SkewKernel> kernel = kernels(l, &t);
    McResult r;
    r.samples.assign(cfg.trials, 0.0);
    runChunks(cfg, [&](std::size_t begin, std::size_t end) {
        std::vector<Time> scratch; // reused across the chunk's blocks
        return kernel->sampleMaxCommSkewRange(
            delay, cfg.seed, begin, {r.samples.data() + begin, end - begin},
            scratch);
    });
    reduceInTrialOrder(r);
    if (cfg.metrics)
        kernel->exportMetrics(*cfg.metrics,
                              "mc." + cfg.metricsName + ".kernel.");
    return r;
}

McResult
chipCycleSweep(const circuit::ProcessParams &process, int n,
               const McConfig &cfg)
{
    return runTrials(cfg, [&](std::uint64_t, Rng &rng) {
        circuit::InverterString s(n, process, rng);
        return s.pipelinedCycleAnalytic();
    });
}

double
yieldAtCycleTimeMc(const circuit::ProcessParams &process, int n,
                   Time period, const McConfig &cfg)
{
    VSYNC_ASSERT(cfg.trials >= 1, "need at least one chip");
    const McResult cycles = chipCycleSweep(process, n, cfg);
    const std::size_t good = static_cast<std::size_t>(std::count_if(
        cycles.samples.begin(), cycles.samples.end(),
        [period](double c) { return c <= period; }));
    return static_cast<double>(good) /
           static_cast<double>(cycles.samples.size());
}

McResult
selfTimedCycleSweep(const systolic::SystolicArray &array, int firings,
                    double p_fast, Time fast, Time slow,
                    const McConfig &cfg)
{
    array.validate(); // validate once, not per trial per thread
    return runTrials(cfg, [&](std::uint64_t, Rng &rng) {
        const auto speeds = systolic::bernoulliServiceTimes(
            array.size(), p_fast, fast, slow, rng);
        const auto res = systolic::runSelfTimed(
            array, firings, systolic::serviceFromSpeeds(speeds), true);
        return res.steadyCycle;
    });
}

McResult
hybridCycleSweep(const hybrid::HybridNetwork &net, int rounds,
                 const McConfig &cfg)
{
    VSYNC_ASSERT(net.params().jitterAmplitude > 0.0,
                 "jitter-free hybrid runs are deterministic; call "
                 "simulate() once instead");
    return runTrials(cfg, [&](std::uint64_t, Rng &rng) {
        return net.simulate(rounds, &rng).steadyCycle;
    });
}

} // namespace vsync::mc
