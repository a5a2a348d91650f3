/**
 * @file
 * The in-process reference the served and distributed results are
 * checked against: wire requests turned into serve::SweepRequests
 * exactly as net::ScenarioServer turns them, and bitwise comparisons
 * of replies and outcomes with a direct serve::SweepService run.
 */

#ifndef PERFBENCH_REFERENCE_HH
#define PERFBENCH_REFERENCE_HH

#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "clocktree/clock_tree.hh"
#include "layout/layout.hh"
#include "net/protocol.hh"
#include "serve/sweep_service.hh"

namespace perfbench
{

/** Owns the layouts and trees the requests it builds borrow. */
class LocalScenarios
{
  public:
    /** The in-process request ScenarioServer would run for @p rq. */
    vsync::serve::SweepRequest request(const vsync::net::WireRequest &rq);

  private:
    struct Scenario
    {
        vsync::layout::Layout layout;
        vsync::clocktree::ClockTree tree;
    };
    std::map<std::tuple<int, int, int>, std::unique_ptr<Scenario>> scenarios;
};

/** Bitwise equality of two sample vectors. */
bool sameBits(const std::vector<double> &a, const std::vector<double> &b);

/** A wire reply carries exactly the reference outcome's bytes. */
bool replyMatches(const vsync::net::WireRequest &rq,
                  const vsync::net::WireResponse &rsp,
                  const vsync::serve::RequestOutcome &want);

/** Two outcomes agree sample for sample and statistic for statistic. */
bool outcomeMatches(const vsync::serve::RequestOutcome &got,
                    const vsync::serve::RequestOutcome &want);

} // namespace perfbench

#endif // PERFBENCH_REFERENCE_HH
