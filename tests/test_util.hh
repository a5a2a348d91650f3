/**
 * @file
 * Shared helpers for the test binaries.
 */

#ifndef VSYNC_TESTS_TEST_UTIL_HH
#define VSYNC_TESTS_TEST_UTIL_HH

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "clocktree/clock_tree.hh"
#include "common/rng.hh"

namespace vsync::testutil
{

/**
 * Select the "threadsafe" death-test style, which re-executes the test
 * binary instead of forking mid-run. GTEST_FLAG_SET only exists from
 * GoogleTest 1.12 on; older releases (the toolchain ships 1.11) expose
 * the flag as a plain global.
 */
inline void
useThreadsafeDeathTests()
{
#if defined(GTEST_FLAG_SET)
    GTEST_FLAG_SET(death_test_style, "threadsafe");
#else
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
#endif
}

/** FNV-1a over the bit patterns of doubles (golden digests). */
class Fnv
{
  public:
    void
    add(double v)
    {
        std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
        for (int b = 0; b < 8; ++b, bits >>= 8) {
            h ^= bits & 0xff;
            h *= 0x100000001b3ULL;
        }
    }

    void
    add(const std::vector<double> &vs)
    {
        for (const double v : vs)
            add(v);
    }

    std::string
    hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(h));
        return buf;
    }

  private:
    std::uint64_t h = 0xcbf29ce484222325ULL;
};

/**
 * Compare @p got with the golden file @p path byte for byte. With
 * VSYNC_REGEN_GOLDEN set in the environment the file is rewritten from
 * @p got first -- only for an intended change of results; @p binary
 * names the test binary in the regeneration hint.
 */
inline void
expectMatchesGolden(const std::string &path, const std::string &got,
                    const std::string &binary)
{
    if (std::getenv("VSYNC_REGEN_GOLDEN")) {
        std::ofstream file(path);
        file << got;
        ASSERT_TRUE(file.good()) << "failed to write " << path;
    }

    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "missing golden file " << path
                           << " (regenerate with VSYNC_REGEN_GOLDEN=1 ./"
                           << binary << ")";
    std::ostringstream want;
    want << in.rdbuf();
    EXPECT_EQ(got, want.str())
        << "sample bits diverged from the golden digests in " << path;
}

/** A random binary tree with no cell bound: node v's parent is drawn
 *  uniformly from the nodes that still have a free child slot, so
 *  shapes range from paths to balanced trees and ids are topological
 *  but not DFS pre-order. */
inline clocktree::ClockTree
randomShape(std::size_t n, Rng &rng)
{
    clocktree::ClockTree t;
    t.addRoot({0.0, 0.0});
    std::vector<NodeId> open{0}; // nodes with < 2 children
    std::vector<int> kids(n, 0);
    for (std::size_t v = 1; v < n; ++v) {
        const std::size_t pick = rng.uniformInt(open.size());
        const NodeId p = open[pick];
        t.addChild(p, {rng.uniform(-10.0, 10.0),
                       rng.uniform(-10.0, 10.0)});
        if (++kids[p] == 2) {
            open[pick] = open.back();
            open.pop_back();
        }
        open.push_back(static_cast<NodeId>(v));
    }
    return t;
}

/** randomShape() with cells 0 and 1 bound to the root and the last
 *  node to satisfy A4 (pair it with layout::linearLayout(2)). */
inline clocktree::ClockTree
randomTree(std::size_t n, Rng &rng)
{
    clocktree::ClockTree t = randomShape(n, rng);
    t.bindCell(0, 0);
    t.bindCell(static_cast<NodeId>(n - 1), 1);
    return t;
}

/** Every lane-kernel ISA this host can run, Scalar first. */
inline std::vector<RngIsa>
supportedRngIsas()
{
    std::vector<RngIsa> out;
    for (const RngIsa isa :
         {RngIsa::Scalar, RngIsa::Avx2, RngIsa::Avx512}) {
        if (rngIsaSupported(isa))
            out.push_back(isa);
    }
    return out;
}

} // namespace vsync::testutil

#endif // VSYNC_TESTS_TEST_UTIL_HH
