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

} // namespace vsync::testutil

#endif // VSYNC_TESTS_TEST_UTIL_HH
