/**
 * @file
 * The lane-interleaved xoshiro256++ kernel behind
 * Rng::propagateUniformLanes.
 *
 * Lanes run in groups of eight. A group's generator states are gathered
 * into an interleaved block (word w of lane j at word[w][j]), so each
 * xoshiro state word is one vector on AVX-512 and two on AVX2; the
 * group advances in lockstep and the block is scattered back after the
 * pass. A group with fewer than eight real lanes pads with copies of
 * its first lane, whose draws are discarded: masked loads and stores
 * never touch the padding lanes' slots.
 *
 * Every ISA writes the scalar path's bytes:
 *  - the generator is u64 add/xor/shift/rotate, exact anywhere;
 *  - x = r >> 11 < 2^53, so x * 2^-53 is exact: on AVX-512DQ
 *    vcvtuqq2pd converts x exactly and the multiply by 2^-53 only
 *    shifts the exponent; on AVX2, r is split into hi = r >> 32 and
 *    lo = r & 0xfffff800 (bits 11-31, the rest of x), each planted in
 *    the mantissa of a magic double (2^20 + hi * 2^-32 and
 *    2^-12 + lo * 2^-64) whose bias is then subtracted exactly, and
 *    the sum of the two exact parts, x * 2^-53 < 1, is exact as well
 *    -- the very double the scalar static_cast<double>(x) * 0x1.0p-53
 *    yields;
 *  - lo + scale * (x * 2^-53) and parent + draw * wl are evaluated as
 *    separate multiplies and adds in the scalar expression order; the
 *    build pins -ffp-contract=off, so none of them is fused.
 * The ISA is picked per call (default: rngIsaBest(), detected once
 * with __builtin_cpu_supports); the SIMD kernels carry their own
 * target attributes, so the rest of the build stays baseline x86-64.
 */

#include <algorithm>

#include "common/logging.hh"
#include "common/rng.hh"

#if defined(__x86_64__)
#include <immintrin.h>
#define VSYNC_RNG_X86 1
#else
#define VSYNC_RNG_X86 0
#endif

namespace vsync
{

namespace
{

constexpr std::size_t groupLanes = 8;

/** Interleaved generator state of one lane group. */
struct alignas(64) LaneState
{
    std::uint64_t word[4][groupLanes];
};

/** One pass over a lane group's columns (rows already offset to the
 *  group's first lane). */
struct Pass
{
    double lo;
    double hi;
    const LaneSteps &steps;
    double *rows;
    std::size_t stride;
};

/** The scalar pass: each lane's own fillUniform bulk-fills its column
 *  of a 64-step draw chunk, then the chunk propagates row by row. */
void
passScalar(Rng *lanes, std::size_t m, const Pass &p)
{
    constexpr std::size_t chunk = 64;
    alignas(64) double draw[chunk * groupLanes];
    for (std::size_t k0 = 0; k0 < p.steps.count; k0 += chunk) {
        const std::size_t cnt = std::min(chunk, p.steps.count - k0);
        for (std::size_t j = 0; j < m; ++j)
            lanes[j].fillUniform(p.lo, p.hi, draw + j, cnt, groupLanes);
        for (std::size_t k = 0; k < cnt; ++k) {
            const double *src =
                p.rows +
                static_cast<std::size_t>(p.steps.from[k0 + k]) * p.stride;
            double *dst =
                p.rows +
                static_cast<std::size_t>(p.steps.to[k0 + k]) * p.stride;
            const double wl = p.steps.scale[k0 + k];
            const double *d = draw + k * groupLanes;
            for (std::size_t j = 0; j < m; ++j)
                dst[j] = src[j] + d[j] * wl;
        }
    }
}

#if VSYNC_RNG_X86

// GCC 12's AVX-512 shift and rotate intrinsics pass an
// _mm512_undefined_epi32() merge source that -Wmaybe-uninitialized
// reports at every use (GCC bug 105593, fixed in GCC 13).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

__attribute__((target("avx512f,avx512dq"))) void
passAvx512(LaneState &st, std::size_t m, const Pass &p)
{
    __m512i s0 = _mm512_load_si512(st.word[0]);
    __m512i s1 = _mm512_load_si512(st.word[1]);
    __m512i s2 = _mm512_load_si512(st.word[2]);
    __m512i s3 = _mm512_load_si512(st.word[3]);
    const __mmask8 mask = static_cast<__mmask8>((1u << m) - 1u);
    const __m512d lo = _mm512_set1_pd(p.lo);
    const __m512d scale = _mm512_set1_pd(p.hi - p.lo);
    const __m512d unit = _mm512_set1_pd(0x1.0p-53);
    for (std::size_t k = 0; k < p.steps.count; ++k) {
        const __m512i r = _mm512_add_epi64(
            _mm512_rol_epi64(_mm512_add_epi64(s0, s3), 23), s0);
        const __m512i t = _mm512_slli_epi64(s1, 17);
        s2 = _mm512_xor_si512(s2, s0);
        s3 = _mm512_xor_si512(s3, s1);
        s1 = _mm512_xor_si512(s1, s2);
        s0 = _mm512_xor_si512(s0, s3);
        s2 = _mm512_xor_si512(s2, t);
        s3 = _mm512_rol_epi64(s3, 45);
        const __m512d u = _mm512_mul_pd(
            _mm512_cvtepu64_pd(_mm512_srli_epi64(r, 11)), unit);
        const __m512d d = _mm512_add_pd(lo, _mm512_mul_pd(scale, u));
        const double *src =
            p.rows + static_cast<std::size_t>(p.steps.from[k]) * p.stride;
        double *dst =
            p.rows + static_cast<std::size_t>(p.steps.to[k]) * p.stride;
        const __m512d wl = _mm512_set1_pd(p.steps.scale[k]);
        const __m512d parent = _mm512_maskz_loadu_pd(mask, src);
        _mm512_mask_storeu_pd(dst, mask,
                              _mm512_add_pd(parent, _mm512_mul_pd(d, wl)));
    }
    _mm512_store_si512(st.word[0], s0);
    _mm512_store_si512(st.word[1], s1);
    _mm512_store_si512(st.word[2], s2);
    _mm512_store_si512(st.word[3], s3);
}

#pragma GCC diagnostic pop

template <int K>
__attribute__((target("avx2"))) inline __m256i
rotl256(__m256i x)
{
    return _mm256_or_si256(_mm256_slli_epi64(x, K),
                           _mm256_srli_epi64(x, 64 - K));
}

__attribute__((target("avx2"))) inline __m256i
load256(const std::uint64_t *p)
{
    return _mm256_load_si256(reinterpret_cast<const __m256i *>(p));
}

__attribute__((target("avx2"))) inline void
store256(std::uint64_t *p, __m256i v)
{
    _mm256_store_si256(reinterpret_cast<__m256i *>(p), v);
}

__attribute__((target("avx2"))) void
passAvx2(LaneState &st, std::size_t m, const Pass &p)
{
    // Lanes 0-3 and 4-7 are two independent halves of the group,
    // stepped together in one loop.
    __m256i s0[2], s1[2], s2[2], s3[2], mask[2];
    for (int h = 0; h < 2; ++h) {
        s0[h] = load256(st.word[0] + 4 * h);
        s1[h] = load256(st.word[1] + 4 * h);
        s2[h] = load256(st.word[2] + 4 * h);
        s3[h] = load256(st.word[3] + 4 * h);
        long long on[4];
        for (std::size_t j = 0; j < 4; ++j)
            on[j] = 4 * static_cast<std::size_t>(h) + j < m ? -1 : 0;
        mask[h] = _mm256_set_epi64x(on[3], on[2], on[1], on[0]);
    }
    const __m256d lo = _mm256_set1_pd(p.lo);
    const __m256d scale = _mm256_set1_pd(p.hi - p.lo);
    const __m256i loBits = _mm256_set1_epi64x(0xfffff800LL);
    // Exponent fields of 2^20 and 2^-12: a mantissa unit under 2^20
    // weighs 2^-32 and one under 2^-12 weighs 2^-64, so hi = r >> 32
    // plants hi * 2^-32 and lo = r & 0xfffff800 plants lo * 2^-64 =
    // (lo >> 11) * 2^-53.
    const __m256i hiExp = _mm256_set1_epi64x(0x4130000000000000LL);
    const __m256i loExp = _mm256_set1_epi64x(0x3f30000000000000LL);
    const __m256d hiBias = _mm256_set1_pd(0x1.0p20);
    const __m256d loBias = _mm256_set1_pd(0x1.0p-12);
    for (std::size_t k = 0; k < p.steps.count; ++k) {
        const double *src =
            p.rows + static_cast<std::size_t>(p.steps.from[k]) * p.stride;
        double *dst =
            p.rows + static_cast<std::size_t>(p.steps.to[k]) * p.stride;
        const __m256d wl = _mm256_set1_pd(p.steps.scale[k]);
        for (int h = 0; h < 2; ++h) {
            const __m256i r = _mm256_add_epi64(
                rotl256<23>(_mm256_add_epi64(s0[h], s3[h])), s0[h]);
            const __m256i t = _mm256_slli_epi64(s1[h], 17);
            s2[h] = _mm256_xor_si256(s2[h], s0[h]);
            s3[h] = _mm256_xor_si256(s3[h], s1[h]);
            s1[h] = _mm256_xor_si256(s1[h], s2[h]);
            s0[h] = _mm256_xor_si256(s0[h], s3[h]);
            s2[h] = _mm256_xor_si256(s2[h], t);
            s3[h] = rotl256<45>(s3[h]);
            const __m256d xHi = _mm256_sub_pd(
                _mm256_castsi256_pd(
                    _mm256_or_si256(_mm256_srli_epi64(r, 32), hiExp)),
                hiBias);
            const __m256d xLo = _mm256_sub_pd(
                _mm256_castsi256_pd(
                    _mm256_or_si256(_mm256_and_si256(r, loBits), loExp)),
                loBias);
            const __m256d u = _mm256_add_pd(xHi, xLo);
            const __m256d d = _mm256_add_pd(lo, _mm256_mul_pd(scale, u));
            const __m256d parent = _mm256_maskload_pd(src + 4 * h, mask[h]);
            _mm256_maskstore_pd(dst + 4 * h, mask[h],
                                _mm256_add_pd(parent, _mm256_mul_pd(d, wl)));
        }
    }
    for (int h = 0; h < 2; ++h) {
        store256(st.word[0] + 4 * h, s0[h]);
        store256(st.word[1] + 4 * h, s1[h]);
        store256(st.word[2] + 4 * h, s2[h]);
        store256(st.word[3] + 4 * h, s3[h]);
    }
}

#endif // VSYNC_RNG_X86

} // namespace

const char *
rngIsaName(RngIsa isa)
{
    switch (isa) {
    case RngIsa::Scalar:
        return "scalar";
    case RngIsa::Avx2:
        return "avx2";
    case RngIsa::Avx512:
        return "avx512";
    }
    return "unknown";
}

bool
rngIsaSupported(RngIsa isa)
{
    if (isa == RngIsa::Scalar)
        return true;
#if VSYNC_RNG_X86
    __builtin_cpu_init();
    if (isa == RngIsa::Avx2)
        return __builtin_cpu_supports("avx2");
    if (isa == RngIsa::Avx512)
        return __builtin_cpu_supports("avx2") &&
               __builtin_cpu_supports("avx512f") &&
               __builtin_cpu_supports("avx512dq");
#endif
    return false;
}

RngIsa
rngIsaBest()
{
    static const RngIsa best = [] {
        for (const RngIsa isa : {RngIsa::Avx512, RngIsa::Avx2}) {
            if (rngIsaSupported(isa))
                return isa;
        }
        return RngIsa::Scalar;
    }();
    return best;
}

void
Rng::propagateUniformLanes(std::span<Rng> lanes, double lo, double hi,
                           const LaneSteps &steps, double *rows,
                           std::size_t stride, RngIsa isa)
{
    VSYNC_ASSERT(lo <= hi, "bad uniform range [%g, %g)", lo, hi);
    VSYNC_ASSERT(stride >= lanes.size(), "stride %zu for %zu lanes",
                 stride, lanes.size());
    VSYNC_ASSERT(rngIsaSupported(isa), "this host cannot run %s",
                 rngIsaName(isa));
    // Per 8-lane group: gather, run the ISA's pass, scatter back.
    for (std::size_t g0 = 0; g0 < lanes.size(); g0 += groupLanes) {
        const std::size_t m = std::min(groupLanes, lanes.size() - g0);
        Rng *group = lanes.data() + g0;
        const Pass pass{lo, hi, steps, rows + g0, stride};
        if (isa == RngIsa::Scalar) {
            passScalar(group, m, pass);
            continue;
        }
#if VSYNC_RNG_X86
        LaneState st;
        for (std::size_t j = 0; j < groupLanes; ++j) {
            const Rng &src = group[j < m ? j : 0];
            for (int w = 0; w < 4; ++w)
                st.word[w][j] = src.s[w];
        }
        if (isa == RngIsa::Avx512)
            passAvx512(st, m, pass);
        else
            passAvx2(st, m, pass);
        for (std::size_t j = 0; j < m; ++j) {
            for (int w = 0; w < 4; ++w)
                group[j].s[w] = st.word[w][j];
            group[j].drawCount += steps.count;
        }
#endif
    }
}

} // namespace vsync
