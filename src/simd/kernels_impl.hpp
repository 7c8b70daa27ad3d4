// Width-generic SIMD codelet bodies — include ONLY from a translation unit
// compiled with the matching -m flags (kernels_avx2.cpp, kernels_avx512.cpp).
//
// Written against GCC/Clang vector extensions rather than <immintrin.h> so
// one body serves every width: vector add/sub/multiply lower to the ISA the
// TU is compiled for, and __builtin_shufflevector lowers to the in-register
// permutes (vshufpd / vperm2f128 / vshuff64x2) the stride-1 butterflies
// need.  Which templates are instantiated where is kept disjoint per TU
// (W = 4 only in the AVX2 unit, W = 8 only in the AVX-512 unit) so no
// function body ever ends up compiled with the wrong target flags.
//
// Register-resident contract: every tile body (radix_cols, leaf_unit<W, K>,
// the gather leaf) is compile-time in its radix, [[gnu::always_inline]] and
// fully unrolled (#pragma GCC unroll on constant trip counts), so its local
// vector array is scalarized into registers and a butterfly is one add and
// one sub on registers — no runtime-k loop, no call per tile, and no stack
// traffic beyond what the register file cannot hold (radix-32 on 16 ymm,
// the 2^8 unit leaf's 32 zmm plus temporaries).  The runtime radix is
// dispatched once per pass (or per leaf call) through dispatch_radix, never
// per tile.  The one runtime-loop body left is the lockstep leaf beyond the
// widest tile (k > kMaxTileLog2).
//
// Numerical contract: bit-identical to the scalar codelets.  Every butterfly
// is the same (a+b, a−b) pair in the same stage order as template_codelet /
// the generated straight-line code; the in-register stages compute a−b as
// a + (b XOR signbit), which is exact for IEEE doubles (sign-bit flip is
// exact negation, and a + (−b) ≡ a − b).  The XOR replaces the previous
// ±1.0 multiply: vxorpd has lower latency than vmulpd, runs on more ports,
// and cannot be FMA-contracted into the critical path.  The parity tests
// assert equality with EXPECT_EQ, not a tolerance.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>

// The gather/scatter leaf and the masked edge loads/stores of the line-grid
// passes need intrinsics with no vector-extension spelling (vgatherqpd /
// vscatterqpd, vmaskmovpd, masked vmovupd).  Both including TUs are
// compiled with at least -mavx2.
#include <immintrin.h>

#include "core/plan.hpp"

namespace whtlab::simd::detail {

typedef double v4df __attribute__((vector_size(32)));
typedef double v8df __attribute__((vector_size(64)));
typedef std::int64_t v4di __attribute__((vector_size(32)));
typedef std::int64_t v8di __attribute__((vector_size(64)));

template <int W>
struct VecOf;
template <>
struct VecOf<4> {
  using type = v4df;
  using itype = v4di;
};
template <>
struct VecOf<8> {
  using type = v8df;
  using itype = v8di;
};
template <int W>
using vec_t = typename VecOf<W>::type;
template <int W>
using ivec_t = typename VecOf<W>::itype;

/// IEEE-754 double sign bit, for XOR-based sign flips.
inline constexpr std::int64_t kSignBit = std::int64_t{1} << 63;

// memcpy-based loads/stores compile to single unaligned vector moves, which
// run at aligned speed on aligned addresses.  The caller's buffer may sit
// anywhere (std::vector<double> storage is often 16 B past a cache line), so
// these moves make no alignment assumption; a load that straddles two lines
// costs both, which is why the fused strided passes regroup their columns
// onto the vector grid (lockstep_pass_radix) instead of trusting the base
// pointer.
template <int W>
inline vec_t<W> vload(const double* p) {
  vec_t<W> v;
  __builtin_memcpy(&v, p, sizeof(v));
  return v;
}

template <int W>
inline void vstore(double* p, vec_t<W> v) {
  __builtin_memcpy(p, &v, sizeof(v));
}

/// Loads the lanes whose `mask` entry is all-ones; the other lanes read as
/// zero and their memory is not accessed (fault-suppressing vmaskmovpd /
/// masked vmovupd), so those lanes may lie outside the buffer.
template <int W>
inline vec_t<W> vload_lanes(const double* p, ivec_t<W> mask) {
  if constexpr (W == 4) {
    return (v4df)_mm256_maskload_pd(p, (__m256i)mask);
  } else {
    const __m512i m = (__m512i)mask;
    return (v8df)_mm512_maskz_loadu_pd(_mm512_test_epi64_mask(m, m), p);
  }
}

/// Stores the lanes whose `mask` entry is all-ones and leaves the memory of
/// the others untouched.
template <int W>
inline void vstore_lanes(double* p, vec_t<W> v, ivec_t<W> mask) {
  if constexpr (W == 4) {
    _mm256_maskstore_pd(p, (__m256i)mask, (__m256d)v);
  } else {
    const __m512i m = (__m512i)mask;
    _mm512_mask_storeu_pd(p, _mm512_test_epi64_mask(m, m), (__m512d)v);
  }
}

/// Lane-wise mask ? a : b on the bits (exact for any double).
template <int W>
inline vec_t<W> select_lanes(ivec_t<W> mask, vec_t<W> a, vec_t<W> b) {
  return (vec_t<W>)(((ivec_t<W>)a & mask) | ((ivec_t<W>)b & ~mask));
}

/// Flips the sign of the lanes whose mask entry is kSignBit (XOR on the
/// reinterpreted bits; C-style casts between same-size vector types are
/// bit-level reinterprets under the GCC/Clang vector extensions).
template <int W>
inline vec_t<W> flip_lanes(vec_t<W> v, ivec_t<W> mask) {
  return (vec_t<W>)((ivec_t<W>)v ^ mask);
}

/// One butterfly stage at lane distance D, entirely inside one register:
/// out[l] = v[l & ~D] + sign_l * v[l | D] with sign_l = (l & D) ? -1 : +1,
/// i.e. lane pairs (l, l+D) become (a+b, a-b).  The sign is applied by
/// XOR-ing the sign bit, not by multiplying.
template <int W, int D>
inline vec_t<W> lane_butterfly(vec_t<W> v) {
  constexpr std::int64_t kNeg = kSignBit;
  if constexpr (W == 4 && D == 1) {
    const v4df lo = __builtin_shufflevector(v, v, 0, 0, 2, 2);
    const v4df hi = __builtin_shufflevector(v, v, 1, 1, 3, 3);
    const v4di mask = {0, kNeg, 0, kNeg};
    return lo + flip_lanes<4>(hi, mask);
  } else if constexpr (W == 4 && D == 2) {
    const v4df lo = __builtin_shufflevector(v, v, 0, 1, 0, 1);
    const v4df hi = __builtin_shufflevector(v, v, 2, 3, 2, 3);
    const v4di mask = {0, 0, kNeg, kNeg};
    return lo + flip_lanes<4>(hi, mask);
  } else if constexpr (W == 8 && D == 1) {
    const v8df lo = __builtin_shufflevector(v, v, 0, 0, 2, 2, 4, 4, 6, 6);
    const v8df hi = __builtin_shufflevector(v, v, 1, 1, 3, 3, 5, 5, 7, 7);
    const v8di mask = {0, kNeg, 0, kNeg, 0, kNeg, 0, kNeg};
    return lo + flip_lanes<8>(hi, mask);
  } else if constexpr (W == 8 && D == 2) {
    const v8df lo = __builtin_shufflevector(v, v, 0, 1, 0, 1, 4, 5, 4, 5);
    const v8df hi = __builtin_shufflevector(v, v, 2, 3, 2, 3, 6, 7, 6, 7);
    const v8di mask = {0, 0, kNeg, kNeg, 0, 0, kNeg, kNeg};
    return lo + flip_lanes<8>(hi, mask);
  } else if constexpr (W == 8 && D == 4) {
    const v8df lo = __builtin_shufflevector(v, v, 0, 1, 2, 3, 0, 1, 2, 3);
    const v8df hi = __builtin_shufflevector(v, v, 4, 5, 6, 7, 4, 5, 6, 7);
    const v8di mask = {0, 0, 0, 0, kNeg, kNeg, kNeg, kNeg};
    return lo + flip_lanes<8>(hi, mask);
  } else {
    // Fail the build, not the lanes, when a new width forgets its shuffles.
    static_assert(W != W, "lane_butterfly: unsupported (W, D) combination");
  }
}

/// log2 of a power-of-two compile-time count.
template <int M>
inline constexpr int kLog2 = std::bit_width(static_cast<unsigned>(M)) - 1;

/// Widest lockstep tile with a compile-time body: radix-2^5 = 32 vectors,
/// the whole AVX-512 register file.  fused_lockstep_pass and leaf_lockstep
/// take the runtime-loop body only above it.
inline constexpr int kMaxTileLog2 = 5;

/// Calls f(std::integral_constant<int, K>{}) with K == k for k in [Lo, Hi]
/// — the one place a runtime radix becomes a compile-time one, so the tile
/// or pass f instantiates per K is register-resident.  Callers guarantee
/// the range (a k outside it runs the Hi instantiation).
template <int Lo, int Hi, typename F>
[[gnu::always_inline]] inline void dispatch_radix(int k, F&& f) {
  if constexpr (Lo < Hi) {
    if (k != Lo) {
      dispatch_radix<Lo + 1, Hi>(k, f);
      return;
    }
  }
  f(std::integral_constant<int, Lo>{});
}

/// Full-width butterfly stages across NV registers: stage s pairs t[i] and
/// t[i + 2^s] as (a+b, a-b), stages ascending — template_codelet's loop
/// with every scalar widened to a vector.  Constant trip counts, unrolled,
/// so with a local t[] every access folds to a register.
template <int W, int NV>
[[gnu::always_inline]] inline void vector_butterflies(vec_t<W>* t) {
  using vec = vec_t<W>;
#pragma GCC unroll 8
  for (int stage = 0; stage < kLog2<NV>; ++stage) {
#pragma GCC unroll 64
    for (int i = 0; i < NV / 2; ++i) {
      const int lo = ((i >> stage) << (stage + 1)) | (i & ((1 << stage) - 1));
      const int hi = lo + (1 << stage);
      const vec a = t[lo];
      const vec b = t[hi];
      t[lo] = a + b;
      t[hi] = a - b;
    }
  }
}

/// The in-register WHT stage body shared by leaf_unit and the gather/scatter
/// strided leaf: t[] holds NV * W logically consecutive elements W per
/// register.  Stages 0..log2(W)-1 run inside registers via lane_butterfly;
/// stages log2(W).. are full-width add/sub between registers — the same
/// stage order as the scalar codelets.
template <int W, int NV>
[[gnu::always_inline]] inline void register_stages(vec_t<W>* t) {
#pragma GCC unroll 64
  for (int i = 0; i < NV; ++i) {
    vec_t<W> v = t[i];
    v = lane_butterfly<W, 1>(v);
    v = lane_butterfly<W, 2>(v);
    if constexpr (W == 8) v = lane_butterfly<W, 4>(v);
    t[i] = v;
  }
  vector_butterflies<W, NV>(t);
}

/// WHT(2^K) on 2^K contiguous doubles, 2^K >= W.
template <int W, int K>
[[gnu::always_inline]] inline void leaf_unit(double* x) {
  constexpr int kVectors = (1 << K) / W;
  vec_t<W> t[kVectors];
#pragma GCC unroll 64
  for (int i = 0; i < kVectors; ++i) t[i] = vload<W>(x + i * W);
  register_stages<W, kVectors>(t);
#pragma GCC unroll 64
  for (int i = 0; i < kVectors; ++i) vstore<W>(x + i * W, t[i]);
}

/// KernelSet::leaf_unit: the runtime-k entry for the tree walk, one
/// dispatch per leaf onto the leaf_unit<W, K> instantiations.
template <int W>
void leaf_unit(int k, double* x) {
  dispatch_radix<kLog2<W>, core::kMaxUnrolled>(
      k, [&](auto K) { leaf_unit<W, K>(x); });
}

#if defined(__AVX512F__)
/// WHT(2^K) on the 2^K strided doubles x[0], x[stride], ..., 2^K >= 8 —
/// the gather/scatter twin of leaf_unit for the leaves the tree walk would
/// otherwise run scalar (a strided execute() call, or the small-stride
/// recursion below the lockstep threshold).  vgatherqpd pulls 8 strided
/// elements per register so the whole butterfly body runs in zmm exactly as
/// in leaf_unit; vscatterqpd writes them back.  Same adds in the same
/// order, so the result stays bit-identical to the scalar codelet (the
/// parity suites gate this like every other kernel).  AVX-512 only: AVX2
/// has gathers but no scatters, and a gathered load that must be stored
/// back element-by-element loses the exercise.
template <int K>
[[gnu::always_inline]] inline void leaf_strided_avx512(double* x,
                                                       std::ptrdiff_t stride) {
  constexpr int kVectors = (1 << K) / 8;
  v8df t[kVectors];
  const long long s = static_cast<long long>(stride);
  const __m512i first =
      _mm512_setr_epi64(0, s, 2 * s, 3 * s, 4 * s, 5 * s, 6 * s, 7 * s);
  const __m512i step = _mm512_set1_epi64(8 * s);
  __m512i index = first;
#pragma GCC unroll 64
  for (int i = 0; i < kVectors; ++i) {
    // The masked form with an explicit zero source: the unmasked intrinsic
    // starts from _mm512_undefined_pd(), which GCC flags as uninitialized
    // once the loop is unrolled.
    t[i] = (v8df)_mm512_mask_i64gather_pd(_mm512_setzero_pd(), 0xFF, index,
                                          x, 8);
    index = _mm512_add_epi64(index, step);
  }
  register_stages<8, kVectors>(t);
  index = first;
#pragma GCC unroll 64
  for (int i = 0; i < kVectors; ++i) {
    _mm512_i64scatter_pd(x, index, (__m512d)t[i], 8);
    index = _mm512_add_epi64(index, step);
  }
}

/// KernelSet::leaf_strided: one dispatch per leaf onto the K instantiations.
inline void leaf_strided_avx512(int k, double* x, std::ptrdiff_t stride) {
  dispatch_radix<3, core::kMaxUnrolled>(
      k, [&](auto K) { leaf_strided_avx512<K>(x, stride); });
}
#endif  // __AVX512F__

/// In-register W x W transpose: r[i][j] <-> r[j][i].  log2(W) levels of
/// pairwise two-vector shuffles (its own inverse, so one routine serves
/// both interleave directions).
template <int W>
inline void transpose_registers(vec_t<W>* r) {
  if constexpr (W == 4) {
    const v4df s0 = __builtin_shufflevector(r[0], r[2], 0, 1, 4, 5);
    const v4df s1 = __builtin_shufflevector(r[1], r[3], 0, 1, 4, 5);
    const v4df s2 = __builtin_shufflevector(r[0], r[2], 2, 3, 6, 7);
    const v4df s3 = __builtin_shufflevector(r[1], r[3], 2, 3, 6, 7);
    r[0] = __builtin_shufflevector(s0, s1, 0, 4, 2, 6);
    r[1] = __builtin_shufflevector(s0, s1, 1, 5, 3, 7);
    r[2] = __builtin_shufflevector(s2, s3, 0, 4, 2, 6);
    r[3] = __builtin_shufflevector(s2, s3, 1, 5, 3, 7);
  } else if constexpr (W == 8) {
    v8df s[8];
    for (int i = 0; i < 4; ++i) {
      s[i] = __builtin_shufflevector(r[i], r[i + 4], 0, 1, 2, 3, 8, 9, 10, 11);
      s[i + 4] =
          __builtin_shufflevector(r[i], r[i + 4], 4, 5, 6, 7, 12, 13, 14, 15);
    }
    for (int g = 0; g < 8; g += 4) {
      const v8df t0 =
          __builtin_shufflevector(s[g], s[g + 2], 0, 1, 8, 9, 4, 5, 12, 13);
      const v8df t1 =
          __builtin_shufflevector(s[g + 1], s[g + 3], 0, 1, 8, 9, 4, 5, 12, 13);
      const v8df t2 =
          __builtin_shufflevector(s[g], s[g + 2], 2, 3, 10, 11, 6, 7, 14, 15);
      const v8df t3 = __builtin_shufflevector(s[g + 1], s[g + 3], 2, 3, 10, 11,
                                              6, 7, 14, 15);
      r[g] = __builtin_shufflevector(t0, t1, 0, 8, 2, 10, 4, 12, 6, 14);
      r[g + 1] = __builtin_shufflevector(t0, t1, 1, 9, 3, 11, 5, 13, 7, 15);
      r[g + 2] = __builtin_shufflevector(t2, t3, 0, 8, 2, 10, 4, 12, 6, 14);
      r[g + 3] = __builtin_shufflevector(t2, t3, 1, 9, 3, 11, 5, 13, 7, 15);
    }
  } else {
    static_assert(W != W, "transpose_registers: unsupported width");
  }
}

/// Gathers W batch vectors (lane l at base + l*dist) into the interleaved
/// scratch layout (element j of lane l at scratch[j*W + l]) one W x W
/// register block at a time.  n < W (tiny transforms) falls back to scalar
/// copies.
template <int W>
void interleave_in(double* scratch, const double* base, std::ptrdiff_t dist,
                   std::uint64_t n) {
  if (n < W) {
    for (std::uint64_t j = 0; j < n; ++j) {
      for (int l = 0; l < W; ++l) {
        scratch[j * W + static_cast<std::uint64_t>(l)] =
            base[static_cast<std::ptrdiff_t>(l) * dist +
                 static_cast<std::ptrdiff_t>(j)];
      }
    }
    return;
  }
  vec_t<W> r[W];
  for (std::uint64_t j = 0; j < n; j += W) {
    for (int l = 0; l < W; ++l) {
      r[l] = vload<W>(base + static_cast<std::ptrdiff_t>(l) * dist +
                      static_cast<std::ptrdiff_t>(j));
    }
    transpose_registers<W>(r);
    for (int c = 0; c < W; ++c) {
      vstore<W>(scratch + (j + static_cast<std::uint64_t>(c)) * W, r[c]);
    }
  }
}

/// Scatters the interleaved scratch back into the W batch vectors — the
/// exact inverse of interleave_in.
template <int W>
void interleave_out(double* base, const double* scratch, std::ptrdiff_t dist,
                    std::uint64_t n) {
  if (n < W) {
    for (std::uint64_t j = 0; j < n; ++j) {
      for (int l = 0; l < W; ++l) {
        base[static_cast<std::ptrdiff_t>(l) * dist +
             static_cast<std::ptrdiff_t>(j)] =
            scratch[j * W + static_cast<std::uint64_t>(l)];
      }
    }
    return;
  }
  vec_t<W> r[W];
  for (std::uint64_t j = 0; j < n; j += W) {
    for (int c = 0; c < W; ++c) {
      r[c] = vload<W>(scratch + (j + static_cast<std::uint64_t>(c)) * W);
    }
    transpose_registers<W>(r);
    for (int l = 0; l < W; ++l) {
      vstore<W>(base + static_cast<std::ptrdiff_t>(l) * dist +
                    static_cast<std::ptrdiff_t>(j),
                r[l]);
    }
  }
}

/// Radix-M lockstep tile on W adjacent columns: element i of column c at
/// x[c + i*s], log2(M) butterfly stages carried entirely in registers
/// (M vectors live — 32 zmm at the radix-32 / width-8 peak).  Compile-time
/// radix, forced inline and fully unrolled: the M loads, the butterflies
/// and the M stores fold into straight-line register code inside the
/// caller's column loop, with no call and no stack round trip per
/// butterfly.  The runtime radix is dispatched per pass (fused_lockstep_pass)
/// or per leaf (leaf_lockstep), never per tile.
template <int W, int M>
[[gnu::always_inline]] inline void radix_cols(double* x, std::ptrdiff_t s) {
  vec_t<W> t[M];
#pragma GCC unroll 64
  for (int i = 0; i < M; ++i) t[i] = vload<W>(x + i * s);
  vector_butterflies<W, M>(t);
#pragma GCC unroll 64
  for (int i = 0; i < M; ++i) vstore<W>(x + i * s, t[i]);
}

/// Lockstep WHT(2^k) beyond the widest compile-time tile (k >
/// kMaxTileLog2): the same butterflies as radix_cols with runtime trip
/// counts over a stack array.
template <int W>
void lockstep_wide(int k, double* x, std::ptrdiff_t stride) {
  using vec = vec_t<W>;
  const int m = 1 << k;
  vec t[1 << core::kMaxUnrolled];
  for (int j = 0; j < m; ++j) t[j] = vload<W>(x + j * stride);
  for (int stage = 0; stage < k; ++stage) {
    const int half = 1 << stage;
    for (int base = 0; base < m; base += 2 * half) {
      for (int off = 0; off < half; ++off) {
        const vec a = t[base + off];
        const vec b = t[base + off + half];
        t[base + off] = a + b;
        t[base + off + half] = a - b;
      }
    }
  }
  for (int j = 0; j < m; ++j) vstore<W>(x + j * stride, t[j]);
}

/// W transforms in lockstep: lane l's element j at x[l + j*stride],
/// stride >= W — radix_cols<W, 2^k> for k <= kMaxTileLog2.
template <int W>
void leaf_lockstep(int k, double* x, std::ptrdiff_t stride) {
  if (k > kMaxTileLog2) {
    lockstep_wide<W>(k, x, stride);
    return;
  }
  dispatch_radix<1, kMaxTileLog2>(
      k, [&](auto K) { radix_cols<W, 1 << K>(x, stride); });
}

// --- fused-schedule pass kernels (core/schedule.hpp lowering) --------------

/// Unit pass of a fused schedule: WHT(2^u) on each of `runs` contiguous
/// 2^u-double runs.  One dispatch on u, then a flat loop over the inlined
/// leaf_unit<W, U> tile, so one call covers a whole cache block.
template <int W>
void fused_unit_pass(int u, double* x, std::uint64_t runs) {
  dispatch_radix<kLog2<W>, core::kMaxUnrolled>(u, [&](auto U) {
    constexpr std::uint64_t m = std::uint64_t{1} << U;
    for (std::uint64_t r = 0; r < runs; ++r) leaf_unit<W, U>(x + r * m);
  });
}

/// Columns of a strided pass before the first W-double boundary at or after
/// x: 0 when x is on the vector grid, and also when x is not 8-byte aligned
/// (no regrouping of whole doubles reaches the grid then).
template <int W>
inline int grid_head(const double* x) {
  const auto addr = reinterpret_cast<std::uintptr_t>(x);
  if (addr % sizeof(double) != 0) return 0;
  return static_cast<int>((W - addr / sizeof(double) % W) % W);
}

/// All-ones in lanes [W - head, W), zero below.
template <int W>
inline ivec_t<W> upper_lanes(int head) {
  ivec_t<W> mask;
  for (int l = 0; l < W; ++l) mask[l] = l >= W - head ? -1 : 0;
  return mask;
}

/// The edge tile of a line-grid pass: the W columns [0, head) and
/// [s - W + head, s) of the radix-M column group at x, 0 < head < W, in one
/// register tile.  Row i's head columns are the upper lanes of the grid
/// vector g_i = x + i*s + head - W, and its tail columns are the lower
/// lanes of g_{i+1}, so a select per row builds the tile from aligned
/// loads, and a select per row takes it apart into aligned stores.  g_0's
/// lower and g_M's upper lanes belong to the neighbouring groups, or lie
/// outside the buffer at its ends: those two vectors go through masks.
template <int W, int M>
[[gnu::always_inline]] inline void edge_cols(double* x, std::ptrdiff_t s,
                                             int head, ivec_t<W> upper) {
  double* g = x + head - W;
  vec_t<W> t[M];
  vec_t<W> lo = vload_lanes<W>(g, upper);
#pragma GCC unroll 64
  for (int i = 0; i < M; ++i) {
    const vec_t<W> hi = i + 1 < M ? vload<W>(g + (i + 1) * s)
                                  : vload_lanes<W>(g + M * s, ~upper);
    t[i] = select_lanes<W>(upper, lo, hi);
    lo = hi;
  }
  vector_butterflies<W, M>(t);
  vstore_lanes<W>(g, t[0], upper);
#pragma GCC unroll 64
  for (int i = 1; i < M; ++i) {
    vstore<W>(g + i * s, select_lanes<W>(upper, t[i], t[i - 1]));
  }
  vstore_lanes<W>(g + M * s, t[M - 1], ~upper);
}

/// One radix-M strided pass over a block, its columns grouped on the vector
/// grid.  A pass at stride s >= W pairs x[c + i*s] across rows i, so every
/// column is an independent transform, and x + c + i*s has the line offset
/// of x + c in every row.  When x is `head` doubles short of the grid, the
/// tiles at columns head, head + W, ..., s - 2W + head are grid-aligned in
/// every row, and edge_cols covers the W columns left over, so no full
/// vector move straddles a line (W = 8: 64 B) or half-line (W = 4).
/// Regrouping columns changes no sum: the output is bit-identical to the
/// ungrouped pass for any head.
template <int W, int M>
void lockstep_pass_radix(double* x, std::uint64_t s, std::uint64_t block) {
  // Prefetch distance in doubles (8 cache lines ahead on each of the M row
  // streams).  A radix-16/32 pass walks more concurrent strided streams
  // than the hardware prefetchers track, so the kernel asks for its own
  // read-ahead; the hint is ISA-neutral and harmless where HW prefetch
  // already covers the streams.
  constexpr std::uint64_t kPrefetchAhead = 64;
  const std::uint64_t span = s * M;
  const int head = grid_head<W>(x);
  const ivec_t<W> upper = upper_lanes<W>(head);
  const std::uint64_t tiled = head == 0 ? s : s - W;
  for (std::uint64_t j = 0; j < block; j += span) {
    double* base = x + j + head;
    for (std::uint64_t t = 0; t < tiled; t += W) {
      if (t + kPrefetchAhead < s) {
#pragma GCC unroll 64
        for (int i = 0; i < M; ++i) {
          __builtin_prefetch(base + t + kPrefetchAhead + i * s, 1);
        }
      }
      radix_cols<W, M>(base + t, static_cast<std::ptrdiff_t>(s));
    }
    if (head != 0) {
      edge_cols<W, M>(x + j, static_cast<std::ptrdiff_t>(s), head, upper);
    }
  }
}

/// Strided pass of a fused schedule over one contiguous block of `block`
/// doubles: stages [stage, stage+k) as radix-2^k tiles at stride 2^stage,
/// W columns per tile (requires 2^stage >= W; the column loop walks
/// contiguous addresses, so a pass is one streaming sweep of the block).
/// Radix-16/32 are the streaming shapes: 16/32 vectors live per tile (the
/// whole register file at radix-32 / width-8; narrower ISAs spill to
/// L1-resident stack, which is still far cheaper than the memory sweep the
/// wider radix saves).  Radix-2..32 group their columns on the vector grid
/// (lockstep_pass_radix); the runtime-radix body above radix-32, which no
/// detect_blocking() schedule emits, keeps the plain grouping.
template <int W>
void fused_lockstep_pass(int k, int stage, double* x, std::uint64_t block) {
  const std::uint64_t s = std::uint64_t{1} << stage;
  if (k > kMaxTileLog2) {
    for (std::uint64_t j = 0; j < block; j += s << k) {
      for (std::uint64_t t = 0; t < s; t += W) {
        lockstep_wide<W>(k, x + j + t, static_cast<std::ptrdiff_t>(s));
      }
    }
    return;
  }
  dispatch_radix<1, kMaxTileLog2>(
      k, [&](auto K) { lockstep_pass_radix<W, 1 << K>(x, s, block); });
}

}  // namespace whtlab::simd::detail
