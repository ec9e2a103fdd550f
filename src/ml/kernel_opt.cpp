// Optimized Gram-matrix build (DESIGN.md §10).
//
// This translation unit is compiled with vector-math flags when the
// toolchain supports them (see src/CMakeLists.txt): the batched
// exp() loop below then lowers to libmvec SIMD calls and the blocked dot
// micro-kernel to FMA vectors. kernel_eval in kernel.cpp stays on the
// project-default flags; the per-element Gram built from it is what this
// build is checked against (ml_test) and timed against (micro_perf's
// kernel floor). Which exp() variant (SIMD lanes or scalar tail) computes
// an entry depends on its column offset, so two copies of one row can get
// entries a last bit apart; the one-class SVM builds over distinct rows
// only, so its duplicate rows share one Gram row.
//
// Structure per column tile [j0, j1):
//   1. a 4x2 register-blocked micro-kernel forms dot products of every
//      row i <= j1 against the tile's rows (one pass over x, eight
//      accumulators live in registers),
//   2. a flat finisher turns a row of dots into kernel entries — for RBF
//      that is one vectorizable exp() sweep over
//      max(|xi|^2 + |xj|^2 - 2<xi,xj>, 0),
//   3. the mirror fill copies the upper triangle into the lower one in
//      cache-sized blocks.
// Tiles are fanned across the optional thread pool; each tile writes a
// disjoint column stripe (plus its own mirror rows), so tasks never touch
// the same element.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "ml/kernel.hpp"
#include "util/thread_pool.hpp"

namespace sent::ml {

namespace {

/// Column-tile width: 128 doubles of distance scratch per row block stays
/// resident while the exp sweep runs.
constexpr std::size_t kTileJ = 128;

/// Convert a row of dot products into kernel entries.
void finish_row(const KernelSpec& spec, double gamma, double norm_i,
                const double* norms_j, const double* dots, double* out,
                std::size_t n) {
  switch (spec.type) {
    case KernelType::Rbf:
      // The whole tile row goes through exp() in one loop: with vector
      // math enabled this is a SIMD exp per 4-8 entries instead of a
      // scalar libm call per entry.
      for (std::size_t t = 0; t < n; ++t)
        out[t] = std::exp(
            -gamma * std::max(norm_i + norms_j[t] - 2.0 * dots[t], 0.0));
      return;
    case KernelType::Linear:
      for (std::size_t t = 0; t < n; ++t) out[t] = dots[t];
      return;
  }
}

}  // namespace

void build_kernel_matrix(const KernelSpec& spec, double gamma,
                         const Matrix& x, util::ThreadPool* pool,
                         std::vector<double>& out) {
  const std::size_t l = x.rows();
  const std::size_t d = check_matrix(x);
  out.resize(l * l);
  const std::vector<double> norms = row_squared_norms(x);
  const double* base = x.data();
  const double* nrm = norms.data();
  const std::size_t tiles = (l + kTileJ - 1) / kTileJ;

  // One task per column tile: it owns columns [j0, j1) of the upper
  // triangle and rows [j0, j1) of the lower one, so tasks are disjoint.
  // Round-robin striping in parallel_for balances the triangular cost.
  auto tile_task = [&](std::size_t tj) {
    const std::size_t j0 = tj * kTileJ;
    const std::size_t j1 = std::min(l, j0 + kTileJ);
    double dbuf[4][kTileJ];

    std::size_t i = 0;
    // Four i-rows per pass: each tile row of x is loaded once for four
    // dot-product rows instead of once per row.
    for (; i + 4 <= j1; i += 4) {
      const double* xi0 = base + (i + 0) * d;
      const double* xi1 = base + (i + 1) * d;
      const double* xi2 = base + (i + 2) * d;
      const double* xi3 = base + (i + 3) * d;
      const std::size_t jb = std::max(j0, i);
      std::size_t j = jb;
      for (; j + 2 <= j1; j += 2) {
        const double* a = base + j * d;
        const double* b = a + d;
        double s00 = 0, s01 = 0, s10 = 0, s11 = 0;
        double s20 = 0, s21 = 0, s30 = 0, s31 = 0;
        for (std::size_t t = 0; t < d; ++t) {
          const double av = a[t], bv = b[t];
          s00 += xi0[t] * av; s01 += xi0[t] * bv;
          s10 += xi1[t] * av; s11 += xi1[t] * bv;
          s20 += xi2[t] * av; s21 += xi2[t] * bv;
          s30 += xi3[t] * av; s31 += xi3[t] * bv;
        }
        const std::size_t c = j - jb;
        dbuf[0][c] = s00; dbuf[0][c + 1] = s01;
        dbuf[1][c] = s10; dbuf[1][c + 1] = s11;
        dbuf[2][c] = s20; dbuf[2][c + 1] = s21;
        dbuf[3][c] = s30; dbuf[3][c + 1] = s31;
      }
      for (; j < j1; ++j) {
        const double* a = base + j * d;
        double s0 = 0, s1 = 0, s2 = 0, s3 = 0;
        for (std::size_t t = 0; t < d; ++t) {
          const double av = a[t];
          s0 += xi0[t] * av; s1 += xi1[t] * av;
          s2 += xi2[t] * av; s3 += xi3[t] * av;
        }
        const std::size_t c = j - jb;
        dbuf[0][c] = s0; dbuf[1][c] = s1; dbuf[2][c] = s2; dbuf[3][c] = s3;
      }
      const std::size_t n = j1 - jb;
      // Rows i+1..i+3 of a diagonal tile produce a few entries below the
      // diagonal (j in [jb, i+r)); their values are correct kernel
      // entries, and the mirror pass below rewrites them from the row
      // that owns them, so no masking is needed here.
      for (std::size_t r = 0; r < 4; ++r)
        finish_row(spec, gamma, nrm[i + r], nrm + jb, dbuf[r],
                   out.data() + (i + r) * l + jb, n);
    }
    for (; i < j1; ++i) {
      const double* xi = base + i * d;
      const std::size_t jb = std::max(j0, i);
      for (std::size_t j = jb; j < j1; ++j) {
        const double* xj = base + j * d;
        double dot = 0;
        for (std::size_t t = 0; t < d; ++t) dot += xi[t] * xj[t];
        dbuf[0][j - jb] = dot;
      }
      finish_row(spec, gamma, nrm[i], nrm + jb, dbuf[0],
                 out.data() + i * l + jb, j1 - jb);
    }

    // Mirror this tile's columns into its rows, block by block so both
    // the read and the (strided) write stay cache-resident.
    constexpr std::size_t kB = 64;
    for (std::size_t i0 = 0; i0 < j1; i0 += kB) {
      const std::size_t i1 = std::min(j1, i0 + kB);
      for (std::size_t ii = i0; ii < i1; ++ii)
        for (std::size_t j = std::max(j0, ii + 1); j < j1; ++j)
          out[j * l + ii] = out[ii * l + j];
    }
  };

  if (pool != nullptr) {
    pool->parallel_for(tiles, tile_task);
  } else {
    for (std::size_t tj = 0; tj < tiles; ++tj) tile_task(tj);
  }
}

}  // namespace sent::ml
