#include "ml/ocsvm.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>

#include "ml/error.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/thread_pool.hpp"

namespace sent::ml {

namespace {
constexpr double kEps = 1e-12;
constexpr double kTau = 1e-12;  // denominator floor in the pair update

// ML data-plane introspection (DESIGN.md §11). Everything here is a pure
// function of the training data, so it stays in the deterministic metrics
// sections; the wall-clock quantities (Gram build, solve) are phase scopes.
// Recording happens once per fit / per build — never inside kernel loops,
// which keeps the disabled-registry overhead on micro_perf under noise.
struct Metrics {
  obs::Counter fits = obs::Registry::global().counter("ml.ocsvm_fits");
  obs::Counter iterations =
      obs::Registry::global().counter("ml.smo_iterations");
  obs::Counter shrink_cycles =
      obs::Registry::global().counter("ml.smo_shrink_cycles");
  obs::Counter reconstructs =
      obs::Registry::global().counter("ml.smo_gradient_reconstructs");
  obs::Counter gradient_updates =
      obs::Registry::global().counter("ml.smo_gradient_updates");
  obs::Counter kernel_cells =
      obs::Registry::global().counter("ml.kernel_cells_built");
  obs::Counter decision_points =
      obs::Registry::global().counter("ml.decision_points");
  obs::Histogram iterations_per_fit =
      obs::Registry::global().histogram("ml.smo_iterations_per_fit");
  obs::Histogram support_vectors =
      obs::Registry::global().histogram("ml.support_vectors_per_fit");
  obs::Histogram distinct_rows =
      obs::Registry::global().histogram("ml.distinct_rows_per_fit");
  obs::Phase scale{"ml.scale"};
  obs::Phase kernel_build{"ml.kernel_build"};
  obs::Phase smo{"ml.smo"};

  static const Metrics& get() {
    static Metrics m;
    return m;
  }
};

// The distinct rows of `x` in first-appearance order; cls[i] is the index
// of row i among them. A flat open-addressed table of class ids (load
// <= 1/2, linear probing) keyed by a hash of the row's bit patterns finds
// each row's class; nothing is allocated per row.
Matrix group_identical_rows(const Matrix& x, std::vector<std::uint32_t>& cls) {
  const std::size_t l = x.rows();
  const std::size_t d = x.cols();
  constexpr std::uint32_t kEmpty = std::numeric_limits<std::uint32_t>::max();
  std::size_t cap = 16;
  while (cap < 2 * l) cap <<= 1;
  std::vector<std::uint32_t> slots(cap, kEmpty);
  Matrix distinct(0, d);
  cls.resize(l);
  for (std::size_t i = 0; i < l; ++i) {
    std::span<const double> row = x.row(i);
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (double v : row) {
      h ^= std::bit_cast<std::uint64_t>(v);
      h *= 0xff51afd7ed558ccdULL;
      h ^= h >> 32;
    }
    std::size_t s = h & (cap - 1);
    while (slots[s] != kEmpty &&
           std::memcmp(distinct.row(slots[s]).data(), row.data(),
                       d * sizeof(double)) != 0)
      s = (s + 1) & (cap - 1);
    if (slots[s] == kEmpty) {
      slots[s] = static_cast<std::uint32_t>(distinct.rows());
      distinct.append_row(row);
    }
    cls[i] = slots[s];
  }
  return distinct;
}
}  // namespace

OneClassSvm::OneClassSvm(OcsvmParams params) : params_(params) {
  SENT_REQUIRE_MSG(params_.nu > 0.0 && params_.nu <= 1.0,
                   "nu must be in (0, 1]");
  SENT_REQUIRE(params_.tol > 0.0);
}

std::string OneClassSvm::name() const {
  return "ocsvm-" + params_.kernel.to_string();
}

void OneClassSvm::fit(const Matrix& rows) {
  const std::size_t d = check_matrix(rows);

  // Intervals that ran the same handler path share one feature row, so the
  // fit works on the U classes of bitwise-identical standardized rows (in
  // first-appearance order; cls[i] is row i's class, reps one row each).
  // Identical raw rows standardize identically, so only the raw classes'
  // representatives are transformed; rounding can still map two distinct
  // raw rows to one standardized row (0.0 and 1e-300 in a column of larger
  // values), so the transformed representatives are grouped once more.
  std::vector<std::uint32_t> cls;
  Matrix reps;
  {
    obs::Span scale_span(Metrics::get().scale);
    const double* data = rows.data();
    for (std::size_t i = 0, n = rows.rows() * d; i < n; ++i)
      if (!std::isfinite(data[i]))
        throw TrainingError("non-finite value in feature matrix");
    const Matrix raw = group_identical_rows(rows, cls);
    scaler_.fit(rows);
    std::vector<std::uint32_t> merged;
    reps = group_identical_rows(scaler_.transform(raw), merged);
    for (std::uint32_t& c : cls) c = merged[c];
  }
  gamma_ = resolve_gamma(d);
  dim_ = d;

  // The Gram over the representatives: Q(i, j) = K[cls[i] * U + cls[j]].
  // See kernel_opt.cpp for the blocked norm-cached build.
  const std::size_t u = reps.rows();
  std::vector<double> k;
  {
    obs::Span build_span(Metrics::get().kernel_build);
    build_kernel_matrix(params_.kernel, gamma_, reps, params_.pool, k);
  }
  Metrics::get().kernel_cells.inc(u * u);
  Metrics::get().distinct_rows.record(u);

  obs::Span smo_span(Metrics::get().smo);
  solve(k, u, cls);

  // Compact the model to its support vectors so inference scales with the
  // SV count; a row's support vector is its class representative.
  sv_x_ = Matrix(0, d);
  sv_alpha_.clear();
  for (std::size_t i = 0; i < alpha_.size(); ++i) {
    if (alpha_[i] <= kEps) continue;
    sv_x_.append_row(reps.row(cls[i]));
    sv_alpha_.push_back(alpha_[i]);
  }
  sv_norms_ = row_squared_norms(sv_x_);
  Metrics::get().support_vectors.record(sv_alpha_.size());
  fitted_ = true;
}

void OneClassSvm::solve(const std::vector<double>& k, std::size_t u,
                        const std::vector<std::uint32_t>& cls) {
  const std::size_t l = cls.size();
  const double c = 1.0 / (params_.nu * static_cast<double>(l));

  // LIBSVM-style feasible start: the first floor(nu*l) points at the upper
  // bound, one fractional point, the rest at zero; sum = 1.
  alpha_.assign(l, 0.0);
  double remaining = 1.0;
  for (std::size_t i = 0; i < l && remaining > 0.0; ++i) {
    alpha_[i] = std::min(c, remaining);
    remaining -= alpha_[i];
  }
  if (remaining > 1e-9)
    throw TrainingError(
        "infeasible initialization: sum of box constraints l/(nu*l) cannot "
        "reach 1 (l=" +
        std::to_string(l) + ", nu=" + std::to_string(params_.nu) + ")");

  // The gradient G = Q alpha has one entry per class: every row of a class
  // has the same Q row, so G_i = g[cls[i]] (DESIGN.md §10).
  std::vector<double> g(u, 0.0);
  converged_ = false;
  iterations_ = 0;
  smo(k, cls, c, g);
  Metrics::get().fits.inc();
  Metrics::get().iterations.inc(iterations_);
  Metrics::get().iterations_per_fit.record(iterations_);

  // rho: G_i == rho on free support vectors; otherwise bracket between the
  // bound groups.
  double free_sum = 0.0;
  std::size_t free_count = 0;
  double ub = std::numeric_limits<double>::infinity();   // min G over a=0
  double lb = -std::numeric_limits<double>::infinity();  // max G over a=C
  for (std::size_t t = 0; t < l; ++t) {
    const double gt = g[cls[t]];
    if (alpha_[t] > kEps && alpha_[t] < c - kEps) {
      free_sum += gt;
      ++free_count;
    } else if (alpha_[t] <= kEps) {
      ub = std::min(ub, gt);
    } else {
      lb = std::max(lb, gt);
    }
  }
  if (free_count > 0) {
    rho_ = free_sum / static_cast<double>(free_count);
  } else if (std::isfinite(ub) && std::isfinite(lb)) {
    rho_ = (ub + lb) / 2.0;
  } else if (std::isfinite(lb)) {
    rho_ = lb;
  } else {
    rho_ = std::isfinite(ub) ? ub : 0.0;
  }

  // Training decision values come straight from the gradient: f(x_i) =
  // (Q alpha)_i - rho = G_i - rho.
  train_decision_.resize(l);
  for (std::size_t t = 0; t < l; ++t) train_decision_[t] = g[cls[t]] - rho_;
}

// Second-order (WSS2) working-set selection with shrinking over all l dual
// variables, following LIBSVM's one-class solver. Rows of one class share
// one gradient entry and are shrunk as a whole (DESIGN.md §10), so scans,
// updates and the active set run per class, while every choice picks a
// row: grow[t] / shrink[t] is class t's lowest row that may still grow /
// shrink, and ties go to the lower row.
void OneClassSvm::smo(const std::vector<double>& k,
                      const std::vector<std::uint32_t>& cls, double c,
                      std::vector<double>& g) {
  const std::size_t l = cls.size();
  const std::size_t u = g.size();
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  auto can_grow = [&](std::size_t i) { return alpha_[i] < c - kEps; };
  auto can_shrink = [&](std::size_t i) { return alpha_[i] > kEps; };

  // next[i]: the next row of row i's class (kNone after its last).
  std::vector<std::size_t> next(l), after(u, kNone), grow(u, kNone),
      shrink(u, kNone);
  for (std::size_t i = l; i-- > 0;) {
    next[i] = after[cls[i]];
    after[cls[i]] = i;
    if (can_grow(i)) grow[cls[i]] = i;
    if (can_shrink(i)) shrink[cls[i]] = i;
  }
  // The first row of row i's class, from i on, that passes `keep`.
  auto first_from = [&](std::size_t i, auto keep) {
    while (i != kNone && !keep(i)) i = next[i];
    return i;
  };

  std::vector<std::uint32_t> active(u);
  std::iota(active.begin(), active.end(), std::uint32_t{0});
  const std::size_t shrink_interval = std::min<std::size_t>(l, 1000);
  std::size_t counter = shrink_interval;
  bool unshrunk = false;

  // Initial G = Q alpha. Each entry gets the additions a per-row gradient
  // would, in the same (row) order; so does each reconstructed entry.
  std::uint64_t writes = 0;  // gradient entries written
  for (std::size_t i = 0; i < l; ++i) {
    if (alpha_[i] <= kEps) continue;
    const double a = alpha_[i];
    const double* ki = k.data() + cls[i] * u;
    for (std::size_t t = 0; t < u; ++t) g[t] += a * ki[t];
    writes += u;
  }

  // Stale entries are those of shrunk classes: recompute each from
  // Q alpha.
  auto reconstruct_gradient = [&]() {
    if (active.size() == u) return;
    Metrics::get().reconstructs.inc();
    std::vector<char> is_active(u, 0);
    for (std::uint32_t t : active) is_active[t] = 1;
    for (std::size_t t = 0; t < u; ++t) {
      if (is_active[t]) continue;
      const double* kt = k.data() + t * u;
      double sum = 0.0;
      for (std::size_t j = 0; j < l; ++j)
        if (alpha_[j] > kEps) sum += alpha_[j] * kt[cls[j]];
      g[t] = sum;
      ++writes;
    }
  };

  auto activate_all = [&]() {
    active.resize(u);
    std::iota(active.begin(), active.end(), std::uint32_t{0});
  };

  // A class with a row that may grow puts g_up at or below its gradient,
  // and one with a row that may shrink puts g_low at or above it, so only
  // a class whose rows all sit at one bound can be shrunk; the rule below
  // is the per-row one applied to such a class (DESIGN.md §10).
  auto do_shrinking = [&]() {
    Metrics::get().shrink_cycles.inc();
    double g_up = std::numeric_limits<double>::infinity();
    double g_low = -std::numeric_limits<double>::infinity();
    for (std::uint32_t t : active) {
      if (grow[t] != kNone) g_up = std::min(g_up, g[t]);
      if (shrink[t] != kNone) g_low = std::max(g_low, g[t]);
    }
    // One aggressive unshrink near convergence (LIBSVM rule): restore and
    // re-evaluate everything once the active violation is within 10*tol.
    if (!unshrunk && g_low - g_up <= params_.tol * 10) {
      unshrunk = true;
      reconstruct_gradient();
      activate_all();
    }
    // A class at a bound whose gradient cannot re-enter the violating
    // pair is dropped from the working set until the final re-check.
    std::size_t kept = 0;
    for (std::uint32_t t : active) {
      bool drop = false;
      if (grow[t] == kNone) {
        drop = g[t] < g_up;
      } else if (shrink[t] == kNone) {
        drop = g[t] > g_low;
      }
      if (!drop) active[kept++] = t;
    }
    active.resize(kept);
    if (active.empty()) activate_all();
  };

  while (iterations_ < params_.max_iter) {
    if (counter-- == 0) {
      counter = shrink_interval;
      do_shrinking();
    }

    // First-order choice of the up candidate; g_low only for stopping.
    std::size_t up = kNone;
    double g_up = std::numeric_limits<double>::infinity();
    double g_low = -std::numeric_limits<double>::infinity();
    for (std::uint32_t t : active) {
      if (grow[t] != kNone &&
          (g[t] < g_up || (g[t] == g_up && grow[t] < up))) {
        g_up = g[t];
        up = grow[t];
      }
      if (shrink[t] != kNone && g[t] > g_low) g_low = g[t];
    }
    if (up == kNone || g_low - g_up < params_.tol) {
      if (active.size() == u) {
        converged_ = true;
        break;
      }
      // Converged on the shrunk set only: restore the full problem and
      // re-run the check. converged_ is never set from a partial set.
      reconstruct_gradient();
      activate_all();
      counter = 1;
      continue;
    }

    // Second-order choice of the down candidate: maximize the quadratic
    // objective gain (g_t - g_up)^2 / (Q_uu + Q_tt - 2 Q_ut) over
    // violating down-able variables.
    const std::uint32_t cu = cls[up];
    const double* k_up = k.data() + cu * u;
    const double q_uu = k_up[cu];
    std::size_t low = kNone;
    double best_gain = -std::numeric_limits<double>::infinity();
    for (std::uint32_t t : active) {
      if (shrink[t] == kNone) continue;
      const double grad_diff = g[t] - g_up;
      if (grad_diff <= 0.0) continue;
      double quad = q_uu + k[t * u + t] - 2.0 * k_up[t];
      if (quad <= 0.0) quad = kTau;
      const double gain = grad_diff * grad_diff / quad;
      if (gain > best_gain || (gain == best_gain && shrink[t] < low)) {
        best_gain = gain;
        low = shrink[t];
      }
    }
    SENT_ASSERT_MSG(low != kNone, "WSS2 found no violating down candidate");

    const std::uint32_t cl = cls[low];
    double denom = q_uu + k[cl * u + cl] - 2.0 * k_up[cl];
    double step = (g[cl] - g[cu]) / std::max(denom, kTau);
    step = std::min(step, c - alpha_[up]);
    step = std::min(step, alpha_[low]);
    if (!(step > 0.0))
      throw TrainingError(
          "pair update stalled (step " + std::to_string(step) +
          " at iteration " + std::to_string(iterations_) +
          "): violating pair selected but no feasible progress");
    alpha_[up] += step;
    alpha_[low] -= step;
    // Only rows up and low moved: up was its class's lowest growable row
    // and low its class's lowest shrinkable one.
    grow[cu] = first_from(up, can_grow);
    if (can_shrink(up) && up < shrink[cu]) shrink[cu] = up;
    shrink[cl] = first_from(low, can_shrink);
    if (can_grow(low) && low < grow[cl]) grow[cl] = low;

    const double* k_low = k.data() + cl * u;
    for (std::uint32_t t : active) g[t] += step * (k_up[t] - k_low[t]);
    writes += active.size();
    ++iterations_;
  }

  // max_iter exit while shrunk: stale gradients would corrupt rho and the
  // training decisions, so reconstruct before returning.
  if (active.size() < u) reconstruct_gradient();
  Metrics::get().gradient_updates.inc(writes);
}

double OneClassSvm::decision_scaled(std::span<const double> z) const {
  const std::size_t d = z.size();
  double nz = 0.0;
  for (double v : z) nz += v * v;
  double sum = 0.0;
  const double* base = sv_x_.data();
  for (std::size_t s = 0; s < sv_alpha_.size(); ++s) {
    const double* xs = base + s * d;
    double dot_ab = 0.0;
    for (std::size_t t = 0; t < d; ++t) dot_ab += xs[t] * z[t];
    sum += sv_alpha_[s] *
           kernel_from_dot(params_.kernel, gamma_, dot_ab, sv_norms_[s], nz);
  }
  return sum - rho_;
}

std::vector<double> OneClassSvm::decision_batch(const Matrix& rows) const {
  SENT_REQUIRE_MSG(fitted(), "decision_batch() before fit()");
  Metrics::get().decision_points.inc(rows.rows());
  SENT_REQUIRE(rows.empty() || rows.cols() == dim_);
  // Standardize the whole batch once; per-query work is then just the
  // compact SV sum.
  Matrix z = scaler_.transform(rows);
  std::vector<double> out(z.rows());
  auto task = [&](std::size_t i) { out[i] = decision_scaled(z.row(i)); };
  if (params_.pool != nullptr) {
    params_.pool->parallel_for(z.rows(), task);
  } else {
    for (std::size_t i = 0; i < z.rows(); ++i) task(i);
  }
  return out;
}

std::size_t OneClassSvm::support_vector_count() const {
  std::size_t n = 0;
  for (double a : alpha_) n += a > kEps;
  return n;
}

std::vector<double> OneClassSvm::score(const ml::Matrix& rows) {
  fit(rows);
  return train_decision_;
}

}  // namespace sent::ml
