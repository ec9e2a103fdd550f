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

// The Gram as the SMO reads it: K over U distinct rows plus each training
// row's class, Q(i, j) = K[cls(i) * U + cls(j)].
struct OneClassSvm::ClassGram {
  std::vector<double> k;           ///< U x U, row-major
  std::vector<std::uint32_t> cls;  ///< training row -> class
  std::size_t u = 0;

  const double* row(std::size_t i) const { return k.data() + cls[i] * u; }
};

OneClassSvm::OneClassSvm(OcsvmParams params) : params_(params) {
  SENT_REQUIRE_MSG(params_.nu > 0.0 && params_.nu <= 1.0,
                   "nu must be in (0, 1]");
  SENT_REQUIRE(params_.tol > 0.0);
}

std::string OneClassSvm::name() const {
  return "ocsvm-" + params_.kernel.to_string();
}

void OneClassSvm::fit(const Matrix& rows) {
  std::size_t d = check_matrix(rows);
  const double* data = rows.data();
  for (std::size_t i = 0, n = rows.rows() * d; i < n; ++i)
    if (!std::isfinite(data[i]))
      throw TrainingError("non-finite value in feature matrix");
  Matrix train;
  {
    obs::Span scale_span(Metrics::get().scale);
    scaler_.fit(rows);
    train = scaler_.transform(rows);
  }
  gamma_ = resolve_gamma(params_.kernel, d);
  dim_ = d;
  solve(train);

  // Compact the model to its support vectors so inference scales with the
  // SV count.
  std::size_t nsv = 0;
  for (double a : alpha_) nsv += a > kEps;
  sv_x_ = Matrix(nsv, d);
  sv_alpha_.clear();
  sv_alpha_.reserve(nsv);
  std::size_t s = 0;
  for (std::size_t i = 0; i < alpha_.size(); ++i) {
    if (alpha_[i] <= kEps) continue;
    std::span<const double> src = train.row(i);
    std::copy(src.begin(), src.end(), sv_x_.row(s).begin());
    sv_alpha_.push_back(alpha_[i]);
    ++s;
  }
  sv_norms_ = row_squared_norms(sv_x_);
  Metrics::get().support_vectors.record(nsv);
  fitted_ = true;
}

void OneClassSvm::solve(const Matrix& x) {
  const std::size_t l = x.rows();
  const double c = 1.0 / (params_.nu * static_cast<double>(l));

  // Intervals that ran the same handler path share one feature row, so the
  // Gram is built over the U distinct rows only and read as
  // Q(i, j) = K[cls(i) * U + cls(j)]: O(U^2 + l) memory instead of O(l^2),
  // and identical rows see identical Q rows, so they tie exactly. With no
  // duplicates (U = l) this is the dense Gram of x itself. The build is the
  // O(U^2 d) hot path; see kernel_opt.cpp for the blocked norm-cached build.
  ClassGram q;
  {
    obs::Span build_span(Metrics::get().kernel_build);
    const Matrix distinct = group_identical_rows(x, q.cls);
    q.u = distinct.rows();
    build_kernel_matrix(params_.kernel, gamma_, distinct, params_.pool, q.k);
  }
  Metrics::get().kernel_cells.inc(q.u * q.u);
  Metrics::get().distinct_rows.record(q.u);
  obs::Span smo_span(Metrics::get().smo);

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

  // Gradient G = Q alpha.
  std::vector<double> g(l, 0.0);
  const std::uint32_t* cls = q.cls.data();
  for (std::size_t i = 0; i < l; ++i) {
    if (alpha_[i] <= kEps) continue;
    const double a = alpha_[i];
    const double* qi = q.row(i);
    for (std::size_t j = 0; j < l; ++j) g[j] += a * qi[cls[j]];
  }

  converged_ = false;
  iterations_ = 0;
  smo(q, l, c, g);
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
    if (alpha_[t] > kEps && alpha_[t] < c - kEps) {
      free_sum += g[t];
      ++free_count;
    } else if (alpha_[t] <= kEps) {
      ub = std::min(ub, g[t]);
    } else {
      lb = std::max(lb, g[t]);
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
  for (std::size_t t = 0; t < l; ++t) train_decision_[t] = g[t] - rho_;
}

// Second-order (WSS2) working-set selection with shrinking, following
// LIBSVM's one-class solver. The active set is a plain index list;
// gradients of shrunk variables go stale and are reconstructed from
// Q alpha (support vectors only) before any full-set decision.
void OneClassSvm::smo(const ClassGram& q, std::size_t l, double c,
                      std::vector<double>& g) {
  // Rows of the Gram are class rows of length U, indexed by cls[t]; kd is
  // the per-class diagonal Q_tt.
  const std::uint32_t* cls = q.cls.data();
  std::vector<double> kd(q.u);
  for (std::size_t k = 0; k < q.u; ++k) kd[k] = q.k[k * q.u + k];

  std::vector<std::size_t> active(l);
  std::iota(active.begin(), active.end(), std::size_t{0});
  const std::size_t shrink_interval = std::min<std::size_t>(l, 1000);
  std::size_t counter = shrink_interval;
  bool unshrunk = false;

  auto reconstruct_gradient = [&]() {
    if (active.size() == l) return;
    Metrics::get().reconstructs.inc();
    std::vector<char> is_active(l, 0);
    for (std::size_t t : active) is_active[t] = 1;
    for (std::size_t t = 0; t < l; ++t) {
      if (is_active[t]) continue;
      const double* qt = q.row(t);
      double sum = 0.0;
      for (std::size_t j = 0; j < l; ++j)
        if (alpha_[j] > kEps) sum += alpha_[j] * qt[cls[j]];
      g[t] = sum;
    }
  };

  auto activate_all = [&]() {
    active.resize(l);
    std::iota(active.begin(), active.end(), std::size_t{0});
  };

  // Rows of one class keep bitwise-equal gradients: a class at one bound
  // is shrunk, kept and reconstructed as a whole, and a class with rows at
  // both bounds or a free row has g_up <= G <= g_low, so none of its rows
  // is shrunk (DESIGN.md §10).
  auto do_shrinking = [&]() {
    Metrics::get().shrink_cycles.inc();
    double g_up = std::numeric_limits<double>::infinity();
    double g_low = -std::numeric_limits<double>::infinity();
    for (std::size_t t : active) {
      if (alpha_[t] < c - kEps) g_up = std::min(g_up, g[t]);
      if (alpha_[t] > kEps) g_low = std::max(g_low, g[t]);
    }
    // One aggressive unshrink near convergence (LIBSVM rule): restore and
    // re-evaluate everything once the active violation is within 10*tol.
    if (!unshrunk && g_low - g_up <= params_.tol * 10) {
      unshrunk = true;
      reconstruct_gradient();
      activate_all();
    }
    // A variable at a bound whose gradient cannot re-enter the violating
    // pair is dropped from the working set until the final re-check.
    std::size_t kept = 0;
    for (std::size_t t : active) {
      bool shrink = false;
      if (alpha_[t] >= c - kEps) {
        shrink = g[t] < g_up;
      } else if (alpha_[t] <= kEps) {
        shrink = g[t] > g_low;
      }
      if (!shrink) active[kept++] = t;
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
    std::size_t up = l;
    double g_up = std::numeric_limits<double>::infinity();
    double g_low = -std::numeric_limits<double>::infinity();
    for (std::size_t t : active) {
      if (alpha_[t] < c - kEps && g[t] < g_up) {
        g_up = g[t];
        up = t;
      }
      if (alpha_[t] > kEps && g[t] > g_low) g_low = std::max(g_low, g[t]);
    }
    if (up == l || g_low - g_up < params_.tol) {
      if (active.size() == l) {
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
    const double* q_up_row = q.row(up);
    const double q_uu = kd[cls[up]];
    std::size_t low = l;
    double best_gain = -std::numeric_limits<double>::infinity();
    for (std::size_t t : active) {
      if (alpha_[t] <= kEps) continue;
      const double grad_diff = g[t] - g_up;
      if (grad_diff <= 0.0) continue;
      const std::uint32_t ct = cls[t];
      double quad = q_uu + kd[ct] - 2.0 * q_up_row[ct];
      if (quad <= 0.0) quad = kTau;
      const double gain = grad_diff * grad_diff / quad;
      if (gain > best_gain) {
        best_gain = gain;
        low = t;
      }
    }
    SENT_ASSERT_MSG(low != l, "WSS2 found no violating down candidate");

    double denom = q_uu + kd[cls[low]] - 2.0 * q_up_row[cls[low]];
    double step = (g[low] - g[up]) / std::max(denom, kTau);
    step = std::min(step, c - alpha_[up]);
    step = std::min(step, alpha_[low]);
    if (!(step > 0.0))
      throw TrainingError(
          "pair update stalled (step " + std::to_string(step) +
          " at iteration " + std::to_string(iterations_) +
          "): violating pair selected but no feasible progress");
    alpha_[up] += step;
    alpha_[low] -= step;

    const double* q_low_row = q.row(low);
    for (std::size_t t : active) {
      const std::uint32_t ct = cls[t];
      g[t] += step * (q_up_row[ct] - q_low_row[ct]);
    }
    ++iterations_;
  }

  // max_iter exit while shrunk: stale gradients would corrupt rho and the
  // training decisions, so reconstruct before returning.
  if (active.size() < l) reconstruct_gradient();
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

double OneClassSvm::decision(std::span<const double> x) const {
  SENT_REQUIRE_MSG(fitted(), "decision() before fit()");
  SENT_REQUIRE(x.size() == dim_);
  std::vector<double> z(dim_);
  scaler_.transform_row(x, z);
  return decision_scaled(z);
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
