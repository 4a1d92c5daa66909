#include "linalg/iterative.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "check/fault_inject.h"
#include "obs/counters.h"

namespace finwork::la {

IterativeResult neumann_solve_left(const RowOperator& apply_p, const Vector& b,
                                   double tol, std::size_t max_iter) {
  IterativeResult res;
  res.x = b;
  if (check::fault_at("iterative/neumann")) {
    // Injected non-convergence: report failure exactly as an exhausted
    // iteration cap would, so callers exercise their real fallback path.
    res.residual = b.norm_inf();
    return res;
  }
  Vector term = b;
  for (std::size_t n = 1; n <= max_iter; ++n) {
    term = apply_p(term);
    res.x += term;
    res.iterations = n;
    const double t = term.norm_inf();
    if (t < tol) {
      res.converged = true;
      res.residual = t;
      obs::counter_add(obs::Counter::kNeumannIterations, res.iterations);
      return res;
    }
  }
  res.residual = term.norm_inf();
  obs::counter_add(obs::Counter::kNeumannIterations, res.iterations);
  return res;
}

IterativeResult neumann_solve(const GatherMatrix& a, const Vector& b,
                              double tol, std::size_t max_iter) {
  return detail::neumann_solve(a, b, tol, max_iter,
                               detail::host_sweep_kernel());
}

IterativeResult detail::neumann_solve(const GatherMatrix& a, const Vector& b,
                                      double tol, std::size_t max_iter,
                                      SweepKernel kernel) {
  if (a.cols() != a.rows() || b.size() != a.rows()) {
    throw std::invalid_argument("neumann_solve: size mismatch");
  }
  IterativeResult res;
  res.x = b;
  res.residual = b.norm_inf();
  if (check::fault_at("iterative/neumann")) {
    // Injected non-convergence: report failure exactly as an exhausted
    // iteration cap would, so callers exercise their real fallback path.
    return res;
  }
  Vector x = a.to_grouped(b);
  Vector term = x;
  Vector next(b.size());
  while (!res.converged && res.iterations < max_iter) {
    ++res.iterations;
    // next = A term, x += next and t = max |next|, in one pass over A.
    res.residual =
        a.neumann_sweep(term.data(), next.data(), x.data(), kernel);
    res.converged = res.residual < tol;
    std::swap(term, next);
  }
  res.x = a.from_grouped(x);
  obs::counter_add(obs::Counter::kNeumannIterations, res.iterations);
  if (kernel == SweepKernel::kAvx512) {
    obs::counter_add(obs::Counter::kSimdSweeps, res.iterations);
  }
  return res;
}

IterativeResult bicgstab_left(const RowOperator& apply_a, const Vector& b,
                              double tol, std::size_t max_iter) {
  IterativeResult res;
  const std::size_t n = b.size();
  res.x = Vector(n, 0.0);
  if (check::fault_at("iterative/bicgstab")) {
    res.residual = b.norm2();
    return res;
  }
  Vector r = b;  // r = b - x A with x = 0
  Vector r_hat = r;
  Vector p(n, 0.0);
  Vector v(n, 0.0);
  double rho = 1.0, alpha = 1.0, omega = 1.0;
  const double bnorm = std::max(b.norm2(), 1e-300);

  // Restart the recurrence (r_hat <- r) when the BiCG coefficients become
  // numerically degenerate instead of giving up — standard stabilization for
  // nearly-converged or unlucky shadow residuals.
  auto restart = [&] {
    r_hat = r;
    p.fill(0.0);
    v.fill(0.0);
    rho = alpha = omega = 1.0;
  };

  for (std::size_t k = 1; k <= max_iter; ++k) {
    double rho_next = dot(r_hat, r);
    if (std::abs(rho_next) < 1e-30 * r.norm2() * r_hat.norm2() + 1e-300) {
      restart();
      rho_next = dot(r_hat, r);
      if (std::abs(rho_next) < 1e-300) break;  // true breakdown: r ~ 0
    }
    const double beta = (rho_next / rho) * (alpha / omega);
    rho = rho_next;
    // p = r + beta (p - omega v)
    for (std::size_t i = 0; i < n; ++i) p[i] = r[i] + beta * (p[i] - omega * v[i]);
    v = apply_a(p);
    const double rhv = dot(r_hat, v);
    if (std::abs(rhv) < 1e-300) {
      restart();
      continue;
    }
    alpha = rho / rhv;
    Vector s = r;
    axpy(-alpha, v, s);
    if (s.norm2() / bnorm < tol) {
      axpy(alpha, p, res.x);
      res.iterations = k;
      res.converged = true;
      res.residual = s.norm2() / bnorm;
      obs::counter_add(obs::Counter::kBicgstabIterations, res.iterations);
      return res;
    }
    const Vector t = apply_a(s);
    const double tt = dot(t, t);
    if (tt < 1e-300) break;
    omega = dot(t, s) / tt;
    axpy(alpha, p, res.x);
    axpy(omega, s, res.x);
    r = s;
    axpy(-omega, t, r);
    res.iterations = k;
    const double rel = r.norm2() / bnorm;
    res.residual = rel;
    if (rel < tol) {
      res.converged = true;
      obs::counter_add(obs::Counter::kBicgstabIterations, res.iterations);
      return res;
    }
    if (std::abs(omega) < 1e-300) restart();
  }
  obs::counter_add(obs::Counter::kBicgstabIterations, res.iterations);
  return res;
}

IterativeResult gmres_left(const RowOperator& apply_a, const Vector& b,
                           double tol, std::size_t max_iter,
                           std::size_t restart) {
  IterativeResult res;
  const std::size_t n = b.size();
  res.x = Vector(n, 0.0);
  if (check::fault_at("iterative/gmres")) {
    res.residual = b.norm2();
    return res;
  }
  const double bnorm = std::max(b.norm2(), 1e-300);
  const std::size_t m = std::max<std::size_t>(1, std::min(restart, n));
  // Column-major Hessenberg: h(i, j) = h[j * (m + 1) + i].
  std::vector<double> h((m + 1) * m, 0.0);
  std::vector<double> cs(m, 0.0);
  std::vector<double> sn(m, 0.0);
  std::vector<double> g(m + 1, 0.0);
  std::vector<Vector> basis;
  basis.reserve(m + 1);

  std::size_t applied = 0;
  while (applied < max_iter) {
    // r = b - x A; the restart residual is exact, not recurrence-drifted.
    Vector r = apply_a(res.x);
    for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - r[i];
    const double beta = r.norm2();
    res.residual = beta / bnorm;
    if (res.residual < tol) {
      res.converged = true;
      obs::counter_add(obs::Counter::kGmresIterations, applied);
      return res;
    }
    std::fill(h.begin(), h.end(), 0.0);
    std::fill(g.begin(), g.end(), 0.0);
    g[0] = beta;
    basis.clear();
    r /= beta;
    basis.push_back(std::move(r));

    // Arnoldi with modified Gram-Schmidt, the Hessenberg kept triangular by
    // Givens rotations so the least-squares residual |g[j+1]| is free.
    std::size_t cols = 0;
    bool breakdown = false;
    for (std::size_t j = 0; j < m && applied < max_iter; ++j) {
      Vector w = apply_a(basis[j]);
      ++applied;
      for (std::size_t i = 0; i <= j; ++i) {
        const double hij = dot(w, basis[i]);
        h[j * (m + 1) + i] = hij;
        axpy(-hij, basis[i], w);
      }
      const double hnext = w.norm2();
      for (std::size_t i = 0; i < j; ++i) {
        const double t =
            cs[i] * h[j * (m + 1) + i] + sn[i] * h[j * (m + 1) + i + 1];
        h[j * (m + 1) + i + 1] =
            -sn[i] * h[j * (m + 1) + i] + cs[i] * h[j * (m + 1) + i + 1];
        h[j * (m + 1) + i] = t;
      }
      const double denom = std::hypot(h[j * (m + 1) + j], hnext);
      if (denom < 1e-300) {
        breakdown = true;  // zero column: nothing more in this Krylov space
        break;
      }
      cs[j] = h[j * (m + 1) + j] / denom;
      sn[j] = hnext / denom;
      h[j * (m + 1) + j] = denom;
      g[j + 1] = -sn[j] * g[j];
      g[j] *= cs[j];
      cols = j + 1;
      if (std::abs(g[j + 1]) / bnorm < tol || hnext < 1e-300) {
        breakdown = hnext < 1e-300;  // happy breakdown: solution is exact
        break;
      }
      w /= hnext;
      basis.push_back(std::move(w));
    }
    // Back-substitute y from the triangularized H and accumulate x.
    std::vector<double> y(cols, 0.0);
    for (std::size_t i = cols; i-- > 0;) {
      double s = g[i];
      for (std::size_t j = i + 1; j < cols; ++j) s -= h[j * (m + 1) + i] * y[j];
      y[i] = s / h[i * (m + 1) + i];
    }
    for (std::size_t i = 0; i < cols; ++i) axpy(y[i], basis[i], res.x);
    res.iterations = applied;
    if (breakdown && cols == 0) break;  // stagnated: report non-convergence
  }
  Vector r = apply_a(res.x);
  for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - r[i];
  res.residual = r.norm2() / bnorm;
  res.converged = res.residual < tol;
  obs::counter_add(obs::Counter::kGmresIterations, applied);
  return res;
}

RowOperator row_operator(const CsrMatrix& m) {
  return [&m](const Vector& x) { return m.apply_left(x); };
}

RowOperator row_operator(const Matrix& m) {
  return [&m](const Vector& x) { return x * m; };
}

}  // namespace finwork::la
