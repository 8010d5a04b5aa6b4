"""The six regularization property suites shared by the unit tests and the
acceptance battery.

Each suite checks one stated inequality of the smoothed-constraint calculus
over a cloud of random states per catalog function, at tight tolerances;
the operators take each cloud as one stack per eps:

  1. gradient is (1/eps)-Lipschitz
  2. gradient is monotone (inner product >= -1e-12)
  3. mixed-width weak monotonicity with the -(eps+delta)<g_eps, g_delta> term
  4. when phi >= phi(0) = 0: (eps/2)|g|^2 <= envelope <= <g, x>
  5. envelope/resolvent consistency: envelope = |x-Jx|^2/(2 eps) + phi(Jx)
  6. envelope is monotone nonincreasing in eps (and sandwiched by phi)
"""

from __future__ import annotations

import numpy as np

import oblique_skorohod as ok

EPS_GRID = (1.0, 0.1, 0.01)


def _cloud(phi: ok.ConvexFunction, n: int, rng: np.random.Generator) -> np.ndarray:
    pts = rng.normal(0.0, 2.0, size=(n, phi.dim))
    anchor = ok.project_set(phi.domain, np.zeros(phi.dim))
    pts[::7] = anchor + rng.normal(0.0, 0.05, size=(pts[::7].shape[0], phi.dim))
    return pts


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", u, v)


def suite_gradient_lipschitz(phi, n_samples: int, rng) -> float:
    """max violation of |g_eps(x) - g_eps(y)| <= (1/eps)|x-y|."""
    xs = _cloud(phi, n_samples, rng)
    ys = _cloud(phi, n_samples, rng)
    worst = -np.inf
    for eps in EPS_GRID:
        gx = ok.yosida_gradient(phi, eps, xs)
        gy = ok.yosida_gradient(phi, eps, ys)
        lhs = np.linalg.norm(gx - gy, axis=1)
        rhs = np.linalg.norm(xs - ys, axis=1) / eps
        worst = max(worst, float((lhs - rhs).max()))
    return worst


def suite_gradient_monotone(phi, n_samples: int, rng) -> float:
    """min of <g_eps(x) - g_eps(y), x - y>; contract >= -1e-12."""
    xs = _cloud(phi, n_samples, rng)
    ys = _cloud(phi, n_samples, rng)
    worst = np.inf
    for eps in EPS_GRID:
        gx = ok.yosida_gradient(phi, eps, xs)
        gy = ok.yosida_gradient(phi, eps, ys)
        worst = min(worst, float(_dot(gx - gy, xs - ys).min()))
    return worst


def suite_mixed_width(phi, n_samples: int, rng) -> float:
    """min slack of <g_eps(x) - g_del(y), x - y> + (eps+del)<g_eps, g_del>;
    contract >= -1e-10."""
    xs = _cloud(phi, n_samples, rng)
    ys = _cloud(phi, n_samples, rng)
    gxs = {eps: ok.yosida_gradient(phi, eps, xs) for eps in EPS_GRID}
    gys = {eps: ok.yosida_gradient(phi, eps, ys) for eps in EPS_GRID}
    worst = np.inf
    for eps in EPS_GRID:
        for delta in EPS_GRID:
            gx, gy = gxs[eps], gys[delta]
            val = _dot(gx - gy, xs - ys) + (eps + delta) * _dot(gx, gy)
            worst = min(worst, float(val.min()))
    return worst


def suite_envelope_bracket(phi, n_samples: int, rng) -> float:
    """For phi >= phi(0) = 0: max violation of
    (eps/2)|g|^2 <= envelope and envelope <= <g, x> (slack 1e-10)."""
    xs = _cloud(phi, n_samples, rng)
    worst = -np.inf
    for eps in EPS_GRID:
        g = ok.yosida_gradient(phi, eps, xs)
        env = ok.moreau_envelope(phi, eps, xs)
        lower = 0.5 * eps * _dot(g, g) - env
        upper = env - _dot(g, xs)
        worst = max(worst, float(lower.max()), float(upper.max()))
    return worst


def suite_envelope_consistency(phi, n_samples: int, rng) -> float:
    """max |envelope - (|x-Jx|^2/(2 eps) + phi(Jx))| and sandwich defect
    phi(Jx) <= envelope <= phi(x); contract <= 1e-10."""
    xs = _cloud(phi, n_samples, rng)
    fx = ok.eval_fn(phi, xs)
    finite = np.isfinite(fx)
    worst = -np.inf
    for eps in EPS_GRID:
        j = ok.resolvent(phi, eps, xs)
        env = ok.moreau_envelope(phi, eps, xs)
        fj = ok.eval_fn(phi, j)
        direct = _dot(xs - j, xs - j) / (2.0 * eps) + fj
        worst = max(worst, float(np.abs(env - direct).max()),
                    float((fj - env).max()),
                    float((env - fx)[finite].max(initial=-np.inf)))
    return worst


def suite_envelope_width_monotone(phi, n_samples: int, rng) -> float:
    """max violation of envelope(delta) >= envelope(eps) for delta <= eps."""
    xs = _cloud(phi, n_samples, rng)
    envs = {eps: ok.moreau_envelope(phi, eps, xs) for eps in EPS_GRID}
    worst = -np.inf
    pairs = [(e, d) for e in EPS_GRID for d in EPS_GRID if d <= e]
    for eps, delta in pairs:
        worst = max(worst, float((envs[eps] - envs[delta]).max()))
    return worst


# name -> (suite fn, comparison, bound); "max" means value must be <= bound,
# "min" means value must be >= bound
SUITES = {
    "gradient_lipschitz": (suite_gradient_lipschitz, "max", 1e-10),
    "gradient_monotone": (suite_gradient_monotone, "min", -1e-12),
    "mixed_width": (suite_mixed_width, "min", -1e-10),
    "envelope_bracket": (suite_envelope_bracket, "max", 1e-10),
    "envelope_consistency": (suite_envelope_consistency, "max", 1e-10),
    "envelope_width_monotone": (suite_envelope_width_monotone, "max", 1e-10),
}


def run_suite(name: str, phi, n_samples: int, seed: int) -> tuple[float, bool]:
    fn, mode, bound = SUITES[name]
    rng = np.random.default_rng(seed)
    val = fn(phi, n_samples, rng)
    passed = (val <= bound) if mode == "max" else (val >= bound)
    return val, passed
