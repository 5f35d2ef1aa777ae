"""Independent reference implementations used as test oracles.

Everything here is written from scratch with plain loops and generic
numerics, on purpose: agreement with the package then checks the vectorized
production code against a second, structurally different implementation.
"""

import numpy as np
from scipy import integrate
from scipy.special import gammaln


def interp_on_polyline(points, topology, t):
    """Loop-based linear interpolation of a uniformly parameterized
    polyline at a single parameter value."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    if topology == "closed":
        t = t % 1.0
        pos = t * n
        i = int(np.floor(pos)) % n
        frac = pos - np.floor(pos)
        a, b = pts[i], pts[(i + 1) % n]
    else:
        pos = t * (n - 1)
        i = min(int(np.floor(pos)), n - 2)
        frac = pos - i
        a, b = pts[i], pts[i + 1]
    return a + frac * (b - a)


def piecewise_linear_reconstruction(curve_points, topology, theta, nodes):
    """Reconstruction through the landmark images, loop implementation."""
    theta = list(theta)
    if topology == "open":
        knot_t = [0.0] + theta + [1.0]
    else:
        knot_t = [theta[-1] - 1.0] + theta + [theta[0] + 1.0]
    knot_xy = [interp_on_polyline(curve_points, topology, t) for t in knot_t]
    out = []
    for t in nodes:
        for i in range(len(knot_t) - 1):
            if knot_t[i] <= t <= knot_t[i + 1]:
                span = knot_t[i + 1] - knot_t[i]
                w = 0.0 if span == 0.0 else (t - knot_t[i]) / span
                out.append(knot_xy[i] + w * (knot_xy[i + 1] - knot_xy[i]))
                break
        else:
            out.append(knot_xy[-1])
    return np.asarray(out)


def srvf_of_values(vals, topology, dt):
    """Square-root velocity field via explicit per-node differencing."""
    vals = np.asarray(vals, dtype=float)
    n = len(vals)
    q = np.zeros_like(vals)
    for j in range(n):
        if topology == "closed":
            d = (vals[(j + 1) % n] - vals[(j - 1) % n]) / (2.0 * dt)
        elif j == 0:
            d = (vals[1] - vals[0]) / dt
        elif j == n - 1:
            d = (vals[-1] - vals[-2]) / dt
        else:
            d = (vals[j + 1] - vals[j - 1]) / (2.0 * dt)
        speed = float(np.hypot(d[0], d[1]))
        if speed >= 1e-12:
            q[j] = d / np.sqrt(speed)
    return q


def reconstruction_error_sq(curve_points, topology, theta, n_eval):
    """Weighted squared SRVF distance, fully independent pipeline."""
    if topology == "closed":
        nodes = np.arange(n_eval) / n_eval
        dt = 1.0 / n_eval
    else:
        nodes = np.linspace(0.0, 1.0, n_eval)
        dt = 1.0 / (n_eval - 1)
    curve_vals = np.array(
        [interp_on_polyline(curve_points, topology, t) for t in nodes]
    )
    rec_vals = piecewise_linear_reconstruction(curve_points, topology, theta, nodes)
    qc = srvf_of_values(curve_vals, topology, dt)
    qr = srvf_of_values(rec_vals, topology, dt)
    return float(((qc - qr) ** 2).sum() * dt)


def dirichlet_logpdf(s, alpha):
    """Textbook symmetric Dirichlet log density."""
    s = np.asarray(s, dtype=float)
    p = s.size
    return float(
        gammaln(p * alpha) - p * gammaln(alpha) + (alpha - 1.0) * np.log(s).sum()
    )


def kappa_quadrature_log_marginal(total_sq, a, b, nm):
    """Numerical integral over the noise precision of
    likelihood(kappa) * Gamma(kappa | a, b), on a log scale.

    The integrand is rescaled by its value at the mode so the quadrature
    works in a sane floating range; the two halves are integrated
    separately because infinite bounds cannot carry interior break points.
    """
    def log_integrand(kappa):
        log_lik = nm * np.log(kappa / np.pi) - kappa * total_sq
        log_prior = a * np.log(b) - gammaln(a) + (a - 1.0) * np.log(kappa) - b * kappa
        return log_lik + log_prior

    mode = (nm + a - 1.0) / (b + total_sq)
    mode = max(mode, 1e-6)
    peak = log_integrand(mode)

    def f(kappa):
        return np.exp(log_integrand(kappa) - peak)

    left, _ = integrate.quad(f, 0.0, mode, limit=200)
    right, _ = integrate.quad(f, mode, np.inf, limit=200)
    return float(peak + np.log(left + right))


def shifted_poisson_pmf(k, lam, k_min, k_max):
    """Normalized pmf of k = k_min + Poisson(lam) truncated at k_max."""
    ks = np.arange(k_min, k_max + 1)
    nus = ks - k_min
    logp = nus * np.log(lam) - lam - gammaln(nus + 1.0)
    p = np.exp(logp)
    p /= p.sum()
    return float(p[k - k_min])


def k_posterior_prior_mc(sample, spec, n_draws, seed):
    """p(k | y) for k = 1 .. k_max on an open-curve sample: the truncated
    shifted-Poisson prior times a Monte Carlo estimate of each k's marginal
    likelihood, the mean over Dirichlet prior draws of (b + D)^-(a + NM)
    (the factor that depends on the landmarks), where a draw with a
    spacing below 1/(4N) counts as 0."""
    from curvemark.model import total_reconstruction_error_sq_batch

    rng = np.random.default_rng(seed)
    shape = spec.a + spec.n_eval * sample.m
    ks = np.arange(1, spec.k_max + 1)
    log_p = []
    for k in ks:
        s = rng.dirichlet(np.full(k + 1, spec.alpha), size=n_draws)
        ok = s.min(axis=1) >= 1.0 / (4.0 * spec.n_eval)
        theta = np.cumsum(s[ok], axis=1)[:, :-1]
        terms = -shape * np.log(spec.b + total_reconstruction_error_sq_batch(sample, theta))
        peak = terms.max()
        log_z = peak + np.log(np.exp(terms - peak).sum() / n_draws)
        log_p.append(np.log(shifted_poisson_pmf(k, spec.lam, 1, spec.k_max)) + log_z)
    p = np.exp(np.array(log_p) - max(log_p))
    return p / p.sum()


def sort_quantile(x, q):
    """Linear-interpolation quantile computed from an explicit sort."""
    xs = np.sort(np.asarray(x, dtype=float))
    n = xs.size
    h = (n - 1) * q
    lo = int(np.floor(h))
    hi = min(lo + 1, n - 1)
    return float(xs[lo] + (h - lo) * (xs[hi] - xs[lo]))


def best_cyclic_rotation(theta, ref):
    """Exhaustive search over cyclic rotations, minimizing summed circular
    distance to the reference; ties go to the smallest rotation."""
    k = len(theta)
    best_r, best_cost = 0, np.inf
    for r in range(k):
        cand = np.concatenate([theta[r:], theta[:r]])
        d = np.abs(cand - ref)
        cost = float(np.minimum(d, 1.0 - d).sum())
        if cost < best_cost:
            best_r, best_cost = r, cost
    return np.concatenate([theta[best_r:], theta[:best_r]])


def align_posterior_thetas(thetas):
    """Label alignment one draw at a time: every draw rotated by
    :func:`best_cyclic_rotation` against the first."""
    ref = thetas[0]
    return [ref.copy()] + [best_cyclic_rotation(th, ref) for th in thetas[1:]]


def grid_posterior_k1(log_post_fn, n_grid=2000):
    """Brute-force normalized k=1 posterior on a uniform grid of cell
    centers over (0, 1).  Returns (centers, probabilities)."""
    centers = (np.arange(n_grid) + 0.5) / n_grid
    logs = np.array([log_post_fn(np.array([t])) for t in centers])
    finite = np.isfinite(logs)
    w = np.zeros(n_grid)
    w[finite] = np.exp(logs[finite] - logs[finite].max())
    return centers, w / w.sum()


def three_segment_polyline(n=60):
    """Open polyline with two interior kinks; used for small-grid posterior
    comparisons where the k=1 posterior is genuinely multimodal."""
    a = np.array([0.0, 0.0])
    b = np.array([0.4, 0.3])
    c = np.array([0.7, 0.0])
    d = np.array([1.0, 0.2])
    segs = []
    for p, q, m in ((a, b, n // 3), (b, c, n // 3), (c, d, n - 2 * (n // 3))):
        w = np.linspace(0.0, 1.0, m, endpoint=False)[:, None]
        segs.append(p + w * (q - p))
    pts = np.vstack(segs + [d[None, :]])
    return pts


def one_at_a_time_chain(sample, spec, cfg, k=None, variable_k=False, prior_only=False):
    """Reference chain that scores every proposal on its own with the
    scalar log posterior: the random-walk Metropolis chain (fixed k) or
    the birth-death-stay chain (``variable_k``).  After the start state it
    reads the documented random table, one row per iteration: drawn in
    chunks of 1024 rows, each ``rng.random((n, 3))`` (move, location or
    index, accept) then ``rng.standard_normal(n)`` (stay step).  Returns
    (thetas, ks, log_post, accept_rate) of the retained draws."""
    from curvemark.model import log_posterior_theta
    from curvemark.rjmcmc import draw_initial_state
    from curvemark.rwm import draw_initial_theta

    closed = spec.topology == "closed"
    k_min = 3 if closed else 1
    rng = np.random.default_rng(cfg.seed)

    def logpost(th):
        return log_posterior_theta(
            sample, th, spec, variable_k=variable_k, include_likelihood=not prior_only
        )

    for _ in range(100):
        theta = draw_initial_state(rng, spec) if variable_k else draw_initial_theta(rng, spec, k)
        logp = logpost(theta)
        if logp > -np.inf:
            break

    def probs(kk):
        pb, pd, ps = cfg.move_probs
        return (pb + pd, 0.0) if kk <= k_min else (pb, pd)

    burn_in = int(round(cfg.n_iter * cfg.burn_in_frac))
    thetas, log_post, accepted = [], [], 0
    for t in range(cfg.n_iter):
        if t % 1024 == 0:
            uniforms = rng.random((min(1024, cfg.n_iter - t), 3))
            normals = rng.standard_normal(len(uniforms))
        u_move, where, a = uniforms[t % 1024]
        kk = theta.size
        log_ratio = 0.0
        move = "stay"
        if variable_k:
            pb, pd = probs(kk)
            move = "birth" if u_move < pb else "death" if u_move < pb + pd else "stay"
        index = min(int(np.floor(where * kk)), kk - 1)
        if move == "birth":
            prop = np.sort(np.append(theta, where))
            log_ratio = np.log(probs(kk + 1)[1]) - np.log(kk + 1.0) - np.log(probs(kk)[0])
        elif move == "death":
            prop = np.delete(theta, index)
            log_ratio = np.log(probs(kk - 1)[0]) + np.log(float(kk)) - np.log(probs(kk)[1])
        else:
            prop = theta.copy()
            prop[index] += normals[t % 1024] * np.sqrt(cfg.proposal_var)
            if closed:
                prop[index] = np.mod(prop[index], 1.0)
                if prop[index] == 1.0:  # a value just below 0 wraps to 0
                    prop[index] = 0.0
                prop = np.sort(prop)
        logp_new = logpost(prop)
        if logp_new > -np.inf and np.log(a) < (logp_new - logp) + log_ratio:
            theta, logp = prop, logp_new
            accepted += 1
        if t >= burn_in and (t - burn_in) % cfg.thin == 0:
            thetas.append(theta.copy())
            log_post.append(logp)
    ks = np.array([th.size for th in thetas])
    return thetas, ks, np.array(log_post), accepted / cfg.n_iter


def best_start_offset(q, q_ref):
    """Exhaustive start-offset search: the squared SRVF distance of every
    cyclic shift summed directly; ties go to the lowest offset."""
    costs = [float(np.sum((np.roll(q, -m, axis=0) - q_ref) ** 2)) for m in range(len(q))]
    return int(np.argmin(costs))


def kde_direct(x, bw, topology, n_grid=512):
    """Reflected (open) or wrapped (closed) Gaussian KDE on [0, 1] from
    one full grid-by-data matrix."""
    x = np.asarray(x, dtype=float)
    if topology == "closed":
        data = np.concatenate([x - 1.0, x, x + 1.0])
    else:
        data = np.concatenate([-x, x, 2.0 - x])
    grid = np.linspace(0.0, 1.0, n_grid)
    z = (grid[:, None] - data[None, :]) / bw
    return np.exp(-0.5 * z * z).sum(axis=1) / (x.size * bw * np.sqrt(2.0 * np.pi))
