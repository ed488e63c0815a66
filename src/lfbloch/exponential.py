"""The exponential Runge-Kutta method of ``lfbloch.ode.solve``.

``solve(..., linear=L)`` integrates each row as ``y' = L y + N(t, y)``
with a constant complex 2x2 L on the two complex pairs of the state
``(Re z0, Im z0, w, Re z1, Im z1)`` (``N`` = 5 components; w has no
linear part), L exactly: its step is bounded by the nonlinear part
rather than by L, so no stability limit of L shortens it; its step
count is measured, not flat, in the stiffness of L (see
``lfbloch.dynamics.integrate``).  The pass loop, the step-size
controller, the failure handling and the counters are those of
``solve``; this module supplies the step, its error estimate and its
dense output (:class:`Exponential`), and the phi-functions of h L they
are built from.  ``solve`` imports it on first use.

The phi-functions come from L's two eigenvalues in Putzer's form, with
the values and divided differences of the scalar phi_k from a Taylor
series near 0, Cauchy's integral on a circle further out, and the plain
recurrence far out: exact where the eigenvalues meet, and the same bits
for an entry in any array.

References
----------
Hochbruck & Ostermann, SIAM J. Numer. Anal. 43, 1069 (2005) and Acta
Numerica 19, 209 (2010); Kassam & Trefethen, SIAM J. Sci. Comput. 26,
1214 (2005).
"""

from __future__ import annotations

import math

import numpy as np

from lfbloch.ode import _store

__all__ = ["Exponential"]

# phi_0 = exp and phi_k(z) = (phi_{k-1}(z) - 1/(k-1)!)/z: the weights of
# y' = L y + N(t, y) integrated with L exact; phi_k(0) = 1/k!
_INV_FACTORIAL = np.array([1.0 / math.factorial(k) for k in range(5)])
# phi_4's Taylor series sum_j z^j/(j + 4)! is summed up to |z| = 2 (22
# terms reach 2^22/26! < 1e-20), the recurrence phi_k(z) = (phi_{k-1}(z)
# - 1/(k-1)!)/z from |z| = 8 on (it loses at most a few ulps there), and
# between them the mean of phi_k on the unit circle about z (Cauchy's
# formula with the trapezoidal rule, Kassam & Trefethen; its error is
# below 1/32! for these entire functions)
_SERIES_RADIUS = 2.0
_DIRECT_RADIUS = 8.0
_SERIES = np.array([1.0 / math.factorial(j + 4) for j in range(22)])
# _SERIES_ODD[m, i] = C(i + l, l)/(i + l + 4)! with l = 2m + 1: the series
# of phi_4[mu + d, mu - d] in mu^i d^(l-1), for |d| < 1/4 (d^12/13! <
# 1e-17) and |mu| <= 2
_SERIES_ODD = np.array([[math.comb(i + l, l) / math.factorial(i + l + 4)
                         for i in range(22)]
                        for l in range(1, 14, 2)])
_CIRCLE = np.exp(2j * np.pi * (np.arange(32) + 0.5) / 32)
# the cubic through N at theta = 0, 1/3, 2/3 and 1 as sum_q theta^q/q!
# d_q: row q holds the weights of d_q (the inverse of the matrix of
# theta^q/q! at the nodes)
_CUBIC = np.array([[1.0, 0.0, 0.0, 0.0], [-5.5, 9.0, -4.5, 1.0],
                   [18.0, -45.0, 36.0, -9.0], [-27.0, 81.0, -81.0, 27.0]])
# The state layout (Re z0, Im z0, w, Re z1, Im z1): the columns of the
# real and imaginary parts of z0 and z1, on which L acts, and of w
N = 5
_RE, _IM, _REST = np.array([0, 3]), np.array([1, 4]), [2]
# Samples at most per slice of a pass's dense output: its phi-functions
# take up to about 3 kB per sample (the contour means and the divided-
# difference series), so a pass of long steps on many rows is evaluated
# a slice at a time
DENSE_SAMPLES = 1024


def _phi_direct(z: np.ndarray) -> np.ndarray:
    """phi_0..phi_4 at z by their recurrence (for |z| >= 1/2, where its
    cancellation stays small)."""
    out = np.empty((5,) + z.shape, complex)
    out[0] = np.exp(z)
    for k in range(1, 5):
        out[k] = (out[k - 1] - _INV_FACTORIAL[k - 1]) / z
    return out


def _phi_down(value: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Fill value[0:4] from phi_4 in value[4]: phi_{k-1}(z) = z phi_k(z)
    + 1/(k-1)!, stable for |z| <= 2."""
    for k in range(4, 0, -1):
        np.add(z * value[k], _INV_FACTORIAL[k - 1], out=value[k - 1])
    return value


def _powers(z: np.ndarray, count: int) -> np.ndarray:
    """z^1..z^count of each z, one row per z: sums over the last axis
    add each row alike (pairwise), whatever the number of rows."""
    return np.cumprod(np.broadcast_to(z[:, None], (z.size, count)), axis=1)


def _phi_series(z: np.ndarray) -> np.ndarray:
    """phi_0..phi_4 at z from phi_4's Taylor series."""
    value = np.empty((5, z.size), complex)
    value[4] = _SERIES[0] + (_powers(z, 21) * _SERIES[1:]).sum(axis=-1)
    return _phi_down(value, z)


def _phi_series_divided(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """phi_0..phi_4[a, b] for |a - b| < 1/2 and |a|, |b| <= 2.

    With mu = (a + b)/2 and d = (a - b)/2, the divided difference of
    z^j is sum over odd l of C(j, l) mu^(j-l) d^(l-1), so phi_4[a, b] is
    sum_l d^(l-1) sum_i _SERIES_ODD[l, i] mu^i (no cancellation, exact
    at a = b); then (z phi_k)[a, b] = phi_k(a) + b phi_k[a, b] gives
    the others.
    """
    mu, d = 0.5 * (a + b), 0.5 * (a - b)
    inner = _SERIES_ODD[:, 0] + (_powers(mu, 21)[:, None]
                                 * _SERIES_ODD[:, 1:]).sum(axis=-1)
    divided = np.empty((5, a.size), complex)
    divided[4] = inner[:, 0] + (inner[:, 1:] * _powers(d * d, 6)).sum(axis=-1)
    value = _phi_series(a)
    for k in range(4, 0, -1):
        np.add(value[k], b * divided[k], out=divided[k - 1])
    return divided


def _phi_values(z: np.ndarray) -> np.ndarray:
    """phi_0..phi_4 at each z (see ``_SERIES_RADIUS``)."""
    r = abs(z)
    # the same per entry as below, without the masks when all agree
    if r.max(initial=0.0) <= _SERIES_RADIUS:
        return _phi_series(z)
    if r.min() >= _DIRECT_RADIUS:
        return _phi_direct(z)
    out = np.empty((5, z.size), complex)
    series, direct = r <= _SERIES_RADIUS, r >= _DIRECT_RADIUS
    contour = ~series & ~direct
    if series.any():
        out[:, series] = _phi_series(z[series])
    if direct.any():
        out[:, direct] = _phi_direct(z[direct])
    if contour.any():
        out[:, contour] = _phi_direct(z[contour, None]
                                      + _CIRCLE).mean(axis=-1)
    return out


def _phis(a: np.ndarray, b: np.ndarray) -> tuple:
    """phi_k(a) and the divided differences phi_k[a, b], k = 0..4.

    A divided difference is the quotient of the values when
    |a - b| >= 1/2.  Closer, it comes from the series up to |a|,
    |b| <= 2, and else from the mean of phi_k(zeta) (zeta - mu)/((zeta
    - a)(zeta - b)) on the unit circle about mu = (a + b)/2 (Cauchy's
    formula again): both stay exact as a and b meet (degenerate modes).
    Each entry is computed on its own, with the same bits in any array.
    """
    value = _phi_values(a)
    far = abs(a - b) >= 0.5
    if far.all():
        return value, (value - _phi_values(b)) / (a - b)
    divided = np.empty_like(value)
    if far.any():
        divided[:, far] = ((value[:, far] - _phi_values(b[far]))
                           / (a[far] - b[far]))
    small = ~far & (np.maximum(abs(a), abs(b)) <= _SERIES_RADIUS)
    if small.any():
        divided[:, small] = _phi_series_divided(a[small], b[small])
    near = ~far & ~small
    if near.any():
        zeta = 0.5 * (a[near] + b[near])[:, None] + _CIRCLE
        weight = _CIRCLE / ((zeta - a[near, None]) * (zeta - b[near, None]))
        divided[:, near] = (_phi_direct(zeta) * weight).mean(axis=-1)
    return value, divided


def _eigenvalues(L: np.ndarray) -> tuple:
    """Both eigenvalues of each 2x2 matrix of L, shape (B, 2, 2), by the
    stable quadratic formula: the root of larger modulus, then det/root,
    so that the small root keeps its digits.  Small root first."""
    tr = L[:, 0, 0] + L[:, 1, 1]
    det = L[:, 0, 0] * L[:, 1, 1] - L[:, 0, 1] * L[:, 1, 0]
    sq = np.sqrt((L[:, 0, 0] - L[:, 1, 1]) ** 2
                 + 4.0 * L[:, 0, 1] * L[:, 1, 0])
    sq = np.where((tr.conj() * sq).real < 0.0, -sq, sq)
    big = 0.5 * (tr + sq)
    zero = big == 0.0  # a zero trace and discriminant: both roots 0
    return np.where(zero, 0.0, det / np.where(zero, 1.0, big)), big


class Exponential:
    """The exponential method for ``y' = L y + N(t, y)``.

    The step is Hochbruck & Ostermann, SIAM J. Numer. Anal. 43, 1069
    (2005), eq. (5.19): five stages at c = 0, 1/2, 1/2, 1, 1/2, stiff
    order 4.  Its error estimate has two parts, added in quadrature:
    the embedded solution of stiff order 3 that takes N at the new state
    (the FSAL stage) in place of the fourth stage, and the difference
    from the order-4 exponential quadrature of the cubic through N at
    t, t + h/3, t + 2h/3 and t + h.  The stages at c = 1/2 sit at one
    time, so an estimate built on them alone misses a fast transient in
    N; the quadrature's other nodes see it.  The same cubic gives the
    dense output, of order 4.

    The estimate is that of the solution the step keeps (no local
    extrapolation), so a run's error adds up over its steps, by up to
    0.14 tol per step on strongly driven runs, whose N is stiff where w
    is far from -1 and can ask for thousands of steps.  So once a row
    has taken ``span_steps`` steps, ``solve`` holds it to error per unit
    step: the estimate of a step shorter than the unit, span/span_steps
    of the row, is scaled by unit/h (at most ``max_scale``, which keeps
    a step at the estimate's rounding floor acceptable).  The run's
    error then stays within about 2 ``span_steps`` steps' worth, however
    many steps it takes; a row of fewer steps keeps its bits.

    Row b of P holds its piece's k constants, then the real (N, N) form
    of its L, then L - lambda_1 I and the eigenvalues lambda_1,
    lambda_2 (the small one first); ``nonlinear`` is ``rhs - L y``, and
    the stages K hold N.  Each phi_k(c h L) is Putzer's form
    ``phi_k(c a) I + c phi_k[c a, c b] h (L - lambda_1 I)`` with
    a, b = h lambda_1, h lambda_2: no eigenvectors, and exact where the
    eigenvalues meet.
    """

    exponent = -0.25  # 1/(embedded order + 1)
    start_exponent = 0.2  # of solve's starting-step heuristic
    span_steps = 100  # steps before error per unit step, span units
    max_scale = 100.0  # the largest factor on a step's estimate
    # N at c = 0, 1/2, 1/2, 1, 1/2, then at t + h/3 and t + 2h/3, then
    # at the new state (last, for FSAL)
    stages = 8

    def __init__(self, rhs, k: int):
        self.rhs, self.k = rhs, k

    @staticmethod
    def real_form(W: np.ndarray, rest) -> np.ndarray:
        """The real (N, N) matrices that act on a state as the complex
        2x2 matrices W act on its pairs, times rest on w."""
        out = np.zeros(W.shape[:-2] + (N, N))
        out[..., _RE[:, None], _RE] = out[..., _IM[:, None], _IM] = W.real
        out[..., _RE[:, None], _IM] = -W.imag
        out[..., _IM[:, None], _RE] = W.imag
        out[..., _REST, _REST] = np.asarray(rest)[..., None]
        return out

    def constants(self, L: np.ndarray) -> np.ndarray:
        """What each row's P carries after its piece constants: the real
        form of L, then L - lambda_1 I and lambda_1, lambda_2."""
        lam1, lam2 = _eigenvalues(L)
        return np.concatenate([
            self.real_form(L, 0.0).reshape(len(L), -1),
            (L - lam1[:, None, None] * np.eye(2)).reshape(-1, 4).view(float),
            np.stack([lam1, lam2], axis=1).view(float)], axis=1)

    def nonlinear(self, t, Y, P):
        """N = rhs - L y."""
        k = self.k
        F = np.array(self.rhs(t, Y, P[:, :k]), dtype=float)
        F -= np.matmul(P[:, k:k + N * N].reshape(-1, N, N),
                       Y[:, :, None])[:, :, 0]
        return F

    def _putzer(self, P, h):
        """h lambda_1, h lambda_2 and M = h (L - lambda_1 I) of each row
        at its step h."""
        rest = P[:, self.k + N * N:].view(complex)
        M = rest[:, :4].reshape(-1, 2, 2) * h[:, None, None]
        return h * rest[:, 4], h * rest[:, 5], M

    def attempt(self, y, K, P, t, h):
        """One step of every row from y, whose N is K[:, 0]; fills
        K[:, 1:] and returns the new state and its error estimate."""
        f = self.nonlinear
        a, b, M = self._putzer(P, h)
        # phi_k(c h L) for c = 1/2, 1, 1/3 and 2/3, in that order
        batch = len(h)
        nodes = np.repeat([0.5, 1.0, 1 / 3, 2 / 3], batch)
        value, divided = _phis(nodes * np.concatenate([a] * 4),
                               nodes * np.concatenate([b] * 4))
        # the real forms of phi_0..phi_3 of h L/2, then of h L
        c = nodes[:2 * batch, None, None]
        (h0, h1, h2, h3), (e0, e1, e2, e3) = self.real_form(
            (value[:4, :2 * batch, None, None] * np.eye(2)
             + c * divided[:4, :2 * batch, None, None]
             * np.concatenate([M, M])).reshape(4, 2, batch, 2, 2)
            .swapaxes(0, 1), _INV_FACTORIAL[:4, None])

        def app(R, G):
            return np.matmul(R, G[:, :, None])[:, :, 0]

        hc = h[:, None]
        t_half, t_end = t + 0.5 * h, t + h
        n1 = K[:, 0]
        u2 = app(h0, y) + app(h1, 0.5 * hc * n1)
        K[:, 1] = n2 = f(t_half, u2, P)
        K[:, 2] = n3 = f(t_half, u2 + app(h2, hc * (n2 - n1)), P)
        eu, e1n1 = app(e0, y), app(e1, hc * n1)
        K[:, 3] = n4 = f(t_end, eu + e1n1 + app(e2, hc * (n2 + n3
                                                         - 2.0 * n1)), P)
        d = hc * (n2 + n3 - n1 - n4)
        u5 = (u2 + app(h2, 0.5 * d + 0.25 * hc * (n4 - n1))
              - app(h3, 0.5 * d) + app(e2, 0.25 * d) - app(e3, d))
        K[:, 4] = n5 = f(t_half, u5, P)
        y_new = (eu + e1n1 + app(e2, hc * (4.0 * n5 - 3.0 * n1 - n4))
                 + app(e3, hc * (4.0 * n1 + 4.0 * n4 - 8.0 * n5)))
        K[:, 7] = n6 = f(t_end, y_new, P)
        # the embedded order-3 solution: N at the new state in place of N4
        g = hc * (n6 - n4)
        embedded = app(e2, g) - 4.0 * app(e3, g)
        # N at t + h/3 and t + 2h/3, from the order-3 extension with N6
        rows = np.arange(batch)
        v = np.stack([y, hc * n1, hc * (4.0 * n5 - 3.0 * n1 - n6),
                      hc * (4.0 * n1 + 4.0 * n6 - 8.0 * n5)], axis=1)
        inner = self._extension(nodes[2 * batch:], np.concatenate([rows] * 2),
                                value[:, 2 * batch:],
                                divided[:, 2 * batch:], M, v)
        K[:, 5] = f(t + h / 3, inner[:batch], P)
        K[:, 6] = f(t + 2 * h / 3, inner[batch:], P)
        # ... and the order-4 exponential quadrature of their cubic
        quadrature = self._extension(
            nodes[batch:2 * batch], rows, value[:, batch:2 * batch],
            divided[:, batch:2 * batch], M, self._cubic(y, K, h))
        return y_new, np.hypot(embedded, y_new - quadrature)

    def _cubic(self, y, K, h):
        """The vectors of the order-4 extension of each row's step: y,
        then h d_q of the cubic through N1, N at t + h/3, t + 2h/3 and
        N6."""
        d = np.matmul(_CUBIC, K[:, [0, 5, 6, 7]])
        return np.concatenate([y[:, None], h[:, None, None] * d], axis=1)

    def _extension(self, theta, job, value, divided, M, V):
        """sum_k theta^k phi_k(theta h L) V[g, k] at each theta, of the
        step g = job[i] with M[g] and vectors V[g], given the _phis of
        theta h lambda_1 and theta h lambda_2."""
        terms = V.shape[1]
        powers = theta[:, None] ** np.arange(terms)
        Vg = V[job]
        out = np.matmul((powers * _INV_FACTORIAL[:terms])[:, None],
                        Vg)[:, 0]
        z = V[..., _RE] + 1j * V[..., _IM]
        Mz = np.matmul(z, M.transpose(0, 2, 1))
        pairs = (np.matmul((powers * value[:terms].T)[:, None], z[job])
                 + np.matmul((powers * theta[:, None]
                              * divided[:terms].T)[:, None], Mz[job]))
        out[:, _RE] = pairs[:, 0].real
        out[:, _IM] = pairs[:, 0].imag
        return out

    def dense_output(self, jobs, y, K, P, grids, y_all, subset) -> list:
        """Write the samples of the steps just accepted: the step's
        order-4 extension, the exact phi-weighted integral of the cubic
        through its N at t, t + h/3, t + 2h/3 and t + h.  The arguments
        but P are as for ``lfbloch.ode._dense_output``.  Returns the
        positions in ``jobs`` of the jobs whose samples are not all
        finite."""
        rs, t, h, start, end, index = map(np.asarray, jobs)
        if not rs.size:
            return []
        a, b, M = self._putzer(P[rs], h)
        # each job's grid points start:end, end to end
        m = end - start
        job = np.repeat(np.arange(rs.size), m)
        times, idx = grids.at(index[job], (np.arange(job.size) + np.repeat(
            start - (np.cumsum(m) - m), m))[:, None])
        theta = (times[:, 0] - t[job]) / h[job]
        idx = idx[:, 0]
        V = self._cubic(y[rs], K[rs], h)
        bad = set()
        # each sample's bits do not depend on the slice it sits in
        for lo in range(0, idx.size, DENSE_SAMPLES):
            part = slice(lo, lo + DENSE_SAMPLES)
            g, th = job[part], theta[part]
            samples = self._extension(th, g, *_phis(th * a[g], th * b[g]),
                                      M, V)
            # each sample a job of its own
            _store(y_all, subset, idx[part, None], samples[:, None], index[g])
            if not np.isfinite(samples).all():
                bad.update(g[~np.isfinite(samples).all(axis=1)].tolist())
        return sorted(bad)
