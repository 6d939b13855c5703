"""The scalar-input Markov path of the noise processes and of ``simulate``.

For one-column inputs the noise prior ``s phi^|x - x'|`` is the
covariance of an Ornstein-Uhlenbeck process, which is Markov in sorted
input order, so diag(S), the KL and the step ``S grad`` of every block
come from one batched Kalman filter and smoother pass
(:func:`_ou_moments`, O(N log N) arithmetic in log2(N) vectorized steps)
instead of a factor per candidate.  Near the prior that pass, too, sums the
KL's core from second-order terms.  ``simulate`` draws one-column paths
from the same process's bridge (:class:`_OuPath`).  Inputs with more
columns take the dense path of :mod:`mgpch.model`, whose
:attr:`~mgpch.model.MgpchModel.ou` chooses between the two.
"""

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .kernels import ar1_jitter
from .linalg import _log1p_excess


@dataclass(frozen=True)
class _OuTransitions:
    """Sorted-input transitions of every component's noise prior.

    On one-column inputs the prior g = h + e splits into an Ornstein-Uhlenbeck
    process h of marginal variance s, with ``h[n+1] = a[n] h[n]`` plus noise
    of variance ``s (1 - a[n]^2)`` and ``a[n] = phi^(x[n+1] - x[n])`` between
    sorted neighbours, and the jitter e kept as an explicit nugget of
    variance eps.  So ``cov(g)`` is Lam exactly, and tied inputs (a = 1)
    need no special case.
    """

    order: np.ndarray  # (N,) stable sort of the inputs
    a2: np.ndarray  # (N - 1, C) squared transition coefficients
    q: np.ndarray  # (N - 1, C) transition variances s (1 - a^2)
    s: np.ndarray  # (C,) marginal variances
    eps: np.ndarray  # (C,) jitter variances


def _ou_transitions(X, noise_kernels):
    """Sort order and per-component transitions of the noise priors on one-column inputs."""
    order = np.argsort(X[:, 0], kind="stable")
    log_phi = np.log([k.phi for k in noise_kernels])
    log_a2 = 2.0 * np.diff(X[order, 0])[:, None] * log_phi[None, :]
    s = np.array([k.marginal_variance for k in noise_kernels])
    eps = np.array([ar1_jitter(k) for k in noise_kernels])
    return _OuTransitions(order, np.exp(log_a2), -s * np.expm1(log_a2), s, eps)


def _ou_moments(ou, comp, Q, grad=None):
    """diag(S), ``log|A| - Q . diag(S)`` and optionally ``S grad`` for every row of Q, by Kalman filtering and smoothing.

    Row b of Q (B, N) holds the bound parameters of a block of component
    ``comp[b]``.  S = (Lam^-1 + diag(Q))^-1 is the posterior covariance of
    g = h + e (see :class:`_OuTransitions`) given pseudo-observations of
    precision Q, where Q = 0 means no observation.  Integrating out the
    nugget leaves observations of h with precision ``rho = Q / (1 + eps Q)``.
    Over the sorted inputs the filter predicts ``pred[i+1] = a^2 filt[i] +
    q`` from ``filt = pred / (1 + rho pred)``, the Rauch-Tung-Striebel
    smoother gives the posterior variances P of h, and ``diag(S) = w^2 P +
    eps w`` with ``w = 1 / (1 + eps Q)``.  The prediction-error
    decomposition gives ``log|A| = sum log1p(eps Q) + sum log1p(rho pred)``.
    Near the prior, where each log1p and ``Q . diag(S)`` are first order in
    Q and the KL core second order, rows with ``trace(Q Lam) < 0.01`` sum
    the core from non-negative second-order terms instead: as ``Q diag(S) =
    u_e + w u_h - w rho (filt - smooth)`` with ``u_e = eps Q w`` and ``u_h =
    rho filt``, it is the sum of ``f(eps Q) + f(rho pred) + u_e u_h + w rho
    (filt - smooth)`` with ``f(x) = log1p(x) - x / (1 + x)``
    (:func:`_log1p_excess`).  The smoother's affine map also carries
    ``pred - smooth`` from ``pred - filt = pred u_h``, and ``filt - smooth``
    is their difference: as ``rho pred < Q s < 1`` there, its rounding is
    at most about eps times the ``f(rho pred)`` term.  (The dense
    :func:`_diag_precision_posterior` switches at ``trace = 1``, since its
    log|A| comes from the factor's diagonal, which carries an absolute
    error of eps per point.)

    With ``grad`` (B, N), the same filter and smoother also run on the
    means, and ``v = S grad`` is returned as a third array.  The
    pseudo-observations then carry the information ``grad`` (``Q z =
    grad``), which leaves h with information ``w grad``; the filter mean
    follows ``fm[i+1] = a filt[i+1] / pred[i+1] fm[i] + filt[i+1] w grad``,
    the smoother mean ``sm[i] = q / pred[i+1] fm[i] + G sm[i+1]`` with the
    gain ``G = a filt[i] / pred[i+1]``, and ``v = w sm + eps w grad``.
    This is exact for any Q >= 0, zeros included.

    All recursions run as prefix scans of associative maps (Sarkka and
    Garcia-Fernandez, IEEE TAC 2021), in log2(N) vectorized steps instead
    of N interpreted ones: ``pred[i] -> pred[i+1]`` is the Moebius map of the
    non-negative matrix [[a^2 + q rho, q], [rho, 1]], and a smoother step is
    an affine map with non-negative coefficients, so no product cancels; the
    mean steps are affine maps with non-negative gains.  Every operation is
    elementwise, so a row gets the same bits in any batch.
    """
    Qs = Q[:, ou.order].T  # (N, B), sorted
    s, eps = ou.s[comp], ou.eps[comp]
    a2, q = ou.a2[:, comp], ou.q[:, comp]
    w = 1.0 / (1.0 + eps * Qs)
    rho = Qs * w
    n = Qs.shape[0]
    # prefix products M[i] ... M[0], rescaled at each step (only ratios matter)
    r = rho[:-1]
    maps = [a2 + q * r, q.copy(), r.copy(), np.ones_like(q)]
    k = 1
    while k < n - 1:
        a00, a01, a10, a11 = (e[k:] for e in maps)
        b00, b01, b10, b11 = (e[:-k] for e in maps)
        prod = (a00 * b00 + a01 * b10, a00 * b01 + a01 * b11, a10 * b00 + a11 * b10, a10 * b01 + a11 * b11)
        scale = 1.0 / (prod[0] + prod[1] + prod[2] + prod[3])
        for e, v in zip(maps, prod):
            e[k:] = v * scale
        k *= 2
    pred = np.empty_like(Qs)
    pred[0] = s
    pred[1:] = (maps[0] * s + maps[1]) / (maps[2] * s + maps[3])
    filt = pred / (1.0 + rho * pred)
    # RTS: smooth[i] = filt[i] + G^2 (smooth[i+1] - pred[i+1]) with gain
    # G = a filt[i] / pred[i+1]; as pred[i+1] - a^2 filt[i] = q, that is
    # the affine map smooth[i] = filt[i] q / pred[i+1] + G^2 smooth[i+1]
    ratio = filt[:-1] / pred[1:]
    gain = ratio * ratio * a2
    smooth = _backward_affine_scan(ratio * q, gain.copy(), filt)
    diag = w * w * smooth + eps * w
    # summed along (B, N) rows, as numpy sums a lone (N, 1) column differently
    terms = np.log1p(eps * Qs) + np.log1p(rho * pred) - Qs * diag
    kl_core = np.ascontiguousarray(terms.T).sum(axis=1)
    # each log1p above is accurate to its last bit, so the cancellation costs
    # about 2 eps / trace(Q Lam) of the core: 2e-13 at the threshold
    near = np.flatnonzero((s + eps) * Q.sum(axis=1) < 1e-2)
    if near.size:
        Qn, rho_n, w_n, pred_n, filt_n = (a[:, near] for a in (Qs, rho, w, pred, filt))
        x_e, x_h, u_h = eps[near] * Qn, rho_n * pred_n, rho_n * filt_n
        f_e, f_h = _log1p_excess(np.stack((x_e, x_h)))
        lift = pred_n * u_h  # pred - filt
        gap = _backward_affine_scan(lift[:-1].copy(), gain[:, near], lift)  # pred - smooth
        terms = f_e + f_h + x_e * w_n * u_h + w_n * rho_n * (gap - lift)
        kl_core[near] = np.ascontiguousarray(terms.T).sum(axis=1)
    s_diag = np.empty_like(Q)
    s_diag[:, ou.order] = diag.T
    if grad is None:
        return s_diag, kl_core
    a = np.sqrt(a2)
    info = w * grad[:, ou.order].T
    # filter means fm[i+1] = a filt[i+1] / pred[i+1] fm[i] + filt[i+1] info[i+1],
    # scanned backward over the reversed arrays from fm[0] = filt[0] info[0]
    fm = filt * info
    fm = _backward_affine_scan(fm[:0:-1].copy(), (a * filt[1:] / pred[1:])[::-1], fm[::-1])[::-1]
    # smoother means sm[i] = fm[i] + G (sm[i+1] - a fm[i]), where 1 - G a = q / pred[i+1]
    sm = _backward_affine_scan(q / pred[1:] * fm[:-1], a * ratio, fm)
    v = np.empty_like(Q)
    v[:, ou.order] = (w * sm + eps * info).T
    return s_diag, kl_core, v


def _backward_affine_scan(offset, gain, last):
    """``x[i] = offset[i] + gain[i] x[i+1]`` for i < N - 1 from ``x[N-1] = last[N-1]``, as a prefix scan; consumes offset and gain."""
    n = last.shape[0]
    k = 1
    while k < n - 1:
        offset[:-k] += gain[:-k] * offset[k:]
        gain[:-k] *= gain[k:]
        k *= 2
    x = last.copy()
    x[:-1] = offset + gain * last[-1]
    return x


class _OuPath:
    """Sequentially conditioned draws of the paths of one kernel, one per output, at scalar inputs.

    On one-column inputs the kernel ``s phi^|x - x'|`` is an
    Ornstein-Uhlenbeck covariance, which is Markov in sorted input order
    (as in :func:`_ou_moments`), so a point's conditional given the whole
    history equals its conditional given the nearest drawn input on each
    side.  The path keeps the inputs drawn so far as a sorted list and
    each output's values in the same order; :meth:`condition` finds the
    insertion point by bisection and draws from the OU bridge.  With ``a =
    phi^(x - x_l)`` and ``b = phi^(x_r - x)`` the conditional mean is ``m +
    [a (1 - b^2) (h_l - m) + b (1 - a^2) (h_r - m)] / (1 - a^2 b^2)`` and
    the variance ``s (1 - a^2) (1 - b^2) / (1 - a^2 b^2)``; with one
    neighbour they are ``m + a (h - m)`` and ``s (1 - a^2)``, with none the
    prior.  Each ``1 - a^2`` is ``-expm1(2 dx log phi)``, so close inputs keep
    full relative accuracy, and a tied input copies its neighbour's values
    with variance 0, as does one whose ``dx log phi`` underflows to 0.  It
    factors nothing, so it draws the kernel's own law, without the diagonal
    jitter that :class:`_LazyGpPath` adds only to stabilize its factor.
    """

    def __init__(self, kernel, means):
        self.means = [float(m) for m in means]
        self.inputs = []
        self.values = [[] for _ in self.means]
        self.s, self.log_phi = kernel.marginal_variance, math.log(kernel.phi)

    def condition(self, x):
        """Take input x into the history; each output's next :meth:`sample` draws at x."""
        x, xs = float(x[0]), self.inputs
        i = self.slot = bisect.bisect_right(xs, x)
        s, log_phi = self.s, self.log_phi
        # log a and log b of the left and right neighbours, None where there is none
        log_a = (x - xs[i - 1]) * log_phi if i else None
        log_b = (xs[i] - x) * log_phi if i < len(xs) else None
        if log_a == 0.0:
            # a tie, or a distance whose correlation rounds to 1: the neighbour's values
            self.cond_means, self.sd = [v[i - 1] for v in self.values], 0.0
        elif log_a is not None and log_b is not None:
            a, b = math.exp(log_a), math.exp(log_b)
            one_a, one_b = -math.expm1(2.0 * log_a), -math.expm1(2.0 * log_b)
            # the ratios lie in (0, 1], so no product of two small terms underflows
            one_ab = -math.expm1(2.0 * (log_a + log_b))
            ratio_a, ratio_b = one_a / one_ab, one_b / one_ab
            self.cond_means = [
                m + a * ratio_b * (v[i - 1] - m) + b * ratio_a * (v[i] - m) for m, v in zip(self.means, self.values)
            ]
            self.sd = math.sqrt(s * one_a * ratio_b)
        elif xs:
            j, log_c = (i - 1, log_a) if log_b is None else (i, log_b)
            c = math.exp(log_c)
            self.cond_means = [m + c * (v[j] - m) for m, v in zip(self.means, self.values)]
            self.sd = math.sqrt(-s * math.expm1(2.0 * log_c))
        else:
            self.cond_means, self.sd = self.means, math.sqrt(s)
        xs.insert(i, x)

    def sample(self, d, rng):
        """Draw output d at the input last conditioned on."""
        value = self.cond_means[d] + self.sd * rng.standard_normal()
        self.values[d].insert(self.slot, value)
        return value
