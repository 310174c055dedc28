"""The kernel integrand Psi and exact closed-form partial derivatives.

Psi(t, theta, phi, u, v) = c_ab sinh(t/2) / (cosh(t/2) - 1 + q)^sigma with
q = 1 - u sin(t1/2) sin(t2/2) - v cos(t1/2) cos(t2/2) and sigma = a + b + 2.

Derivatives follow the product rule in t over sinh(t/2) * D^(-sigma) and
Faa di Bruno's formula for D^(-sigma), D = cosh(t/2) - 1 + q: a partition of
the derivative tokens into k blocks contributes (-1)^k (sigma)_k D^(-sigma-k)
times one partial of D per block.  No block mixes t with theta, phi, u or v
(those partials of D vanish, as does the mixed u-v partial of q), so every
term is S^a C^b * coefficient(theta, phi, u, v) * D^(-sigma-k) with
S, C = sinh(t/2), cosh(t/2).

The plan of a multi-index groups the terms by block count k and t factor
S^a C^b.  Each group's coefficient is built once on the small (theta, phi,
u, v) shape and absorbs every scalar: multiplicity, sign, (sigma)_k,
binomial, powers of 1/2 and c_ab.  On the full (t, u, v) tensor the
evaluator forms D once and sums the powers in place by Horner's rule in 1/D,
from the highest k down: one divide per further k and one multiply-add per
(t factor, k), then one pow D^(-sigma-k) for the lowest k and one multiply.
The pure (u, v) partials (L = N = M = 0) are a single term, multiplied out
in place in the order of the per-partition sum the engine replaced, so the
integral route's values at deriv (0, 0, 0) keep their rounding.  The trig
partials come from one sin/cos pair per angle by the period-4 cycle, so
their exact zeros stay exact.  No finite differences anywhere.  Everything
broadcasts: t, theta, phi, u, v may be arrays of broadcastable shapes, and
the result can be written into a caller's array (out=, as numpy's ufuncs).
PsiEvaluator.t_integral integrates an M = 0 partial over t in (0, inf) in
closed form.  It is the same sum with D = q, (sigma)_(k-1) in place of
(sigma)_k and no t factor, so both take one walk of the plan (_horner).
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, prod

import numpy as np

from jpkernel.params import JacobiParams


def _dsin_half(s, c, k):
    """d^k/dx^k sin(x/2) from (s, c) = (sin(x/2), cos(x/2)), by the period-4
    cycle sin, cos, -sin, -cos, so that even orders are exactly 0 at x = 0,
    where the phase form sin(x/2 + k pi/2) would leave sin(pi) ~ 1.2e-16.
    d^k/dx^k cos(x/2) is 2 d^(k+1)/dx^(k+1) sin(x/2)."""
    return 0.5**k * (s, c, -s, -c)[k % 4]


def _half_trig(theta, phi):
    """((sin, cos) of theta/2, (sin, cos) of phi/2), the trig of q."""
    return ((np.sin(0.5 * theta), np.cos(0.5 * theta)),
            (np.sin(0.5 * phi), np.cos(0.5 * phi)))


def _q(trig, u, v, out):
    """q from trig = _half_trig(theta, phi), into out (None allocates)."""
    (st, ct), (sp, cp) = trig
    return np.subtract(1.0 - u * st * sp, v * ct * cp, out=out)


def q_value(theta, phi, u, v):
    return _q(_half_trig(theta, phi), u, v, None)


def _q_partial(trig, u, v, dtheta, dphi, du, dv):
    """Partial of q of order (dtheta, dphi, du, dv) != 0 with du + dv <= 1,
    from trig = ((sin, cos) of theta/2, (sin, cos) of phi/2); exact."""
    (st, ct), (sp, cp) = trig
    ss = _dsin_half(st, ct, dtheta) * _dsin_half(sp, cp, dphi)
    cc = 4.0 * _dsin_half(st, ct, dtheta + 1) * _dsin_half(sp, cp, dphi + 1)
    if du or dv:
        return -ss if du else -cc
    return -ss * u - cc * v


def _set_partitions(items):
    """All partitions of a list, as lists of blocks (lists)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]


@lru_cache(maxsize=256)
def _plan(M: int, N: int, L: int, K: int, R: int):
    """The (K, R, L, N, M) partial of sinh(t/2) D^(-sigma), grouped by block
    count k and t factor S^a C^b.

    Returns ((k, (((a, b), terms), ...)), ...) in ascending k.  A term is
    (weight, uv_blocks, angle_blocks): the orders (dtheta, dphi, du, dv) of
    its blocks that differentiate q in u or v (scalars in (u, v)) and of
    those in theta and phi alone, and a weight that holds the multiplicity,
    the binomial, the sign (-1)^k and 0.5^M.  Partitions with an identically
    zero block of D are dropped.
    """
    groups: dict = {}
    for j in range(M + 1):  # d^j sinh(t/2) = 0.5^j (S if j is even else C)
        tokens = list("t" * (M - j) + "h" * N + "p" * L + "u" * K + "v" * R)
        for part in _set_partitions(tokens):
            blocks = [tuple(map(blk.count, "thpuv")) for blk in part]
            if any((b[0] and sum(b) > b[0]) or b[3] + b[4] > 1 for b in blocks):
                continue
            t_orders = [b[0] for b in blocks if b[0]]  # 0.5^bt (S if bt is odd else C)
            a = (j % 2 == 0) + sum(bt % 2 for bt in t_orders)
            key = tuple(tuple(sorted(b[1:] for b in blocks if not b[0] and (b[3] + b[4] > 0) == uv))
                        for uv in (True, False))
            terms = groups.setdefault(len(blocks), {}).setdefault((a, 1 + len(t_orders) - a), {})
            terms[key] = terms.get(key, 0.0) + comb(M, j) * (-1) ** len(blocks) * 0.5**M
    return tuple((k, tuple((tf, tuple((w, *key) for key, w in terms.items()))
                           for tf, terms in sorted(by_tf.items())))
                 for k, by_tf in sorted(groups.items()))


class PsiEvaluator:
    """Evaluates mixed partials of Psi at broadcastable array arguments.

    One instance per (params,); holds no mutable state, safe to share.
    """

    def __init__(self, params: JacobiParams):
        self.params = params
        self.sigma = params.sigma
        self.c_ab = params.c_ab

    def __call__(self, t, theta, phi, u, v, K=0, R=0, L=0, N=0, M=0, out=None, work=None):
        """partial_u^K partial_v^R partial_phi^L partial_theta^N partial_t^M Psi.

        out, as in numpy's ufuncs, is an array of the arguments' broadcast
        shape that receives the result and is returned; work, of the same
        shape, holds D and is overwritten.  Either may be None, to allocate
        it; a caller that evaluates many tensors of one shape passes both,
        so that no call allocates (and page-faults in) a full-size array.
        The values do not depend on them.
        """
        t = np.asarray(t, dtype=float)
        S = np.sinh(0.5 * t)
        C = np.cosh(0.5 * t)
        trig = _half_trig(theta, phi)
        D = np.asarray(np.add(C - 1.0, _q(trig, u, v, None), out=work))
        if not (L or N or M):
            # The orders the integral route takes at deriv (0, 0, 0): one
            # Faa di Bruno term, multiplied out in place in the order of the
            # per-partition sum, so those kernel values keep their rounding.
            power = np.power(D, -self.sigma, out=out)
            for _ in range(K + R):
                power /= D
            power *= (-1.0) ** (K + R) * prod(self.sigma + i for i in range(K + R))
            for blk in ((0, 0, 0, 1),) * R + ((0, 0, 1, 0),) * K:
                power *= _q_partial(trig, u, v, *blk)
            power *= S
            power *= self.c_ab
            return power if np.ndim(power) else power[()]

        return self._horner(_plan(M, N, L, K, R), trig, u, v, D, 0, (S, C), out)

    def t_integral(self, theta, phi, u, v, K=0, R=0, L=0, N=0, out=None, work=None):
        """int_0^inf partial_u^K partial_v^R partial_phi^L partial_theta^N Psi dt.

        At M = 0 every term of the plan is S coef D^(-sigma-k), and with
        s = cosh(t/2) - 1, S dt = 2 ds, so
        int_0^inf S (s + q)^(-sigma-k) dt = 2 q^(1-sigma-k) / (sigma+k-1):
        the evaluator's Horner sum with D = q, scale 2 c_ab (sigma)_(k-1) in
        place of c_ab (sigma)_k and no t factor.  That needs k >= 1 in every
        term, which holds for any nonzero order, as every derivative token
        sits in some block; then the form is finite for every sigma > 0 and
        q > 0, sigma = 1 (alpha + beta = -1) included.  The t-integral of Psi
        itself is refused: it diverges for sigma <= 1.  out and work are as
        in __call__, with work holding q.
        """
        plan = _plan(0, N, L, K, R)
        if plan[0][0] == 0:
            raise ValueError("the t-integral of Psi needs a nonzero derivative order")
        trig = _half_trig(theta, phi)
        q = np.asarray(_q(trig, u, v, work), dtype=float)
        return self._horner(plan, trig, u, v, q, 1, None, out)

    def _horner(self, plan, trig, u, v, D, shift, t_trig, out):
        """Sum the terms of plan, a term of block count k scaled by
        2^shift c_ab (sigma)_(k-shift) D^(shift-sigma-k) and, unless t_trig
        is None, by its t factor S^a C^b from t_trig = (S, C); into out
        (None allocates), overwriting D.

        Horner in 1/D from the highest block count down.  A t factor that
        every term shares is applied once, with the lowest power.
        """
        q_partials: dict = {(): 1.0}  # products of q partials, by their orders

        def q_product(blocks):  # by prefix; a self-reference would keep q_partials in a cycle
            for n in range(len(blocks)):
                if blocks[: n + 1] not in q_partials:
                    q_partials[blocks[: n + 1]] = (q_partials[blocks[:n]]
                                                   * _q_partial(trig, u, v, *blocks[n]))
            return q_partials[blocks]

        t_factors = {tf for _, groups in plan for tf, _ in groups}
        shared = None
        if t_trig is not None and len(t_factors) == 1 and len(plan) > 1:
            shared = t_factors.pop()
        acc = tmp = None
        for k, groups in reversed(plan):
            if acc is not None:
                acc /= D
            scale = 2**shift * self.c_ab * prod(self.sigma + i for i in range(k - shift))
            for (a, b), terms in groups:
                coef = 0.0
                for weight, uv, angle in terms:
                    coef = coef + (weight * scale * q_product(uv)) * q_product(angle)
                tf = None if shared or t_trig is None else t_trig[0] ** a * t_trig[1] ** b
                if acc is None:
                    acc = np.multiply(1.0 if tf is None else tf, coef,
                                      out=np.empty_like(D) if out is None else out)
                elif tf is None:
                    acc += coef
                elif np.ndim(coef) == 0:
                    acc += tf * coef
                else:
                    if tmp is None:
                        tmp = np.empty_like(D)
                    acc += np.multiply(tf, coef, out=tmp)
        D **= shift - self.sigma - plan[0][0]
        if shared:
            D *= t_trig[0] ** shared[0] * t_trig[1] ** shared[1]
        acc *= D
        return acc if acc.ndim else acc[()]


@lru_cache(maxsize=64)
def psi_evaluator(params: JacobiParams) -> PsiEvaluator:
    return PsiEvaluator(params)
