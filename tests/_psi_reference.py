"""Per-partition evaluator of Psi, kept to pin the production engine.

This is the straightforward form of `qpsi.PsiEvaluator`: every Faa di Bruno
partition of the derivative tokens is multiplied out on the full (t, u, v)
tensor and summed, with the powers D^(-sigma-k) kept in a dict.  Its cost is
high, but each term of the formula is written out plainly.  The grouped
engine must agree with it to roundoff, return exactly (==) its order-0
value, and give exact 0.0 wherever it does.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from jpkernel.params import JacobiParams


def _dsin_half(x, k):
    """d^k/dx^k sin(x/2), by the period-4 cycle sin, cos, -sin, -cos of
    x/2, so that even orders are exactly 0 at x = 0, where the phase form
    sin(x/2 + k pi/2) would leave sin(pi) ~ 1.2e-16."""
    f = np.cos if k % 2 else np.sin
    return -(0.5**k) * f(0.5 * x) if k % 4 >= 2 else 0.5**k * f(0.5 * x)


def _dcos_half(x, k):
    """d^k/dx^k cos(x/2), by the cycle cos, -sin, -cos, sin of x/2, so that
    odd orders are exactly 0 at x = 0 (not cos(pi/2) ~ 6e-17)."""
    f = np.sin if k % 2 else np.cos
    return -(0.5**k) * f(0.5 * x) if k % 4 in (1, 2) else 0.5**k * f(0.5 * x)


def q_value(theta, phi, u, v):
    return 1.0 - u * np.sin(0.5 * theta) * np.sin(0.5 * phi) - v * np.cos(0.5 * theta) * np.cos(
        0.5 * phi
    )


def _q_partial(theta, phi, u, v, du, dv, dtheta, dphi):
    """Any-order partial of q; exact.  Zero whenever du + dv >= 2."""
    if du + dv >= 2:
        return 0.0
    if du == 1:
        return -_dsin_half(theta, dtheta) * _dsin_half(phi, dphi)
    if dv == 1:
        return -_dcos_half(theta, dtheta) * _dcos_half(phi, dphi)
    if dtheta == 0 and dphi == 0:
        return q_value(theta, phi, u, v)
    return -u * _dsin_half(theta, dtheta) * _dsin_half(phi, dphi) - v * _dcos_half(
        theta, dtheta
    ) * _dcos_half(phi, dphi)


# ---------------------------------------------------------------------------
# set partitions and derivative plans
# ---------------------------------------------------------------------------

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
def _faa_plan(mt: int, nth: int, lph: int, ku: int, rv: int):
    """Plan for the (mt, nth, lph, ku, rv) mixed partial of D^(-sigma).

    Returns tuples (n_blocks, block_multiset, multiplicity) where each block
    is a count vector (bt, bth, bph, bu, bv); partitions containing an
    identically-zero block of D are dropped.
    """
    tokens = ["t"] * mt + ["th"] * nth + ["ph"] * lph + ["u"] * ku + ["v"] * rv
    plans: dict[tuple, int] = {}
    for part in _set_partitions(list(range(len(tokens)))):
        blocks = []
        dead = False
        for blk in part:
            bt = sum(1 for i in blk if tokens[i] == "t")
            bth = sum(1 for i in blk if tokens[i] == "th")
            bph = sum(1 for i in blk if tokens[i] == "ph")
            bu = sum(1 for i in blk if tokens[i] == "u")
            bv = sum(1 for i in blk if tokens[i] == "v")
            if bt > 0 and (bth + bph + bu + bv) > 0:
                dead = True
                break
            if bu + bv >= 2:
                dead = True
                break
            blocks.append((bt, bth, bph, bu, bv))
        if dead:
            continue
        key = (len(blocks), tuple(sorted(blocks)))
        plans[key] = plans.get(key, 0) + 1
    return tuple((k[0], k[1], mult) for k, mult in plans.items())


def _pochhammer(x: float, k: int) -> float:
    out = 1.0
    for i in range(k):
        out *= x + i
    return out


class PsiEvaluator:
    """Evaluates mixed partials of Psi at broadcastable array arguments.

    One instance per (params,); holds no mutable state, safe to share.
    """

    def __init__(self, params: JacobiParams):
        self.params = params
        self.sigma = params.sigma
        self.c_ab = params.c_ab

    def __call__(self, t, theta, phi, u, v, K=0, R=0, L=0, N=0, M=0):
        """partial_u^K partial_v^R partial_phi^L partial_theta^N partial_t^M Psi."""
        t = np.asarray(t, dtype=float)
        S = np.sinh(0.5 * t)
        C = np.cosh(0.5 * t)
        q = q_value(theta, phi, u, v)
        D = (C - 1.0) + q

        sigma = self.sigma
        powers = {0: D ** (-sigma)}  # D^(-sigma - k), filled on demand

        def power(k):
            while k not in powers:
                j = max(powers)
                powers[j + 1] = powers[j] / D
            return powers[k]

        def d_block(bt, bth, bph, bu, bv):
            if bt > 0:
                return 0.5**bt * (S if bt % 2 == 1 else C)
            return _q_partial(theta, phi, u, v, bu, bv, bth, bph)

        def f_partial(mt):
            acc = 0.0
            for n_blocks, blocks, mult in _faa_plan(mt, N, L, K, R):
                term = mult * (-1.0) ** n_blocks * _pochhammer(sigma, n_blocks) * power(n_blocks)
                for blk in blocks:
                    term = term * d_block(*blk)
                acc = acc + term
            return acc

        # product rule in t over sinh(t/2) * F
        out = 0.0
        binom = 1
        for j in range(M + 1):
            s_j = 0.5**j * (S if j % 2 == 0 else C)
            out = out + binom * s_j * f_partial(M - j)
            binom = binom * (M - j) // (j + 1)
        return self.c_ab * out
