"""Independent reference values the benchmark checks the library against.

Nothing here calls into ``hillgreen``.  Potentials are read as plain
piece lists built from the library's JSON descriptor format, and every
number comes by a second route:

* cosine potentials c1 cos(omega t) on [0, m pi / omega] are Mathieu's
  equation (DLMF 28.2) with a = 4 lambda / omega^2 and q = -2 c1 / omega^2,
  so ``scipy.special.mathieu_a`` / ``mathieu_b`` give their eigenvalues;
* piecewise-constant potentials have an exact transfer matrix per piece;
* everything else (boundary value problems, discriminants of cosine
  potentials, the mixed spectra of m = 2 cosines) is shot with DOP853 at
  rtol 1e-13, piece by piece, with an independent evaluation of a(t).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq
from scipy.special import mathieu_a, mathieu_b

SHOOT_RTOL = 1e-13

# Boundary functionals on (u(0), u'(0), u(T), u'(T)); two rows per condition.
_BC_ROWS = {
    "N": ((0, 1, 0, 0), (0, 0, 0, 1)),
    "D": ((1, 0, 0, 0), (0, 0, 1, 0)),
    "M1": ((0, 1, 0, 0), (0, 0, 1, 0)),
    "M2": ((1, 0, 0, 0), (0, 0, 0, 1)),
    "P": ((-1, 0, 1, 0), (0, -1, 0, 1)),
    "A": ((1, 0, 1, 0), (0, 1, 0, 1)),
}


# -- potentials as piece lists ------------------------------------------------

def pieces_of(descriptor: dict) -> list[tuple[float, float, float, float, float, float]]:
    """(t0, t1, c0, c1, omega, phi) per piece; a(t) = c0 + c1 cos(omega t + phi).

    Only the constant and cosine piece kinds occur in the benchmark; a
    mirrored piece of either kind is rewritten in the same form.
    """
    out = []
    for d in descriptor["pieces"]:
        out.append((float(d["from"]), float(d["to"]), *_coefficients(d)))
    return out


def _coefficients(d: dict) -> tuple[float, float, float, float]:
    kind = d["kind"]
    if kind == "const":
        return float(d["value"]), 0.0, 0.0, 0.0
    if kind == "cos":
        return (float(d.get("c0", 0.0)), float(d.get("c1", 1.0)),
                float(d.get("omega", 1.0)), float(d.get("phi", 0.0)))
    if kind == "mirror":
        c0, c1, w, phi = _coefficients(d["of"])
        # c1 cos(w (2c - t) + phi) = c1 cos(w t - 2 w c - phi)
        return c0, c1, w, -2.0 * w * float(d["center"]) - phi
    raise ValueError(f"no oracle for piece kind {kind!r}")


def even_extension(pieces):
    """Pieces of t -> a(2T - t) appended on [T, 2T]."""
    T = pieces[-1][1]
    mirrored = [(2 * T - t1, 2 * T - t0, c0, c1, w, -2.0 * w * T - phi)
                for t0, t1, c0, c1, w, phi in reversed(pieces)]
    return list(pieces) + mirrored


def is_piecewise_constant(pieces) -> bool:
    return all(c1 == 0.0 for _, _, _, c1, _, _ in pieces)


# -- exact transfer matrices ----------------------------------------------------

def transfer_endpoint(pieces, lams) -> np.ndarray:
    """Endpoint state (y1, y1', y2, y2')(T) for constant pieces, shape (4, K)."""
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    M = np.zeros((2, 2, lams.size))
    M[0, 0] = M[1, 1] = 1.0
    for t0, t1, c0, _c1, _w, _phi in pieces:
        h = t1 - t0
        q = c0 + lams
        s = np.sqrt(np.abs(q))
        with np.errstate(invalid="ignore", divide="ignore"):
            pos = q > 0
            neg = q < 0
            c = np.where(pos, np.cos(s * h), np.where(neg, np.cosh(s * h), 1.0))
            sn = np.where(pos, np.sin(s * h) / s, np.where(neg, np.sinh(s * h) / s, h))
            snp = np.where(pos, -s * np.sin(s * h), np.where(neg, s * np.sinh(s * h), 0.0))
        step = np.array([[c, sn], [snp, c]])
        M = np.einsum("ijk,jlk->ilk", step, M)
    return np.array([M[0, 0], M[1, 0], M[0, 1], M[1, 1]])


_CHAR_ROW = {"N": 1, "D": 2, "M1": 0, "M2": 3}


def piecewise_constant_spectrum(pieces, bc: str, count: int) -> list[float]:
    """First ``count`` eigenvalues of a separated condition, to ~1e-14."""
    T = pieces[-1][1]
    row = _CHAR_ROW[bc]
    amax = max(p[2] for p in pieces)
    lo = -amax - 1.0
    step = (math.pi / T) ** 2 / 400.0

    def f(lam: float) -> float:
        return float(transfer_endpoint(pieces, lam)[row, 0])

    roots: list[float] = []
    start = lo
    while len(roots) < count:
        lams = start + step * np.arange(4001)
        vals = transfer_endpoint(pieces, lams)[row]
        sign = np.sign(vals)
        for i in range(lams.size - 1):
            if sign[i] == 0.0:
                roots.append(float(lams[i]))
            elif sign[i] * sign[i + 1] < 0:
                roots.append(brentq(f, lams[i], lams[i + 1], xtol=1e-15, rtol=1e-15))
        start = float(lams[-1])
    return sorted(roots)[:count]


# -- Mathieu characteristic values ----------------------------------------------

def mathieu_spectrum(c1: float, omega: float, m: int, bc: str, count: int) -> list[float]:
    """Separated eigenvalues of c1 cos(omega t) on [0, m pi / omega], m in {1, 2}.

    With x = omega t / 2 the interval is [0, m pi / 2].  For m = 1 the four
    conditions pick the four Mathieu families (N: a_2j, M1: a_2j+1,
    M2: b_2j+1, D: b_2j+2); for m = 2, N gives every a_j and D every b_j,
    while the mixed spectra are not of integer order and are shot instead,
    each bracketed by the interlacing N_j, D_j-1 < M_j < N_j+1, D_j.
    """
    q = -2.0 * c1 / omega ** 2
    scale = omega ** 2 / 4.0
    if m == 1:
        order = {"N": lambda j: mathieu_a(2 * j, q), "M1": lambda j: mathieu_a(2 * j + 1, q),
                 "M2": lambda j: mathieu_b(2 * j + 1, q), "D": lambda j: mathieu_b(2 * j + 2, q)}
        return [float(order[bc](j)) * scale for j in range(count)]
    if m != 2:
        raise ValueError("Mathieu oracle covers m = 1 and m = 2")
    if bc == "N":
        return [float(mathieu_a(j, q)) * scale for j in range(count)]
    if bc == "D":
        return [float(mathieu_b(j + 1, q)) * scale for j in range(count)]
    T = 2.0 * math.pi / omega
    pieces = [(0.0, T, 0.0, c1, omega, 0.0)]
    row = _CHAR_ROW[bc]
    a = [float(mathieu_a(j, q)) * scale for j in range(count + 1)]
    b = [-math.inf] + [float(mathieu_b(j + 1, q)) * scale for j in range(count + 1)]

    def f(lam: float) -> float:
        return float(shoot(pieces, lam)[row])

    out = []
    for j in range(count):
        lo, hi = max(a[j], b[j]), min(a[j + 1], b[j + 1])
        out.append(brentq(f, lo, hi, xtol=1e-14, rtol=1e-15))
    return out


def coupled_from_separated(sep: dict, bc: str) -> list[float]:
    """P(2T) = N u D and A(2T) = M1 u M2 with multiplicity, for the even extension."""
    pair = ("N", "D") if bc == "P" else ("M1", "M2")
    return sorted(sep[pair[0]] + sep[pair[1]])


# -- shooting -------------------------------------------------------------------

def shoot(pieces, lam: float, ts=None, sigma=None):
    """Integrate y1, y2 (and the particular solution of u'' + (a + lam) u = sigma
    with u(0) = u'(0) = 0 when ``sigma`` is given) by DOP853.

    Returns the endpoint state (y1, y1', y2, y2'[, up, up']) and, when
    ``ts`` is given, the same rows at ``ts`` as a second value.
    """
    L = pieces[-1][1]
    forced = sigma is not None
    z = np.array([1.0, 0.0, 0.0, 1.0] + ([0.0, 0.0] if forced else []))
    tq = None if ts is None else np.asarray(ts, dtype=float)
    at = None if tq is None else np.empty((z.size, tq.size))
    for t0, t1, c0, c1, w, phi in pieces:
        def rhs(t, y):
            q = c0 + c1 * math.cos(w * t + phi) + lam
            out = [y[1], -q * y[0], y[3], -q * y[2]]
            if forced:
                out += [y[5], sigma(t) - q * y[4]]
            return out

        res = solve_ivp(rhs, (t0, t1), z, method="DOP853", rtol=SHOOT_RTOL,
                        atol=1e-14, dense_output=tq is not None)
        if not res.success:
            raise RuntimeError(f"oracle integration failed: {res.message}")
        if tq is not None:
            last = t1 >= L
            m = (tq >= t0) & ((tq <= t1) if last else (tq < t1))
            if m.any():
                at[:, m] = res.sol(tq[m])
        z = res.y[:, -1]
    return z if tq is None else (z, at)


def discriminant(pieces, lam: float) -> float:
    z = shoot(pieces, lam)
    return float(z[0] + z[3])


def boundary_determinants(pieces, lam: float) -> dict:
    """Determinant of each condition's boundary system at ``lam``, dimensionless.

    Zero exactly at an eigenvalue of that condition; the Green's kernel
    grows like its inverse.  Lengths are scaled by T, so y1' T and y2 / T
    enter, and the Wronskian stays 1: P reads 2 - Delta and A 2 + Delta.
    """
    T = pieces[-1][1]
    end = (transfer_endpoint(pieces, lam)[:, 0] if is_piecewise_constant(pieces)
           else shoot(pieces, lam))
    y1, y1p, y2, y2p = end[0], end[1] * T, end[2] / T, end[3]
    return {"N": -y1p, "D": y2, "M1": -y1, "M2": y2p, "P": 2.0 - (y1 + y2p),
            "A": 2.0 + (y1 + y2p)}

# -- boundary value problems ------------------------------------------------------

def _combine(bc: str, end, up0, up_end):
    """Coefficients (alpha, beta) with u = up + alpha y1 + beta y2 meeting ``bc``."""
    y1T, y1pT, y2T, y2pT = end
    rows = np.array(_BC_ROWS[bc], dtype=float)
    ua = np.array([1.0, 0.0, y1T, y1pT])
    ub = np.array([0.0, 1.0, y2T, y2pT])
    up = np.array([up0[0], up0[1], up_end[0], up_end[1]])
    A = np.column_stack([rows @ ua, rows @ ub])
    return np.linalg.solve(A, -(rows @ up))


def bvp_shooting(pieces, lam: float, bc: str, sigma, ts):
    """(u, u') of u'' + (a + lam) u = sigma under ``bc`` at ``ts``, by shooting."""
    end, at = shoot(pieces, lam, ts=ts, sigma=sigma)
    alpha, beta = _combine(bc, end[:4], (0.0, 0.0), end[4:6])
    u = at[4] + alpha * at[0] + beta * at[2]
    du = at[5] + alpha * at[1] + beta * at[3]
    return u, du


def bvp_constant(c: float, length: float, lam: float, bc: str, forcing, ts):
    """Closed form for a == c and sigma = A + B cos(nu t + phi).

    ``forcing`` is (A, B, nu, phi); needs q = c + lam != 0 and q != nu^2.
    """
    A, B, nu, phi = forcing
    q = c + lam
    s = math.sqrt(abs(q))
    t = np.asarray(ts, dtype=float)

    def basis(x):
        if q > 0:
            return (np.cos(s * x), -s * np.sin(s * x), np.sin(s * x) / s, np.cos(s * x))
        return (np.cosh(s * x), s * np.sinh(s * x), np.sinh(s * x) / s, np.cosh(s * x))

    def particular(x):
        k = B / (q - nu * nu)
        return A / q + k * np.cos(nu * x + phi), -k * nu * np.sin(nu * x + phi)

    end = [float(v) for v in basis(length)]
    up0 = [float(v) for v in particular(0.0)]
    upT = [float(v) for v in particular(length)]
    alpha, beta = _combine(bc, end, up0, upT)
    y1, y1p, y2, y2p = basis(t)
    up, upp = particular(t)
    return up + alpha * y1 + beta * y2, upp + alpha * y1p + beta * y2p
