"""Independent reference computations used as oracles, and residual checks.

The oracles touch neither the library's integrator nor its kernel assembly;
the point is to have a second route to the same numbers. The residual
checks at the end measure, on the library's own results, a property that
holds exactly: a kernel's endpoint conditions, its unit jump, and the
doubling identity of an even extension.
"""

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from hillgreen import DEFAULT_TOL, fundamental_solutions


def step_transfer(q, h):
    """Transfer matrix of u'' + q u = 0 over a step h, from (u, u') to (u, u')."""
    if q > 0:
        m = math.sqrt(q)
        return np.array([[math.cos(m * h), math.sin(m * h) / m],
                         [-m * math.sin(m * h), math.cos(m * h)]])
    if q < 0:
        m = math.sqrt(-q)
        return np.array([[math.cosh(m * h), math.sinh(m * h) / m],
                         [m * math.sinh(m * h), math.cosh(m * h)]])
    return np.array([[1.0, h], [0.0, 1.0]])


def step_state(p, lam, t):
    """(y1, y1', y2, y2') at t for a piecewise-constant p, as a product of transfers;
    y1 + y2' at t = L is the discriminant Delta."""
    M = np.eye(2)
    for a, b, piece in p.pieces:
        if a >= t:
            break
        M = step_transfer(piece.value + lam, min(b, t) - a) @ M
    return np.array([M[0, 0], M[1, 0], M[0, 1], M[1, 1]])


# each condition's characteristic function of the endpoint state (y1, y1', y2, y2')
_STEP_CHARACTERISTIC = {"D": lambda y: y[2], "N": lambda y: y[1],
                        "P": lambda y: y[0] + y[3] - 2.0}


def step_roots(p, lams, bc="D"):
    """Eigenvalues of ``bc`` (D, N or P) for a piecewise-constant p inside the sorted grid lams.

    Each sign change of the condition's characteristic function at T, y2,
    y1' or y1 + y2' - 2, between neighbouring lambdas, the state carried by
    the closed-form transfers of ``step_transfer`` over the whole grid at
    once, is refined by brentq at xtol 1e-13 on ``step_state``. Two roots
    closer than the grid spacing, or a double periodic eigenvalue, leave no
    sign change.
    """
    one, zero = np.ones(lams.size), np.zeros(lams.size)
    # (u, u') of y1 and of y2
    y1, y2 = np.array([one, zero]), np.array([zero, one])
    for a, b, piece in p.pieces:
        q, h = piece.value + lams, b - a
        m = np.sqrt(q.astype(complex))
        c = np.cos(m * h).real
        with np.errstate(invalid="ignore"):
            s = np.where(q == 0.0, h, (np.sin(m * h) / m).real)
        y1, y2 = (np.array([c * y[0] + s * y[1], -q * s * y[0] + c * y[1]]) for y in (y1, y2))
    T = p.domain_length
    F = _STEP_CHARACTERISTIC[bc]
    values = F([y1[0], y1[1], y2[0], y2[1]])
    flips = np.flatnonzero(np.sign(values[:-1]) * np.sign(values[1:]) < 0)
    return [brentq(lambda lam: F(step_state(p, lam, T)), lams[i], lams[i + 1], xtol=1e-13)
            for i in flips]


def step_zero_count(p, lam):
    """Zeros of y2(., lam) in (0, T] for a piecewise-constant p, in closed form:
    #{Dirichlet eigenvalues < lam} when y2(T) != 0.

    On a piece with q = a + lam > 0 and w = sqrt(q), y2 = r sin(phi) / w and
    y2' = r cos(phi), where the phase phi advances by exactly w h; the zeros
    there are the multiples of pi it passes. On a piece with q <= 0, y2 has
    at most one zero, where its sign changes. The state between pieces is
    carried by ``step_transfer``.
    """
    y = np.array([0.0, 1.0])
    count = 0
    for a, b, piece in p.pieces:
        q, h = piece.value + lam, b - a
        end = step_transfer(q, h) @ y
        if q > 0:
            w = math.sqrt(q)
            phi = math.atan2(w * y[0], y[1])
            count += math.floor((phi + w * h) / math.pi) - math.floor(phi / math.pi)
        elif y[0] != 0 and (end[0] == 0 or (end[0] > 0) != (y[0] > 0)):
            count += 1
        y = end
    return count


def step_count_roots(p, count):
    """The first ``count`` Dirichlet eigenvalues of a piecewise-constant p, each
    located by bisection on ``step_zero_count`` down to adjacent floats."""
    lo = -max(piece.value for _, _, piece in p.pieces)
    hi = lo + 1.0
    while step_zero_count(p, hi) < count:
        hi = lo + 2.0 * (hi - lo)
    roots = []
    for k in range(count):
        a, b = lo, hi
        while True:
            mid = 0.5 * (a + b)
            if mid in (a, b):
                break
            if step_zero_count(p, mid) > k:
                b = mid
            else:
                a = mid
        roots.append(b)
    return roots


def sinh_dirichlet_kernel(mu, L, grid):
    """The Dirichlet kernel of u'' - mu^2 u = sigma on [0, L] (a = 0, lambda = -mu^2)
    at every pair of grid points, sinh(mu min(t, s)) sinh(mu (max(t, s) - L)) /
    (mu sinh(mu L)): ``closed_form_constant``'s sine form at m = i mu."""
    t, s = grid[:, None], grid[None, :]
    return np.sinh(mu * np.minimum(t, s)) * np.sinh(mu * (np.maximum(t, s) - L)) / (
        mu * math.sinh(mu * L))


def rk4_reference(p, lam, length, n_per_segment=6000):
    """Endpoint state (y1, y1', y2, y2') by fixed-step RK4, segment by segment.

    Breakpoints are step boundaries, so each step sees a smooth potential.
    Evaluation backs off the right edge of a segment by 1e-12 to stay on
    the segment's own piece.
    """
    edges = [float(b) for b in p.breakpoints if 1e-14 < b < length - 1e-14]
    edges = [0.0, *edges, float(length)]
    y = np.array([1.0, 0.0, 0.0, 1.0])

    for t0, t1 in zip(edges, edges[1:]):
        n = n_per_segment
        h = (t1 - t0) / n
        back = t1 - 1e-12

        def f(t, z):
            q = p.eval(min(t, back)) + lam
            return np.array([z[1], -q * z[0], z[3], -q * z[2]])

        t = t0
        for _ in range(n):
            k1 = f(t, y)
            k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
            k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
            k4 = f(t + h, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t += h
    return y


def shooting_dirichlet(p, lam, sigma, length, n=4000):
    """Dirichlet solution of u'' + (a + lam) u = sigma by shooting.

    Integrates the inhomogeneous equation with u(0)=0 for two initial
    slopes and combines them linearly to hit u(L)=0. RK4 on a fine fixed
    grid; returns (ts, us).
    """
    ts = np.linspace(0.0, length, n + 1)
    h = length / n

    def rhs(t, z, s):
        q = p.eval(min(t, length - 1e-12)) + lam
        return np.array([z[1], -q * z[0] + s])

    def integrate(slope, forced):
        z = np.array([0.0, slope])
        out = [z[0]]
        for i in range(n):
            t = ts[i]

            def F(tt, zz):
                s = sigma(tt) if forced else 0.0
                return rhs(tt, zz, s)

            k1 = F(t, z)
            k2 = F(t + 0.5 * h, z + 0.5 * h * k1)
            k3 = F(t + 0.5 * h, z + 0.5 * h * k2)
            k4 = F(t + h, z + h * k3)
            z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            out.append(z[0])
        return np.array(out)

    u_part = integrate(0.0, True)     # particular, u(0)=u'(0)=0
    u_hom = integrate(1.0, False)     # homogeneous, u(0)=0, u'(0)=1
    if abs(u_hom[-1]) < 1e-13:
        raise ZeroDivisionError("shooting hit a Dirichlet eigenvalue")
    c = -u_part[-1] / u_hom[-1]
    return ts, u_part + c * u_hom


# Which of (u, u') vanishes at t = 0 and at t = L under each separated condition.
_SEPARATED_ENDS = {"N": (1, 1), "D": (0, 0), "M1": (1, 0), "M2": (0, 1)}


def step_bvp_reference(breaks, values, lam, bc, sigma, ts):
    """(u, u') at ts for u'' + (a + lam) u = sigma, a a step function.

    a equals values[i] on [breaks[i], breaks[i+1]]. DOP853 at rtol 1e-13
    integrates the two homogeneous solutions and the particular one with
    u(0) = u'(0) = 0 piece by piece, so no step straddles a jump; the
    condition ``bc`` (P, A, N, D, M1, M2) then fixes the combination.
    """
    ts = np.asarray(ts, dtype=float)
    out = np.empty((6, ts.size))
    z = np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0])   # y1, y1', y2, y2', up, up'
    last = len(values) - 1
    for i, (t0, t1, a) in enumerate(zip(breaks, breaks[1:], values)):
        q = a + lam

        def rhs(t, w, q=q):
            return [w[1], -q * w[0], w[3], -q * w[2], w[5], sigma(t) - q * w[4]]

        sel = np.flatnonzero((ts >= t0) & ((ts < t1) if i < last else (ts <= t1)))
        sel = sel[np.argsort(ts[sel])]
        sol = solve_ivp(rhs, (t0, t1), z, method="DOP853", rtol=1e-13, atol=1e-15,
                        t_eval=np.append(ts[sel], t1))
        out[:, sel] = sol.y[:, :-1]
        z = sol.y[:, -1]
    # (u, u') = up + alpha y1 + beta y2; rows are the state at 0 and at L
    at0 = (np.eye(2), np.zeros(2))
    atL = (np.array([[z[0], z[2]], [z[1], z[3]]]), z[4:6])
    if bc in ("P", "A"):
        eps = 1.0 if bc == "P" else -1.0
        A, b = at0[0] - eps * atL[0], at0[1] - eps * atL[1]
    else:
        d0, dL = _SEPARATED_ENDS[bc]
        A = np.array([at0[0][d0], atL[0][dL]])
        b = np.array([at0[1][d0], atL[1][dL]])
    alpha, beta = np.linalg.solve(A, -b)
    return (out[4] + alpha * out[0] + beta * out[2],
            out[5] + alpha * out[1] + beta * out[3])


# -- the vectorized root refinement, kept as a bit-for-bit oracle --------------

_RTOL = 4.0 * np.finfo(float).eps


def batch_roots_reference(F, a, b, fa, fb, xtol):
    """``spectrum._batch_roots`` on NumPy arrays, all brackets stepped at once.

    The library steps each bracket on Python floats; this version steps
    them as arrays. Both make the same IEEE operations in the same order,
    so their roots and their ``F`` calls agree bit for bit.
    """
    a, b, fa, fb = (np.array(v, dtype=float) for v in (a, b, fa, fb))
    roots = np.empty(a.size)
    live = np.arange(a.size)
    kept = np.zeros(a.size)  # the end the last iteration kept: 1 for a, -1 for b
    halved = np.ones(a.size, dtype=bool)
    while live.size:
        tol = xtol + _RTOL * np.maximum(np.abs(a), np.abs(b))
        done = (b - a <= tol) | (fa == 0.0) | (fb == 0.0)
        if done.any():
            roots[live[done]] = np.where(fa[done] == 0.0, a[done], np.where(
                fb[done] == 0.0, b[done], 0.5 * (a[done] + b[done])))
            live, a, b, fa, fb, kept, halved, tol = (
                x[~done] for x in (live, a, b, fa, fb, kept, halved, tol))
            if not live.size:
                break
        half = 0.5 * tol
        x = a - fa * (b - a) / (fb - fa)
        # a non-finite falsi point (an overflowed value at an end) bisects:
        # the ends stay finite, so every bracket closes
        x = np.where(halved & np.isfinite(x), x, 0.5 * (a + b))
        x = np.clip(x, a + half, b - half)
        guard = np.where(b - x > x - a, x + half, x - half)
        x, guard = np.minimum(x, guard), np.maximum(x, guard)
        fx, fg = np.split(F(np.concatenate([x, guard])), 2)
        # the new bracket is the first of [a, x], [x, guard], [guard, b] whose
        # ends differ in sign
        left = np.sign(fx) != np.sign(fa)
        right = ~left & (np.sign(fg) == np.sign(fx))
        na = np.where(left, a, np.where(right, guard, x))
        nb = np.where(left, x, np.where(right, b, guard))
        # Illinois: an end kept twice in a row enters the next falsi point halved
        fa = np.where(left, np.where(kept == 1.0, 0.5 * fa, fa), np.where(right, fg, fx))
        fb = np.where(left, fx, np.where(right, np.where(kept == -1.0, 0.5 * fb, fb), fg))
        kept = np.where(left, 1.0, np.where(right, -1.0, 0.0))
        halved = nb - na <= 0.5 * (b - a)
        a, b = na, nb
    return roots


# -- residual checks on library results ----------------------------------------

def estimate_diagonal_jump(G, npts=20, h=3e-4):
    """Finite-difference estimates of the dG/dt jump across s = t (exact value 1).

    Uses centered differences of each branch separately; both branches are
    analytic across the diagonal so the stencils may straddle it.
    """
    L = G.length
    pts = np.linspace(0.05 * L, 0.95 * L, npts)
    low_p, up_p = G.branches.tables(pts + h, pts)
    low_m, up_m = G.branches.tables(pts - h, pts)
    dlow = np.diagonal(low_p - low_m) / (2 * h)
    dup = np.diagonal(up_p - up_m) / (2 * h)
    return dlow - dup


def boundary_residual(G):
    """Worst violation of the defining endpoint conditions over the s grid.

    Several separated conditions come out exactly zero in floating point
    because the corresponding kernel coefficients cancel algebraically.
    """
    s = G.grid
    br = G.branches
    zero = np.zeros(1)
    val_at_0 = br.tables(zero, s)[1][0]      # t = 0 lies in the upper branch
    val_at_L = br.tables(np.array([G.length]), s)[0][0]
    dt_at_0 = br.tables(zero, s, deriv=True)[1][0]
    dt_at_L = br.tables(np.array([G.length]), s, deriv=True)[0][0]

    bc = G.bc
    if not bc.is_coupled:
        d0, dT = bc.ends
        r0, r1 = (val_at_0, dt_at_0)[d0], (val_at_L, dt_at_L)[dT]
    else:
        # interior s only: at s = 0 and s = L the branch assignment is ambiguous
        keep = slice(1, -1) if len(s) > 2 else slice(None)
        r0 = (val_at_L - bc.sign * val_at_0)[keep]
        r1 = (dt_at_L - bc.sign * dt_at_0)[keep]
    return float(max(np.max(np.abs(r0)), np.max(np.abs(r1))))


def neumann_extension_residual(p, lam, tol=DEFAULT_TOL):
    """|y1'(2T, lam)| for the even extension, read as |2 y1(T) y1'(T)|.

    This is the extension's Neumann characteristic function; the doubling
    identity factors it over the base interval, so it vanishes exactly on
    the union of the base Neumann spectrum and the base u'(0)=u(T)=0
    spectrum.
    """
    basis = fundamental_solutions(p, lam, tol=tol)
    return abs(2.0 * basis.y1_end * basis.y1p_end)
