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
