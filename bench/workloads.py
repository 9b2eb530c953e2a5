"""The four benchmark workloads: seeded inputs, library calls and oracle checks.

Each workload is a sequence of rounds with the same kinds of task in the
same order.  The seed draws only the continuous parameters of each round
(generated potentials, lambdas, forcings, sample points), so every seed
measures the same mix.  The library receives only ``Potential`` objects,
numbers and forcing callables, through its public API.

A task is ``call`` (timed, one closed-loop request) plus ``check`` (not
timed), which compares the result with an oracle computed in set-up by
``prepare``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

import hillgreen as hg
import oracles

NAMES = ("spectra", "kernels", "bvp", "sweep")
BC_ALL = ("N", "D", "M1", "M2", "P", "A")

# Oracle tolerances, absolute and scaled by max(1, |reference|).
EIGEN_TOL = 1e-7
KERNEL_TOL = 1e-8
BVP_TOL = 1e-6
SWEEP_TOL_FACTOR = 100.0     # times the requested scan accuracy


@dataclass
class Outcome:
    """Verdict on one task: oracle deviation and whether it counts as failed."""

    err: float = 0.0
    failed: bool = False
    notes: list = field(default_factory=list)
    observations: list = field(default_factory=list)   # noteworthy, not failures


@dataclass
class Potl:
    """A benchmark potential: the library object plus the oracle's piece list."""

    label: str
    p: hg.Potential
    pieces: list
    mathieu: tuple | None = None     # (c1, omega, m) for pure cosines
    constant: float | None = None    # a == constant

    @property
    def length(self) -> float:
        return self.p.domain_length


def _builtin(name: str) -> Potl:
    p = hg.load_builtin(name)
    pieces = oracles.pieces_of(p.descriptor())
    mathieu = constant = None
    if len(pieces) == 1 and pieces[0][3] != 0.0:
        _, T, c0, c1, w, phi = pieces[0]
        if c0 == 0.0 and phi == 0.0:
            mathieu = (c1, w, round(T * w / math.pi))
    elif len(pieces) == 1:
        constant = pieces[0][2]
    return Potl(name, p, pieces, mathieu, constant)


def _cosine(rng, r: int) -> Potl:
    """c1 cos(omega t) on [0, pi / omega]: Mathieu's equation on a half period."""
    # Mathieu parameter |q| = 2 |c1| / omega^2 in [0.5, 1.5]: the cost of a
    # task grows with |q|, and a narrow range keeps rounds of equal cost
    q = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5))
    omega = float(rng.uniform(1.2, 2.0))
    c1 = -0.5 * q * omega ** 2
    p = hg.Potential.cosine(math.pi / omega, c1=c1, omega=omega)
    return Potl(f"cos_r{r}", p, oracles.pieces_of(p.descriptor()), mathieu=(c1, omega, 1))


def _piecewise(rng, r: int) -> Potl:
    # 2, 3 or 4 pieces by round, so every seed has the same mix of counts
    count = 2 + r % 3
    T = float(rng.uniform(1.0, 3.0))
    # cuts at least T/8 apart so no piece is degenerate
    inner = np.sort(rng.uniform(0.0, 1.0, count - 1))
    fracs = np.arange(1, count) / 8.0 + inner * (1.0 - count / 8.0)
    breaks = [0.0, *(float(f) * T for f in fracs), T]
    values = [float(v) for v in rng.uniform(-3.0, 3.0, count)]
    p = hg.Potential.piecewise_constant(breaks, values)
    return Potl(f"pwc{count}_r{r}", p, oracles.pieces_of(p.descriptor()))


def _constant(rng, r: int) -> Potl:
    c = float(rng.uniform(-2.0, 2.0))
    T = float(rng.uniform(0.8, 2.5))
    p = hg.Potential.constant(c, T)
    return Potl(f"const_r{r}", p, oracles.pieces_of(p.descriptor()), constant=c)


def _separated_spectrum(pot: Potl, bc: str, count: int) -> list[float]:
    if pot.mathieu is not None:
        c1, w, m = pot.mathieu
        return oracles.mathieu_spectrum(c1, w, m, bc, count)
    return oracles.piecewise_constant_spectrum(pot.pieces, bc, count)


def _lambda_in_window(rng, pot: Potl, slot: int) -> float:
    """A lambda among the lowest eigenvalues, where sign hypotheses flip.

    Slot k of 7 sits near the k-th of seven evenly spaced positions, so each
    round covers the window alike and rounds cost alike; the seed jitters it.
    """
    amean = float(np.mean(pot.p.eval(np.linspace(0.0, pot.length, 65))))
    u = -0.6 + (slot % 7 + float(rng.uniform(0.2, 0.8))) * (2.2 / 7)
    return -amean + (math.pi / pot.length) ** 2 * u


# Smallest boundary determinant (oracles.boundary_determinants) a kernel or
# BVP task accepts.  Identities subtract kernels of size ~1 / determinant to
# get kernels of size ~1, so their residuals grow like its inverse: 1.2e-4
# gave residuals of 3e-6 against a tolerance of 1e-6.
MIN_DETERMINANT = 3e-3


def _nonresonant(pot: Potl, lam: float) -> float:
    """``lam``, stepped up by (pi / T)^2 / 100 until no condition is near resonance."""
    step = (math.pi / pot.length) ** 2 / 100.0
    for _ in range(100):
        dets = oracles.boundary_determinants(pot.pieces, lam)
        if min(abs(d) for d in dets.values()) >= MIN_DETERMINANT:
            return lam
        lam += step
    raise RuntimeError(f"no nonresonant lambda near {lam} for {pot.label}")


# -- spectra --------------------------------------------------------------------

@dataclass
class SpectraTask:
    """One find_eigenvalues call; P and A run on the even extension."""

    pot: Potl
    bc: str
    count: int
    q: hg.Potential = None
    expected: list = None

    def __post_init__(self):
        self.q = self.pot.p.even_extension() if self.bc in ("P", "A") else self.pot.p

    @property
    def label(self) -> str:
        return f"{self.pot.label}:{self.bc}:k{self.count}"

    def prepare(self) -> None:
        if self.bc in ("P", "A"):
            sep = {bc: _separated_spectrum(self.pot, bc, self.count + 1)
                   for bc in (("N", "D") if self.bc == "P" else ("M1", "M2"))}
            self.expected = oracles.coupled_from_separated(sep, self.bc)
        else:
            self.expected = _separated_spectrum(self.pot, self.bc, self.count)

    def call(self):
        return hg.find_eigenvalues(self.q, self.bc, max_count=self.count)

    def check(self, spec) -> Outcome:
        got = spec.expanded()
        out = Outcome()
        if len(got) < self.count:
            out.failed = True
            out.notes.append(f"returned {len(got)} of {self.count} eigenvalues")
        ref = self.expected[:len(got)]
        if len(ref) < len(got):
            out.failed = True
            out.notes.append("more eigenvalues than the oracle holds")
        for g, r in zip(got, ref):
            d = abs(g - r)
            out.err = max(out.err, d)
            if d > EIGEN_TOL * max(1.0, abs(r)):
                out.failed = True
                out.notes.append(f"eigenvalue {g!r} vs oracle {r!r}")
        return out


# (potential slot, condition) of one spectra round, 14 separated and 4
# coupled tasks.  ex1 and ex4 take A, whose double eigenvalues go down the
# tangency path; ex2 takes P with its narrow instability gap.
SPECTRA_ROUND = (("ex1", "N"), ("ex2", "D"), ("ex3", "N"), ("ex4", "M2"), ("cos", "M1"),
                 ("pwc", "M2"), ("ex1", "A"), ("ex2", "M2"), ("ex3", "M1"), ("ex4", "D"),
                 ("cos", "N"), ("pwc", "D"), ("ex1", "M1"), ("ex2", "P"), ("ex3", "D"),
                 ("ex4", "A"), ("cos", "P"), ("pwc", "N"))


def _spectra(rng, r: int, builtins: dict, smoke: bool) -> list:
    if smoke:
        return [SpectraTask(builtins["ex3"], "N", 1), SpectraTask(builtins["ex2"], "A", 1)]
    pots = dict(builtins, cos=_cosine(rng, r), pwc=_piecewise(rng, r))
    return [SpectraTask(pots[slot], bc, 1 if bc in ("P", "A") else 2)
            for slot, bc in SPECTRA_ROUND]


# -- kernels --------------------------------------------------------------------

@dataclass
class KernelsTask:
    """verify_all, build_green for all six conditions and every dominance relation,
    at a lambda away from every eigenvalue of the six conditions."""

    pot: Potl
    lam: float
    n: int
    expected: dict = None

    @property
    def label(self) -> str:
        return f"{self.pot.label}:lam={self.lam:.6g}:n{self.n}"

    def prepare(self) -> None:
        if self.pot.constant is None:
            return
        m = math.sqrt(self.pot.constant + self.lam)
        # every third node keeps the stored oracle small
        self.expected = {bc: hg.closed_form_constant(m, self.pot.length, bc,
                                                     n=self.n).combined()[::3, ::3].copy()
                         for bc in BC_ALL}

    def call(self):
        p, lam, n = self.pot.p, self.lam, self.n
        reports = hg.verify_all(p, lam, n=n)
        kernels = {bc: hg.build_green(p, lam, bc, n=n) for bc in BC_ALL}
        dominance = {}
        for rel in hg.DOMINANCE_RELATIONS:
            try:
                dominance[rel] = hg.verify_dominance(p, lam, rel, n=n)
            except hg.HypothesisNotMet:
                dominance[rel] = None
        return reports, kernels, dominance

    def check(self, result) -> Outcome:
        reports, kernels, dominance = result
        out = Outcome()
        for rep in reports:
            if rep.skipped:
                continue
            out.err = max(out.err, rep.residual)
            if not rep.passed:
                out.failed = True
                out.notes.append(f"identity {rep.identity_id} residual {rep.residual:.3e}")
        if self.expected is not None:
            for bc, ref in self.expected.items():
                d = float(np.max(np.abs(kernels[bc].combined()[::3, ::3] - ref)))
                out.err = max(out.err, d)
                if d > KERNEL_TOL * max(1.0, float(np.max(np.abs(ref)))):
                    out.failed = True
                    out.notes.append(f"{bc} kernel off the closed form by {d:.3e}")
        # Under its hypothesis every dominance inequality holds, so the oracle
        # margin of each check is >= 0.  The reported margins are held to the
        # kernel tolerance.  Some inequalities are equalities at a point (true
        # margin 0); there the library's absolute slack, 1e-9, is below the
        # integration error of kernels of size ~30, and its verdict can read
        # False on a margin of -1e-9.  Such a verdict is counted, not failed.
        scale = max(1.0, max(float(np.max(np.abs(g.combined()))) for g in kernels.values()))
        for rel, rep in dominance.items():
            if rep is None:
                continue
            worst = max(0.0, -min(c["min_margin"] for c in rep["checks"]))
            out.err = max(out.err, worst)
            if worst > KERNEL_TOL * scale:
                out.failed = True
                out.notes.append(f"dominance {rel} fails under its hypothesis by {worst:.3e}")
            elif not rep["pass"]:
                out.observations.append("dominance_verdict_false_within_tolerance")
        return out


def _kernels(rng, r: int, builtins: dict, smoke: bool) -> list:
    if smoke:
        return [KernelsTask(builtins["ex1"], 2.0, 20), KernelsTask(builtins["ex4"], 0.3, 20)]
    pots = list(builtins.values()) + [_constant(rng, r), _cosine(rng, r),
                                      _piecewise(rng, r)]
    tasks = []
    for i, pot in enumerate(pots):
        lam = _lambda_in_window(rng, pot, i + r)
        if pot.constant is not None:
            # the closed form needs a + lambda = m^2 > 0
            lam = -pot.constant + (math.pi / pot.length) ** 2 * float(rng.uniform(0.1, 1.6))
        tasks.append(KernelsTask(pot, _nonresonant(pot, lam), 300))
    return tasks


# -- bvp ------------------------------------------------------------------------

@dataclass(frozen=True)
class Forcing:
    """sigma(t) = a + b cos(nu t + phi), times an optional envelope factor."""

    a: float
    b: float
    nu: float
    phi: float
    scale: float = 1.0
    kappa: float = 0.0
    shape: str = "plain"     # "plain", "cos" (times cos kappa t), "half" ((1 + cos kappa t)/2)

    def __call__(self, t):
        base = self.scale * (self.a + self.b * np.cos(self.nu * t + self.phi))
        if self.shape == "cos":
            return base * np.cos(self.kappa * t)
        if self.shape == "half":
            return base * 0.5 * (1.0 + np.cos(self.kappa * t))
        return base


# theorem -> (condition solved with sigma1, condition solved with sigma2)
THEOREMS = {"nd_nonneg": ("N", "D"), "nd_neg": ("D", "N"), "nm1_nonneg": ("N", "M1"),
            "nm1_neg": ("M1", "N"), "m2d": ("D", "M2")}
COMPARISON_SLACK = 1e-6      # verify_solution_comparison's default slack


def comparison_margins(theorem: str, sign: float, v1: np.ndarray, v2: np.ndarray) -> list:
    """The margins verify_solution_comparison reports, from solutions on its node grid.

    The absolute-value theorems conclude |u2| <= u1; the ordered ones
    conclude u2 <= u1 <= 0 for nonnegative forcings and the mirror image
    for nonpositive ones.
    """
    if theorem.endswith("_nonneg"):
        return [float(np.min(v1 - np.abs(v2)))]
    if sign > 0:
        return [float(np.min(v1 - v2)), float(np.min(-v1))]
    return [float(np.min(v2 - v1)), float(np.min(v1))]


@dataclass
class BvpTask:
    """solve_bvp, u and u' off the grid, and one solution comparison."""

    pot: Potl
    lam: float
    bc: str
    sigma: Forcing
    ts: np.ndarray
    theorem: str
    pair: tuple
    expected: tuple = None
    margins: list = None

    @property
    def label(self) -> str:
        return f"{self.pot.label}:{self.bc}:lam={self.lam:.6g}:{self.theorem}"

    def prepare(self) -> None:
        grid = np.linspace(0.0, self.pot.length, 101)
        pts = np.concatenate([self.ts, grid])
        if self.pot.constant is not None:
            s = self.sigma
            u, du = oracles.bvp_constant(self.pot.constant, self.pot.length, self.lam,
                                         self.bc, (s.a, s.b, s.nu, s.phi), pts)
        else:
            u, du = oracles.bvp_shooting(self.pot.pieces, self.lam, self.bc, self.sigma, pts)
        k = self.ts.size
        self.expected = (u[:k], du[:k], u[k:])
        bc1, bc2 = THEOREMS[self.theorem]
        v1, _ = oracles.bvp_shooting(self.pot.pieces, self.lam, bc1, self.pair[0], grid)
        v2, _ = oracles.bvp_shooting(self.pot.pieces, self.lam, bc2, self.pair[1], grid)
        self.margins = comparison_margins(self.theorem, self.pair[0].scale, v1, v2)

    def call(self):
        u = hg.solve_bvp(self.pot.p, self.lam, self.bc, self.sigma)
        values = u(self.ts)
        slopes = np.array([u.derivative(t) for t in self.ts])
        try:
            cmp = hg.verify_solution_comparison(self.pot.p, self.lam, self.theorem, *self.pair)
        except hg.HypothesisNotMet:
            cmp = None
        return values, slopes, u.values, cmp

    def check(self, result) -> Outcome:
        out = Outcome()
        for name, got, ref in zip(("u", "u'", "node u"), result[:3], self.expected):
            d = float(np.max(np.abs(np.asarray(got) - ref)))
            out.err = max(out.err, d)
            if d > BVP_TOL * max(1.0, float(np.max(np.abs(ref)))):
                out.failed = True
                out.notes.append(f"{name} off the oracle by {d:.3e}")
        cmp = result[3]
        if cmp is None:
            return out
        # The verdict is checked against the oracle's margins, not against
        # the theorem: a conclusion that is false for these forcings must be
        # reported false.
        got = [c["min_margin"] for c in cmp["checks"]]
        if len(got) != len(self.margins):
            out.failed = True
            out.notes.append(f"comparison {self.theorem} reports {len(got)} checks")
            return out
        for g, r in zip(got, self.margins):
            d = abs(g - r)
            out.err = max(out.err, d)
            if d > BVP_TOL * max(1.0, abs(r)):
                out.failed = True
                out.notes.append(f"comparison margin {g:.6e} vs oracle {r:.6e}")
        truth = all(r >= -COMPARISON_SLACK for r in self.margins)
        if truth != cmp["pass"] and not out.failed:
            out.failed = True
            out.notes.append(f"comparison verdict {cmp['pass']} vs oracle {truth}")
        if not truth:
            out.observations.append("comparison_conclusion_false")
        return out


def _forcing(rng) -> Forcing:
    return Forcing(a=float(rng.uniform(-1.0, 1.0)), b=float(rng.uniform(-1.0, 1.0)),
                   nu=float(rng.uniform(0.5, 4.0)), phi=float(rng.uniform(0, math.pi)))


def _comparison_pair(rng, theorem: str) -> tuple:
    a = float(rng.uniform(1.0, 2.0))
    s1 = Forcing(a=a, b=float(rng.uniform(-0.9, 0.9)) * a, nu=float(rng.uniform(0.5, 4.0)),
                 phi=float(rng.uniform(0, math.pi)))
    kappa = float(rng.uniform(0.5, 4.0))
    r = float(rng.uniform(0.2, 0.95))
    if theorem in ("nd_nonneg", "nm1_nonneg"):
        s2 = Forcing(s1.a, s1.b, s1.nu, s1.phi, scale=r, kappa=kappa, shape="cos")
        return s1, s2
    sign = float(rng.choice([-1.0, 1.0]))
    s1 = Forcing(s1.a, s1.b, s1.nu, s1.phi, scale=sign)
    s2 = Forcing(s1.a, s1.b, s1.nu, s1.phi, scale=sign * r, kappa=kappa, shape="half")
    return s1, s2


def _bvp(rng, r: int, builtins: dict, smoke: bool) -> list:
    pots = list(builtins.values()) + [_constant(rng, r), _cosine(rng, r),
                                      _piecewise(rng, r)]
    if smoke:
        pots = [builtins["ex1"], builtins["ex3"]]
    tasks = []
    for i, pot in enumerate(pots):
        bc = BC_ALL[(i + r) % 6]
        lam = _lambda_in_window(rng, pot, i + r)
        sigma = _forcing(rng)
        if pot.constant is not None:
            lam = -pot.constant + (math.pi / pot.length) ** 2 * float(rng.uniform(0.1, 1.6))
        lam = _nonresonant(pot, lam)
        if pot.constant is not None:
            # keep the closed form away from a + lambda = 0 and = nu^2
            q = pot.constant + lam
            if abs(q - sigma.nu ** 2) < 0.5:
                sigma = Forcing(sigma.a, sigma.b, math.sqrt(q) + 1.0, sigma.phi)
        ts = np.sort(rng.uniform(0.0, pot.length, 3 if smoke else 40))
        theorem = tuple(THEOREMS)[(i + r) % len(THEOREMS)]
        tasks.append(BvpTask(pot, lam, bc, sigma, ts, theorem, _comparison_pair(rng, theorem)))
    return tasks

# -- sweep ----------------------------------------------------------------------

@dataclass
class SweepTask:
    """One discriminant_samples call over thousands of lambdas on the even extension."""

    pot: Potl
    lo: float
    hi: float
    count: int
    accuracy: float
    oracle: dict = field(default_factory=dict)   # shared by the tasks of one lambda grid

    @property
    def label(self) -> str:
        return f"{self.pot.label}:{self.count}x[{self.lo:.4g},{self.hi:.4g}]:acc{self.accuracy:g}"

    def prepare(self) -> None:
        if self.oracle:
            return
        lams = np.linspace(self.lo, self.hi, self.count)
        ext = oracles.even_extension(self.pot.pieces)
        if oracles.is_piecewise_constant(ext):
            spots = np.arange(self.count)
            Y = oracles.transfer_endpoint(ext, lams)
            expected = Y[0] + Y[3]
        else:
            spots = np.unique(np.linspace(0, self.count - 1, 5).astype(int))
            expected = np.array([oracles.discriminant(ext, lams[i]) for i in spots])
        self.oracle.update(spots=spots, expected=expected)

    def call(self):
        return hg.discriminant_samples(self.pot.p, self.lo, self.hi, count=self.count,
                                       accuracy=self.accuracy)

    def check(self, result) -> Outcome:
        _, delta = result
        expected = self.oracle["expected"]
        d = np.abs(delta[self.oracle["spots"]] - expected)
        out = Outcome(err=float(np.max(d)))
        bad = d > SWEEP_TOL_FACTOR * self.accuracy * np.maximum(1.0, np.abs(expected))
        if bad.any():
            out.failed = True
            out.notes.append(f"{int(bad.sum())} discriminant samples off the oracle, "
                             f"worst {float(np.max(d)):.3e}")
        return out


def _sweep(rng, r: int, builtins: dict, smoke: bool) -> list:
    pots = [builtins["ex2"], builtins["ex3"], builtins["ex4"], _cosine(rng, r),
            _piecewise(rng, r)]
    if smoke:
        pots = [builtins["ex2"], builtins["ex4"]]
    tasks = []
    for i, pot in enumerate(pots):
        amax = float(np.max(pot.p.eval(np.linspace(0.0, pot.length, 65))))
        # about eight bands of the extension, whatever the length
        hi = (float(rng.uniform(7.0, 9.0)) * math.pi / (2.0 * pot.length)) ** 2
        shared: dict = {}
        for acc in ((1e-9,) if smoke else (1e-9, 1e-6)):
            tasks.append(SweepTask(pot, -amax - 1.0, hi, 200 if smoke else 3000, acc, shared))
    return tasks


_ROUNDS = {"spectra": _spectra, "kernels": _kernels, "bvp": _bvp, "sweep": _sweep}

# Seconds one round takes on a 2-core x86-64 box at the parent commit.  A run
# of S seconds executes round(S / NOMINAL_ROUND_S) whole rounds, so every
# seed, and every commit, measures the same number and mix of tasks.
NOMINAL_ROUND_S = {"spectra": 9.0, "kernels": 3.5, "bvp": 2.5, "sweep": 2.5}


def rounds_for(name: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_ROUND_S[name]))


def build(name: str, seed: int, rounds: int = 1, smoke: bool = False) -> list:
    """``rounds`` rounds of the workload's tasks for ``seed``; oracles are not computed yet.

    Rounds have the same kinds of task in the same order; the seed draws
    new generated potentials, lambdas and forcings for each round.
    """
    rng = np.random.default_rng([int(seed), NAMES.index(name)])
    builtins = {n: _builtin(n) for n in hg.BUILTIN_NAMES}
    tasks = []
    for r in range(rounds):
        tasks.extend(_ROUNDS[name](rng, r, builtins, smoke))
    return tasks
