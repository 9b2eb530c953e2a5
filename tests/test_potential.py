import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hillgreen import Potential, load_builtin
from hillgreen.errors import DomainError
from hillgreen.potential import (BUILTIN_NAMES, ConstPiece, CosPiece, MirrorPiece, PolyPiece,
                                 TablePiece)

from same_numbers import PIECE_POTENTIALS


def test_constant_eval():
    p = Potential.constant(2.5, 3.0)
    ts = np.linspace(0.0, 3.0, 17)
    assert np.all(p.eval(ts) == 2.5)
    assert p.eval(0.0) == 2.5
    assert p.domain_length == 3.0


def test_piecewise_constant_right_limit_convention():
    p = Potential.piecewise_constant([0.0, 1.0, 2.0], [0.0, 0.1])
    assert p.eval(0.5) == 0.0
    # at the jump the right-hand piece wins
    assert p.eval(1.0) == 0.1
    assert p.eval(1.5) == 0.1
    assert p.eval(2.0) == 0.1


def test_eval_rejects_outside_domain():
    p = Potential.constant(0.0, 1.0)
    with pytest.raises(ValueError):
        p.eval(-0.5)
    with pytest.raises(ValueError):
        p.eval(1.5)


def test_shifted_adds_constant():
    p = Potential.cosine(math.pi)
    q = p.shifted(0.75)
    ts = np.linspace(0.0, math.pi, 33)
    assert np.allclose(q.eval(ts), p.eval(ts) + 0.75, rtol=0, atol=1e-15)
    # shifts accumulate
    r = q.shifted(-0.75)
    assert np.allclose(r.eval(ts), p.eval(ts), rtol=0, atol=1e-15)


def test_even_extension_values():
    p = Potential.cosine(math.pi, c0=0.3, c1=1.0, omega=2.0)
    e = p.even_extension()
    assert e.domain_length == pytest.approx(2.0 * math.pi)
    ts = np.linspace(0.0, math.pi, 40, endpoint=False) + 1e-3
    assert np.allclose(e.eval(ts), p.eval(ts), atol=1e-14)
    assert np.allclose(e.eval(2.0 * math.pi - ts), p.eval(ts), atol=1e-13)
    assert e.is_even_about_midpoint()


def test_even_extension_of_step_is_symmetric():
    p = Potential.piecewise_constant([0.0, 1.0, 2.0], [0.0, 0.1])
    e = p.even_extension()
    # symmetric in the L1 sense even though jump points take right limits
    assert e.is_even_about_midpoint()
    assert e.eval(0.5) == 0.0
    assert e.eval(3.7) == 0.0
    assert e.eval(1.5) == 0.1
    assert e.eval(2.5) == 0.1


def test_double_even_extension():
    p = Potential.cosine(math.pi, omega=2.0)
    ee = p.even_extension().even_extension()
    assert ee.domain_length == pytest.approx(4.0 * math.pi)
    ts = np.linspace(0.0, math.pi, 25, endpoint=False) + 1e-3
    assert np.allclose(ee.eval(ts), p.eval(ts), atol=1e-13)
    assert np.allclose(ee.eval(2.0 * math.pi + ts), p.eval(ts), atol=1e-13)
    assert ee.is_even_about_midpoint()


def test_reflect_reverses_time():
    p = Potential.cosine(2.0, c0=0.1, c1=0.9, omega=1.3, phi=0.4)
    r = p.reflect()
    ts = np.linspace(0.0, 2.0, 41)
    assert np.allclose(r.eval(ts), p.eval(2.0 - ts), atol=1e-14)
    rr = r.reflect()
    assert np.allclose(rr.eval(ts), p.eval(ts), atol=1e-14)


def test_reflect_step():
    p = Potential.piecewise_constant([0.0, 1.0, 3.0], [2.0, -1.0])
    r = p.reflect()
    assert r.eval(0.5) == -1.0
    assert r.eval(2.5) == 2.0
    # interior breakpoint moves from 1 to 2
    interior = [b for b in r.breakpoints if 0.0 < b < 3.0]
    assert np.allclose(interior, [2.0])


def test_restrict():
    p = Potential.piecewise_constant([0.0, 1.0, 2.0], [0.0, 0.1])
    h = p.restrict(1.0)
    assert h.domain_length == 1.0
    assert np.all(h.eval(np.linspace(0, 1, 9)) == 0.0)
    mid = p.restrict(1.5)
    assert mid.eval(1.2) == 0.1
    with pytest.raises(ValueError):
        p.restrict(2.5)
    with pytest.raises(ValueError):
        p.restrict(0.0)


def test_descriptor_round_trip():
    for name in BUILTIN_NAMES:
        p = load_builtin(name)
        q = Potential.from_descriptor(p.descriptor())
        ts = np.linspace(0.0, p.domain_length, 101, endpoint=False) + 1e-4
        assert np.allclose(q.eval(ts), p.eval(ts), atol=1e-14)
        assert q.descriptor_hash() == p.descriptor_hash()


def test_json_round_trip_after_extension():
    p = load_builtin("ex2").even_extension()
    q = Potential.from_json(p.to_json())
    ts = np.linspace(0.0, p.domain_length, 101, endpoint=False) + 1e-4
    assert np.allclose(q.eval(ts), p.eval(ts), atol=1e-14)


def test_table_piece_round_trip():
    xs = (0.0, 0.5, 1.0, 1.5, 2.0)
    ys = (0.0, 0.2, -0.1, 0.3, 0.0)
    p = Potential(((0.0, 2.0, TablePiece(xs, ys)),), 2.0)
    q = Potential.from_descriptor(p.descriptor())
    ts = np.linspace(0.0, 2.0, 51)
    assert np.allclose(q.eval(ts), p.eval(ts), atol=1e-14)


def test_poly_piece_values():
    p = Potential(((0.0, 1.0, PolyPiece((1.0, -2.0, 3.0))),), 1.0)
    ts = np.linspace(0.0, 1.0, 11)
    assert np.allclose(p.eval(ts), 1.0 - 2.0 * ts + 3.0 * ts**2, atol=1e-14)


def test_invalid_descriptors():
    with pytest.raises(ValueError):
        Potential.from_descriptor({"T": 1.0, "pieces": [{"from": 0, "to": 1, "kind": "nope"}]})
    with pytest.raises(ValueError):
        Potential.from_descriptor(
            {"T": 1.0, "pieces": [{"from": 0, "to": 1, "kind": "poly", "coeffs": [1, 2, 3, 4, 5]}]})
    with pytest.raises(ValueError):
        Potential(((0.5, 1.0, ConstPiece(0.0)),), 1.0)  # does not start at 0
    with pytest.raises(ValueError):
        Potential(((0.0, 0.4, ConstPiece(0.0)), (0.5, 1.0, ConstPiece(1.0))), 1.0)  # gap


def _table(x, y, order=3):
    return {"T": 1.0, "pieces": [{"from": 0.0, "to": 1.0, "kind": "table", "x": x, "y": y,
                                  "order": order}]}


@pytest.mark.parametrize("make, message", [
    pytest.param(lambda: Potential.from_descriptor(_table([0.0, 0.5, 1.0], [1.0, 2.0])),
                 "table pieces need matching x/y arrays with at least 2 samples",
                 id="table x/y mismatched"),
    pytest.param(lambda: Potential.from_descriptor(_table([0.0], [1.0])),
                 "table pieces need matching x/y arrays with at least 2 samples",
                 id="table single sample"),
    pytest.param(lambda: Potential.from_descriptor(_table([0.0, 0.5, 0.5, 1.0], [1.0] * 4)),
                 "table x values must be strictly increasing", id="table x not increasing"),
    pytest.param(lambda: Potential.from_descriptor(_table([0.0, 1.0], [1.0, 2.0], order=2)),
                 "table interpolation order must be 1 or 3", id="table order 2"),
    pytest.param(lambda: Potential((), 1.0), "potential needs at least one piece",
                 id="no pieces"),
    pytest.param(lambda: Potential(((0.0, 0.8, ConstPiece(0.0)),), 1.0),
                 "last piece must end at the domain length", id="last piece short"),
    pytest.param(lambda: Potential(((0.0, 0.0, ConstPiece(0.0)), (0.0, 1.0, ConstPiece(1.0))),
                                   1.0),
                 "piece intervals must have positive length", id="zero-length inner piece"),
    pytest.param(lambda: Potential(((0.0, 1.0, ConstPiece(0.0)), (1.0, 1.0, ConstPiece(1.0))),
                                   1.0),
                 "piece intervals must have positive length", id="zero-length last piece"),
    pytest.param(lambda: Potential.piecewise_constant([0.0, 0.5, 1.0], [1.0]),
                 "need exactly one value per interval", id="piecewise_constant values"),
    pytest.param(lambda: Potential.from_descriptor({"pieces": []}),
                 "potential descriptor needs 'T' and 'pieces'", id="descriptor without T"),
    pytest.param(lambda: Potential.from_descriptor({"T": 1.0}),
                 "potential descriptor needs 'T' and 'pieces'", id="descriptor without pieces"),
])
def test_invalid_potentials_name_the_fault(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


def test_poly_descriptor_round_trip():
    desc = {"T": 1.0, "pieces": [{"from": 0.0, "to": 1.0, "kind": "poly",
                                  "coeffs": [1.0, -2.0, 3.0, 0.5]}]}
    p = Potential.from_descriptor(desc)
    assert p.pieces[0][2] == PolyPiece((1.0, -2.0, 3.0, 0.5))
    assert p.descriptor() == desc
    ts = np.linspace(0.0, 1.0, 11)
    assert np.allclose(p.eval(ts), 1.0 - 2.0 * ts + 3.0 * ts**2 + 0.5 * ts**3, atol=1e-14)


_BAD = (float("nan"), float("inf"), -float("inf"))


@pytest.mark.parametrize("bad", _BAD, ids=repr)
@pytest.mark.parametrize("make, field", [
    pytest.param(lambda x: ConstPiece(x), "const piece value", id="ConstPiece"),
    pytest.param(lambda x: CosPiece(x, 1.0, 1.0, 0.0), "cos piece c0", id="CosPiece c0"),
    pytest.param(lambda x: CosPiece(0.0, x, 1.0, 0.0), "cos piece c1", id="CosPiece c1"),
    pytest.param(lambda x: CosPiece(0.0, 1.0, x, 0.0), "cos piece omega", id="CosPiece omega"),
    pytest.param(lambda x: CosPiece(0.0, 1.0, 1.0, x), "cos piece phi", id="CosPiece phi"),
    pytest.param(lambda x: PolyPiece((1.0, x)), "poly piece coeffs", id="PolyPiece"),
    pytest.param(lambda x: TablePiece((0.0, x), (0.0, 1.0)), "table piece x", id="TablePiece x"),
    pytest.param(lambda x: TablePiece((0.0, 1.0), (x, 1.0)), "table piece y", id="TablePiece y"),
    pytest.param(lambda x: MirrorPiece(ConstPiece(1.0), x), "mirror piece center",
                 id="MirrorPiece"),
    pytest.param(lambda x: Potential.constant(x, 1.0), "const piece value", id="constant"),
    pytest.param(lambda x: Potential.cosine(1.0, omega=x), "cos piece omega", id="cosine"),
    pytest.param(lambda x: Potential.piecewise_constant([0.0, 0.5, 1.0], [0.0, x]),
                 "const piece value", id="piecewise_constant"),
    pytest.param(lambda x: Potential.constant(0.0, 1.0).shifted(x), "shift", id="shifted"),
    pytest.param(lambda x: Potential(((0.0, 1.0, ConstPiece(0.0)),), 1.0, x), "shift",
                 id="Potential shift"),
])
def test_non_finite_numbers_are_refused_naming_the_field(make, field, bad):
    with pytest.raises(ValueError, match=f"^{re.escape(field)} must be finite"):
        make(bad)


@pytest.mark.parametrize("bad", _BAD, ids=repr)
def test_non_finite_descriptor_numbers_are_refused(bad):
    pieces = [{"from": 0.0, "to": 1.0, "kind": "cos", "c0": 0.2, "c1": bad}]
    with pytest.raises(ValueError, match="^cos piece c1 must be finite"):
        Potential.from_descriptor({"T": 1.0, "pieces": pieces})
    with pytest.raises(ValueError, match="^domain length must be positive and finite"):
        Potential.from_descriptor({"T": bad, "pieces": [{**pieces[0], "c1": 1.0, "to": bad}]})
    # the finite descriptor still loads, unchanged
    p = Potential.from_descriptor({"T": 1.0, "pieces": [{**pieces[0], "c1": 1.0}]})
    assert p.eval(0.0) == 1.2 and p.shifted(0.5).shift == 0.5

def test_builtin_names_load():
    for name in BUILTIN_NAMES:
        p = load_builtin(name)
        assert p.domain_length > 0
    with pytest.raises(ValueError):
        load_builtin("ex99")


def test_asymmetric_potential_detected():
    assert not load_builtin("ex3").is_even_about_midpoint()
    assert load_builtin("ex3").even_extension().is_even_about_midpoint()


def test_bounds_read_a_narrow_spike_and_follow_the_domain_rule():
    p = Potential.piecewise_constant([0.0, 0.3001, 0.3006, 1.0], [0.0, 5000.0, 0.0]).shifted(2.0)
    assert p.bounds() == (2.0, 5002.0)
    assert p.bounds(0.31, 1.0) == p.bounds(1.0, 0.31) == (2.0, 2.0)
    assert p.bounds(0.3006, 0.3006) == (2.0, 2.0)  # a breakpoint reads the right-hand piece
    assert p.bounds(-1e-13, 1.0 + 1e-13) == p.bounds()
    for t0, t1 in ((-0.1, 0.5), (0.5, 1.1), (math.nan, 0.5)):
        with pytest.raises(DomainError):
            p.bounds(t0, t1)


# -- property tests ----------------------------------------------------

finite = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


@st.composite
def step_potentials(draw):
    k = draw(st.integers(min_value=1, max_value=4))
    widths = draw(st.lists(st.floats(min_value=0.1, max_value=1.5),
                           min_size=k, max_size=k))
    vals = draw(st.lists(finite, min_size=k, max_size=k))
    breaks = [0.0]
    for w in widths:
        breaks.append(breaks[-1] + w)
    return Potential.piecewise_constant(breaks, vals)


@settings(max_examples=25, deadline=None)
@given(step_potentials())
def test_even_extension_is_symmetric(p):
    assert p.even_extension().is_even_about_midpoint()


@settings(max_examples=25, deadline=None)
@given(step_potentials(), finite)
def test_shift_commutes_with_extension(p, d):
    a = p.shifted(d).even_extension()
    b = p.even_extension().shifted(d)
    ts = np.linspace(0.0, a.domain_length, 29, endpoint=False) + 1e-4
    assert np.allclose(a.eval(ts), b.eval(ts), atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(step_potentials())
def test_descriptor_round_trip_property(p):
    q = Potential.from_json(p.to_json())
    ts = np.linspace(0.0, p.domain_length, 37, endpoint=False) + 1e-4
    assert np.allclose(q.eval(ts), p.eval(ts), atol=1e-14)


@settings(max_examples=20, deadline=None)
@given(step_potentials())
def test_restrict_of_extension_recovers(p):
    back = p.even_extension().restrict(p.domain_length)
    ts = np.linspace(0.0, p.domain_length, 23, endpoint=False) + 1e-4
    assert np.allclose(back.eval(ts), p.eval(ts), atol=1e-14)


# every piece kind (poly of degree 0-3, tables of order 1 and 3, a cosine and
# descriptor mirrors), mirrored through even_extension and reflect, and shifted
_PIECE_VARIANTS = {f"{name} {kind}": make(Potential.from_descriptor(desc))
                   for name, desc in PIECE_POTENTIALS.items()
                   for kind, make in (("base", lambda p: p),
                                      ("even extension", Potential.even_extension),
                                      ("reflected", Potential.reflect),
                                      ("shifted", lambda p: p.shifted(0.37)))}


@st.composite
def piece_reads(draw):
    p = _PIECE_VARIANTS[draw(st.sampled_from(sorted(_PIECE_VARIANTS)))]
    L = p.domain_length
    t = draw(st.one_of(st.sampled_from(p.breakpoints.tolist()),
                       st.floats(min_value=0.0, max_value=L)))
    return p, t


@settings(max_examples=200, deadline=None)
@given(piece_reads())
def test_scalar_read_is_the_array_read(read):
    p, t = read
    assert float(p.eval(t)).hex() == float(p.eval(np.array([t]))[0]).hex()


def _random_piece(rng, a, b):
    """A piece on [a, b]: a constant, a cosine with a phase and either sign of omega, a
    polynomial of degree 0 to 3, or a table of 2 to 512 nodes of order 1 or 3."""
    kind = rng.integers(4)
    if kind == 0:
        return ConstPiece(rng.uniform(-5.0, 5.0))
    if kind == 1:
        return CosPiece(*rng.uniform(-5.0, 5.0, 2), rng.uniform(-20.0, 20.0),
                        rng.uniform(-math.pi, math.pi))
    if kind == 2:
        return PolyPiece(tuple(rng.uniform(-5.0, 5.0, rng.integers(1, 5))))
    n = int(rng.choice([2, 3, rng.integers(4, 513), 512]))
    xs = np.concatenate([[a], np.sort(rng.uniform(a, b, n - 2)), [b]])
    return TablePiece(tuple(xs), tuple(rng.uniform(-5.0, 5.0, n)), int(rng.choice([1, 3])))


def _extreme_reads(piece, t0, t1):
    """The piece's values where its extremes over [t0, t1] can lie, found apart from
    ``bounds``: the ends, a cosine's crests and troughs, a polynomial's critical points
    and a table's nodes. A mirror's are its base's, at the base's points, so no rounding
    of the mirror map moves a point off a steep table's node."""
    if isinstance(piece, MirrorPiece):
        return _extreme_reads(piece.base, 2.0 * piece.center - t1, 2.0 * piece.center - t0)
    inner = []
    if isinstance(piece, CosPiece):
        phases = sorted((piece.omega * t0 + piece.phi, piece.omega * t1 + piece.phi))
        ks = np.arange(math.ceil(phases[0] / math.pi), math.floor(phases[1] / math.pi) + 1)
        inner = (ks * math.pi - piece.phi) / piece.omega
    elif isinstance(piece, PolyPiece):
        # a' = c1 + 2 c2 t + 3 c3 t^2, solved in closed form
        c1, c2, c3 = (list(piece.coeffs) + [0.0] * 3)[1:4]
        disc = 4.0 * c2 * c2 - 12.0 * c1 * c3
        if c3 != 0.0 and disc >= 0.0:
            inner = [(-2.0 * c2 + s * math.sqrt(disc)) / (6.0 * c3) for s in (-1.0, 1.0)]
        elif c3 == 0.0 and c2 != 0.0:
            inner = [-c1 / (2.0 * c2)]
    elif isinstance(piece, TablePiece):
        inner = piece.xs
    pts = np.concatenate([[t0, t1], inner])
    return piece.values(pts[(pts >= t0) & (pts <= t1)])


_BOUND_VARIANTS = {"base": lambda p, rng: p,
                   "even extension": lambda p, rng: p.even_extension(),
                   "reflected": lambda p, rng: p.reflect(),
                   "shifted": lambda p, rng: p.shifted(rng.uniform(-10.0, 10.0))}


@pytest.mark.parametrize("variant", sorted(_BOUND_VARIANTS))
def test_bounds_are_exact(variant):
    # bounds enclose 10^4 random reads of [t0, t1], to the rounding of a read (a PCHIP
    # read near a node's extreme can pass it by an ulp or two), and the reads where an
    # extreme can lie attain them: each piece's, a right end read as its left limit
    rng = np.random.default_rng(sorted(_BOUND_VARIANTS).index(variant))
    for case in range(60):
        L = rng.uniform(0.5, 4.0)
        cuts = np.concatenate([[0.0], np.sort(rng.uniform(0.0, L, rng.integers(0, 4))), [L]])
        p = _BOUND_VARIANTS[variant](Potential(tuple(
            (a, b, _random_piece(rng, a, b)) for a, b in zip(cuts, cuts[1:])), L), rng)
        L, bp = p.domain_length, p.breakpoints
        t0, t1 = np.sort(rng.choice([rng.uniform(0.0, L), rng.choice(bp)], 2))
        if case % 4 == 0:
            t0, t1 = 0.0, L
        lo, hi = p.bounds(t0, t1) if case % 4 else p.bounds()
        vals = p.eval(np.concatenate([[t0, t1], rng.uniform(t0, t1, 10_000)]))
        ulps = 4.0 * np.finfo(float).eps * (1.0 + max(abs(lo), abs(hi)))
        assert lo - ulps <= vals.min() and vals.max() <= hi + ulps, (case, lo, hi)
        at = p.shift + np.concatenate([_extreme_reads(piece, max(a, t0), min(b, t1))
                                       for a, b, piece in p.pieces
                                       if a <= t1 and (b > t0 or b == L)])
        tol = 1e-12 * (1.0 + max(abs(lo), abs(hi)))
        assert abs(at.min() - lo) <= tol and abs(at.max() - hi) <= tol, (case, lo, hi)
