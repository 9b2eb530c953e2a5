"""Piecewise-analytic potentials with an exact extension and reflection algebra.

A potential is a scalar function on [0, L] stored as analytic pieces with
exact breakpoints. Mirror operations (even extension about L, reflection
about L/2) never resample: they wrap the original piece and evaluate it at
the mirrored argument, so extended potentials reuse the same code path and
breakpoints are mirrored exactly.

The additive spectral parameter lives here too: ``shift`` is added to every
evaluation, so "a + lambda" is just ``p.shifted(lam)``.
"""

from __future__ import annotations

import hashlib
import json
import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import cached_property
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import DomainError

__all__ = [
    "ConstPiece",
    "CosPiece",
    "PolyPiece",
    "TablePiece",
    "MirrorPiece",
    "Potential",
    "load_builtin",
    "BUILTIN_NAMES",
]


class _Piece:
    """A piece's mirror image about ``center`` evaluates it at 2*center - t.

    Every number a piece holds must be finite; a non-finite one is refused
    when the piece is made, named by its descriptor field.
    """

    def __post_init__(self):
        d = self.descriptor()
        for key, value in d.items():
            if key not in ("kind", "of") and not np.isfinite(value).all():
                raise ValueError(f"{d['kind']} piece {key} must be finite, got {value}")

    def mirrored(self, center: float):
        return MirrorPiece(self, center)


@dataclass(frozen=True)
class ConstPiece(_Piece):
    value: float

    def values(self, t: np.ndarray) -> np.ndarray:
        return np.full(np.shape(t), float(self.value))

    def bounds(self, t0: float, t1: float) -> tuple:
        return float(self.value), float(self.value)

    def mirrored(self, center: float):
        return self  # a constant is its own mirror image

    def descriptor(self) -> dict:
        return {"kind": "const", "value": self.value}


@dataclass(frozen=True)
class CosPiece(_Piece):
    """c0 + c1 * cos(omega * t + phi), in the global time variable."""

    c0: float
    c1: float
    omega: float
    phi: float

    def values(self, t: np.ndarray) -> np.ndarray:
        return self.c0 + self.c1 * np.cos(self.omega * np.asarray(t, dtype=float) + self.phi)

    def bounds(self, t0: float, t1: float) -> tuple:
        # the ends, and c0 + c1 or c0 - c1 where the phases reach a crest (0) or a trough (pi)
        lo, hi = sorted((self.omega * t0 + self.phi, self.omega * t1 + self.phi))
        cos = [c for c, at in ((1.0, 0.0), (-1.0, math.pi)) if (at - lo) % math.tau <= hi - lo]
        v = [*self.values(np.array([t0, t1])), *(self.c0 + c * self.c1 for c in cos)]
        return min(v), max(v)

    def descriptor(self) -> dict:
        return {"kind": "cos", "c0": self.c0, "c1": self.c1, "omega": self.omega, "phi": self.phi}


@dataclass(frozen=True)
class PolyPiece(_Piece):
    """Polynomial of degree at most 3 in the global time variable."""

    coeffs: tuple  # ascending order (a0, a1, ...)

    def values(self, t: np.ndarray) -> np.ndarray:
        return np.polynomial.polynomial.polyval(np.asarray(t, dtype=float), self.coeffs)

    def bounds(self, t0: float, t1: float) -> tuple:
        r = np.polynomial.polynomial.polyroots(np.polynomial.polynomial.polyder(self.coeffs))
        v = self.values(np.r_[t0, t1, r.real[(r.imag == 0) & (t0 < r.real) & (r.real < t1)]])
        return v.min(), v.max()

    def descriptor(self) -> dict:
        return {"kind": "poly", "coeffs": list(self.coeffs)}


@dataclass(frozen=True)
class TablePiece(_Piece):
    """Tabulated samples, interpolated monotonically (order 3, PCHIP) or linearly (order 1)."""

    xs: tuple
    ys: tuple
    order: int = 3

    @cached_property
    def _interp(self):
        # imported on first use: it is slow to import, and only table pieces need it
        from scipy.interpolate import PchipInterpolator

        return PchipInterpolator(np.asarray(self.xs), np.asarray(self.ys))

    def values(self, t: np.ndarray) -> np.ndarray:
        tt = np.clip(np.asarray(t, dtype=float), self.xs[0], self.xs[-1])
        if self.order == 1:
            return np.interp(tt, self.xs, self.ys)
        return self._interp(tt)

    def bounds(self, t0: float, t1: float) -> tuple:
        # the ends and the nodes inside: PCHIP is monotone between nodes (Fritsch & Carlson 1980)
        i, j = bisect_right(self.xs, t0), bisect_right(self.xs, t1)
        v = [*self.values(np.array([t0, t1])), *self.ys[i:j]]
        return min(v), max(v)

    def descriptor(self) -> dict:
        return {"kind": "table", "x": list(self.xs), "y": list(self.ys), "order": self.order}


@dataclass(frozen=True)
class MirrorPiece(_Piece):
    """Evaluates ``base`` at the reflected argument 2*center - t.

    Reflections delegate to the base piece rather than rewriting its
    parameters, so a double mirror reproduces the original values through
    the identical code path.
    """

    base: object
    center: float

    def values(self, t: np.ndarray) -> np.ndarray:
        return self.base.values(2.0 * self.center - np.asarray(t, dtype=float))

    def bounds(self, t0: float, t1: float) -> tuple:
        return self.base.bounds(2.0 * self.center - t1, 2.0 * self.center - t0)

    def descriptor(self) -> dict:
        return {"kind": "mirror", "center": self.center, "of": self.base.descriptor()}


_PIECE_KINDS = ("const", "cos", "poly", "table", "mirror")


def _piece_from_descriptor(d: dict):
    kind = d.get("kind")
    if kind == "const":
        return ConstPiece(float(d["value"]))
    if kind == "cos":
        return CosPiece(float(d.get("c0", 0.0)), float(d.get("c1", 1.0)),
                        float(d.get("omega", 1.0)), float(d.get("phi", 0.0)))
    if kind == "poly":
        coeffs = tuple(float(c) for c in d["coeffs"])
        if len(coeffs) == 0 or len(coeffs) > 4:
            raise ValueError("poly pieces take 1 to 4 coefficients (degree at most 3)")
        return PolyPiece(coeffs)
    if kind == "table":
        xs = tuple(float(x) for x in d["x"])
        ys = tuple(float(y) for y in d["y"])
        if len(xs) != len(ys) or len(xs) < 2:
            raise ValueError("table pieces need matching x/y arrays with at least 2 samples")
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError("table x values must be strictly increasing")
        order = int(d.get("order", 3))
        if order not in (1, 3):
            raise ValueError("table interpolation order must be 1 or 3")
        return TablePiece(xs, ys, order)
    if kind == "mirror":
        return MirrorPiece(_piece_from_descriptor(d["of"]), float(d["center"]))
    raise ValueError(f"unknown piece kind {kind!r}, expected one of {_PIECE_KINDS}")


def _on_domain(t, length: float):
    """The domain rule of every point reader: points t, an array or one float, are
    read on [0, length], a point within 1e-12 (1 + length) of it at the nearest end;
    any other point, NaN included, raises ``DomainError`` naming the first one."""
    slack = 1e-12 * (1.0 + length)
    if isinstance(t, float):
        if not -slack <= t <= length + slack:
            raise DomainError(f"t={t} outside [0, {length}]")
        return min(max(t, 0.0), length)  # np.clip's value, -0.0 kept
    if t.size and not (-slack <= t.min() and t.max() <= length + slack):
        bad = t[~((t >= -slack) & (t <= length + slack))][0]
        raise DomainError(f"t={bad} outside [0, {length}]")
    return t.clip(0.0, length)


@dataclass(frozen=True)
class Potential:
    """Piecewise potential a(t) + shift on [0, domain_length].

    ``pieces`` is a tuple of (t_from, t_to, piece) covering [0, L] exactly
    with strictly increasing breakpoints. Evaluation at a breakpoint takes
    the right-hand piece, so discontinuous potentials are well defined
    everywhere.
    """

    pieces: tuple
    domain_length: float
    shift: float = 0.0

    def __post_init__(self):
        if not self.pieces:
            raise ValueError("potential needs at least one piece")
        norm = tuple((float(a), float(b), piece) for a, b, piece in self.pieces)
        object.__setattr__(self, "pieces", norm)
        object.__setattr__(self, "domain_length", float(self.domain_length))
        object.__setattr__(self, "shift", float(self.shift))
        if not 0 < self.domain_length < math.inf:
            raise ValueError(f"domain length must be positive and finite, got {self.domain_length}")
        if not math.isfinite(self.shift):
            raise ValueError(f"shift must be finite, got {self.shift}")
        if norm[0][0] != 0.0:
            raise ValueError("first piece must start at 0")
        if norm[-1][1] != self.domain_length:
            raise ValueError("last piece must end at the domain length")
        for (a, b, _), (c, _d, _p) in zip(norm, norm[1:]):
            if not b > a:
                raise ValueError("piece intervals must have positive length")
            if c != b:
                raise ValueError("pieces must be contiguous")
        if not norm[-1][1] > norm[-1][0]:
            raise ValueError("piece intervals must have positive length")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def constant(value: float, length: float) -> "Potential":
        return Potential(((0.0, float(length), ConstPiece(float(value))),), length)

    @staticmethod
    def cosine(length: float, c0: float = 0.0, c1: float = 1.0,
               omega: float = 1.0, phi: float = 0.0) -> "Potential":
        return Potential(((0.0, float(length), CosPiece(c0, c1, omega, phi)),), length)

    @staticmethod
    def piecewise_constant(breaks, values) -> "Potential":
        """breaks = [0, t1, ..., L]; values = one constant per interval."""
        if len(values) != len(breaks) - 1:
            raise ValueError("need exactly one value per interval")
        pieces = tuple((float(a), float(b), ConstPiece(float(v)))
                       for a, b, v in zip(breaks, breaks[1:], values))
        return Potential(pieces, breaks[-1])

    @staticmethod
    def from_descriptor(desc: dict) -> "Potential":
        try:
            length = float(desc["T"])
            raw = desc["pieces"]
        except (KeyError, TypeError) as exc:
            raise ValueError("potential descriptor needs 'T' and 'pieces'") from exc
        pieces = tuple((float(d["from"]), float(d["to"]), _piece_from_descriptor(d)) for d in raw)
        return Potential(pieces, length, float(desc.get("shift", 0.0)))

    @staticmethod
    def from_json(text: str) -> "Potential":
        return Potential.from_descriptor(json.loads(text))

    @staticmethod
    def from_file(path) -> "Potential":
        return Potential.from_json(Path(path).read_text())

    # -- serialization ---------------------------------------------------

    def descriptor(self) -> dict:
        d = {"T": self.domain_length,
             "pieces": [{"from": a, "to": b, **piece.descriptor()} for a, b, piece in self.pieces]}
        if self.shift != 0.0:
            d["shift"] = self.shift
        return d

    def to_json(self) -> str:
        return json.dumps(self.descriptor(), indent=2)

    def descriptor_hash(self) -> str:
        blob = json.dumps(self.descriptor(), sort_keys=True).encode()
        return hashlib.sha1(blob).hexdigest()[:12]

    # -- evaluation ------------------------------------------------------

    @cached_property
    def _starts(self) -> np.ndarray:
        return np.array([a for a, _, _ in self.pieces])

    @cached_property
    def _starts_list(self) -> list:
        return [a for a, _, _ in self.pieces]

    @property
    def breakpoints(self) -> np.ndarray:
        """All piece endpoints, including 0 and L."""
        return np.array([a for a, _, _ in self.pieces] + [self.domain_length])

    def _piece_at(self, x: float):
        """The piece that ``eval`` reads at a point x of [0, L]."""
        return self.pieces[bisect_right(self._starts_list, x) - 1][2]

    def eval(self, t):
        """a(t) + shift; right limit at breakpoints. Scalar in, scalar out.

        A scalar read is the piece's array formula (``values``) at one point,
        so it equals the array read at that point bit for bit. Points off
        [0, L] follow ``_on_domain``, the domain rule of every point reader.
        """
        L = self.domain_length
        arr = np.asarray(t, dtype=float)
        if arr.ndim == 0:
            x = _on_domain(float(arr), L)
            return float(self._piece_at(x).values(x)) + self.shift
        tt = _on_domain(arr.ravel(), L)
        if len(self.pieces) == 1:
            out = self.pieces[0][2].values(tt)
        else:
            idx = np.searchsorted(self._starts, tt, side="right") - 1
            out = np.empty_like(tt)
            for k in np.unique(idx):
                m = idx == k
                out[m] = self.pieces[k][2].values(tt[m])
        out += self.shift
        return out.reshape(arr.shape)

    def bounds(self, t0: float = 0.0, t1: float | None = None) -> tuple:
        """Exact (min, max) of a + shift between t0 and t1 (L if None; ends by ``_on_domain``)."""
        L = self.domain_length
        t0, t1 = sorted((_on_domain(float(t0), L), _on_domain(float(L if t1 is None else t1), L)))
        k0, k1 = bisect_right(self._starts_list, t0) - 1, bisect_right(self._starts_list, t1)
        lo, hi = zip(*(piece.bounds(max(a, t0), min(b, t1)) for a, b, piece in self.pieces[k0:k1]))
        return float(min(lo)) + self.shift, float(max(hi)) + self.shift

    # -- algebra -----------------------------------------------------------

    def shifted(self, dlam: float) -> "Potential":
        return replace(self, shift=self.shift + float(dlam))

    def even_extension(self) -> "Potential":
        """Extend to [0, 2L] by mirroring about L: result(t) = a(2L - t) for t > L."""
        L = self.domain_length
        mirrored = tuple((2.0 * L - b, 2.0 * L - a, piece.mirrored(L))
                         for a, b, piece in reversed(self.pieces))
        return Potential(self.pieces + mirrored, 2.0 * L, self.shift)

    def reflect(self) -> "Potential":
        """Time reversal on the same interval: result(t) = a(L - t)."""
        L = self.domain_length
        c = 0.5 * L
        pieces = tuple((L - b, L - a, piece.mirrored(c)) for a, b, piece in reversed(self.pieces))
        return Potential(pieces, L, self.shift)

    def restrict(self, new_length: float) -> "Potential":
        """Keep only [0, new_length]."""
        L = self.domain_length
        nl = float(new_length)
        if not 0.0 < nl <= L * (1.0 + 1e-12):
            raise ValueError(f"cannot restrict to length {nl} from {L}")
        nl = min(nl, L)
        kept = []
        for a, b, piece in self.pieces:
            if a >= nl:
                break
            kept.append((a, min(b, nl), piece))
        return Potential(tuple(kept), nl, self.shift)

    def is_even_about_midpoint(self, npts: int = 257, rtol: float = 1e-11) -> bool:
        """Test for a(t) == a(L - t): mirrored breakpoints, then equal samples.

        The breakpoints must map onto each other under t -> L - t up to
        rounding, so a piece too narrow for a sample grid still counts.
        Samples fill a grid of ``npts`` points and the quartiles of every
        piece, away from breakpoints: at a jump the evaluation takes the
        right limit, so t and L - t can legitimately disagree at single
        points for a symmetric piecewise potential; the equation only sees
        the potential in the L1 sense.
        """
        L = self.domain_length
        b = self.breakpoints
        if np.max(np.abs(b + b[::-1] - L)) > 1e-12 * (1.0 + L):
            return False
        ts = np.concatenate([L * (np.arange(npts) + 0.5) / npts]
                            + [np.linspace(a, c, 5)[1:-1] for a, c, _ in self.pieces])
        cuts = np.concatenate([b, L - b])
        keep = np.min(np.abs(ts[:, None] - cuts[None, :]), axis=1) > 1e-9 * (1.0 + L)
        ts = ts[keep]
        if ts.size == 0:
            return False
        v = self.eval(ts)
        w = self.eval(L - ts)
        scale = 1.0 + float(np.max(np.abs(v)))
        return float(np.max(np.abs(v - w))) <= rtol * scale


BUILTIN_NAMES = ("ex1", "ex2", "ex3", "ex4")


def load_builtin(name: str) -> Potential:
    """Load one of the bundled example potentials (ex1 to ex4)."""
    if name not in BUILTIN_NAMES:
        raise ValueError(f"unknown builtin potential {name!r}, expected one of {BUILTIN_NAMES}")
    text = resources.files("hillgreen").joinpath(f"data/{name}.json").read_text()
    return Potential.from_json(text)
