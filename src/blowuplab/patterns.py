"""Profile classification by multiindex and initial-guess manufacture.

A profile in unit-equilibrium variables is classified by the ordered
record of its transversal crossings of the levels -1, 0, +1, scanned
left to right: runs of crossings of +-1 become signed tokens (+2 means
two crossings of +1), runs of zero crossings become unsigned counts.
Oscillatory end-of-support zeros are not counted: the outermost band
where |F| stays below tol_zero is trimmed, and every level uses a
hysteresis deadband so tangencies and tail wiggles never register.

The same vocabulary drives guess manufacture: basic(l) profiles are
alternating-sign superpositions of l+1 copies of the first pattern,
gluing families add a mid-gap wiggle seeding the prescribed zero count,
oscillation families ride the periodic orbit about +1, and Q-type
guesses leave the constant equilibrium at a finite point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import bvp
from .bvp import Mesh, PeriodicOrbit, Profile
from .model import ProblemParams

__all__ = [
    "MultiIndex",
    "FamilySpec",
    "classify",
    "transversal_zeros",
    "guess_factory",
    "default_bump",
]

DEFAULT_TOL_ZERO = 1e-3
DEFAULT_TOL_EQ = 5e-2


@dataclass(frozen=True)
class MultiIndex:
    """Ordered crossing tokens: (level, count) with level in {-1, 0, +1}.

    Consecutive tokens always differ in level, counts are positive, and
    only the equilibrium levels carry a sign in the printed form.
    """

    tokens: tuple

    def __post_init__(self):
        toks = tuple((int(lv), int(ct)) for lv, ct in self.tokens)
        object.__setattr__(self, "tokens", toks)
        for lv, ct in toks:
            if lv not in (-1, 0, 1):
                raise ValueError(f"token level must be -1, 0 or +1, got {lv}")
            if ct < 1:
                raise ValueError(f"token counts must be positive, got {ct}")
        for (l1, _), (l2, _) in zip(toks, toks[1:]):
            if l1 == l2:
                raise ValueError("consecutive tokens must differ in level")

    def __str__(self):
        parts = []
        for lv, ct in self.tokens:
            parts.append(f"{'+' if lv > 0 else '-'}{ct}" if lv else f"{ct}")
        return "{" + ",".join(parts) + "}"

    def flipped(self) -> "MultiIndex":
        return MultiIndex(tuple((-lv, ct) for lv, ct in self.tokens))

    def reversed(self) -> "MultiIndex":
        return MultiIndex(tuple(reversed(self.tokens)))


def _scan_window(values: np.ndarray, tol_zero: float) -> slice:
    """Trim the outermost bands where |F| < tol_zero (support-edge tails)."""
    big = np.nonzero(np.abs(values) >= tol_zero)[0]
    if big.size == 0:
        return slice(0, 0)
    return slice(big[0], big[-1] + 1)


def _level_crossings(y: np.ndarray, F: np.ndarray, level: float,
                     deadband: float) -> list:
    """Hysteresis-registered transversal crossings of one level.

    A crossing counts only when F moves from one side of the deadband
    [level - deadband, level + deadband] to the other, which discards
    tangencies and sub-tolerance wiggles.
    """
    d = F - level
    side = 0
    last_idx = 0
    out = []
    for i in range(F.size):
        s = 1 if d[i] > deadband else (-1 if d[i] < -deadband else 0)
        if s == 0:
            continue
        if side != 0 and s != side:
            j = last_idx
            while j < i and d[j] * d[j + 1] > 0.0:
                j += 1
            frac = d[j] / (d[j] - d[j + 1]) if d[j] != d[j + 1] else 0.5
            out.append((float(y[j] + frac * (y[j + 1] - y[j])), level))
        side = s
        last_idx = i
    return out


def crossing_locations(profile: Profile, tol_zero: float = DEFAULT_TOL_ZERO,
                       tol_eq: float = DEFAULT_TOL_EQ) -> list:
    """(position, level) pairs backing classify, for reports.

    Zero crossings outside the span of the equilibrium crossings are
    end-of-support tail zeros, never part of a pattern's index, and are
    dropped here.  Both tolerances must be finite and positive.
    """
    if not (0.0 < tol_zero < np.inf and 0.0 < tol_eq < np.inf):
        raise ValueError(f"tolerances must be finite and positive: {tol_zero}, {tol_eq}")
    prof = profile.full_extension()
    win = _scan_window(prof.values, tol_zero)
    y = prof.mesh.nodes[win]
    F = prof.values[win]
    if F.size == 0:
        return []
    events = []
    for level, band in ((-1.0, tol_eq), (0.0, tol_zero), (1.0, tol_eq)):
        events.extend(_level_crossings(y, F, level, band))
    events.sort(key=lambda e: e[0])
    eq_pos = [pos for pos, lv in events if lv != 0.0]
    if not eq_pos:
        return []
    lo, hi = min(eq_pos), max(eq_pos)
    return [(pos, lv) for pos, lv in events if lv != 0.0 or lo < pos < hi]


def classify(profile: Profile, tol_zero: float = DEFAULT_TOL_ZERO,
             tol_eq: float = DEFAULT_TOL_EQ) -> MultiIndex:
    """Multiindex of a converged profile in unit-equilibrium variables."""
    if not profile.converged:
        raise ValueError("classification needs a converged profile")
    tokens = []
    for pos, level in crossing_locations(profile, tol_zero, tol_eq):
        lv = int(level)
        if tokens and tokens[-1][0] == lv:
            tokens[-1][1] += 1
        else:
            tokens.append([lv, 1])
    return MultiIndex(tuple((lv, ct) for lv, ct in tokens))


def transversal_zeros(profile: Profile, tol: float = 1e-2,
                      tol_zero: float = DEFAULT_TOL_ZERO,
                      tol_eq: float = DEFAULT_TOL_EQ) -> int:
    """Count of sign changes with slope above tol, tail zeros excluded.

    Tail exclusion is shared with classify: only sign changes between the
    outermost equilibrium crossings can count.
    """
    if not profile.converged:
        raise ValueError("zero counting needs a converged profile")
    prof = profile.full_extension()
    win = _scan_window(prof.values, tol_zero)
    y = prof.mesh.nodes[win]
    F = prof.values[win]
    h = prof.mesh.h
    eq_pos = [pos for pos, lv in crossing_locations(profile, tol_zero, tol_eq)
              if lv != 0.0]
    if not eq_pos:
        return 0
    lo, hi = min(eq_pos), max(eq_pos)
    count = 0
    for i in range(F.size - 1):
        if not lo < y[i] < hi:
            continue
        # a zero on a node (the origin of an odd profile) spans two intervals
        j = i + 2 if F[i + 1] == 0.0 and i + 2 < F.size else i + 1
        if F[i] * F[j] < 0.0 and abs(F[j] - F[i]) / ((j - i) * h) > tol:
            count += 1
    return count


# -- guess manufacture -------------------------------------------------------


@dataclass(frozen=True)
class FamilySpec:
    """Which family to seed: basic(l), glue_pp(k), glue_mp(k), osc_plus(2k)
    or q_type.

    separation is the center-to-center spacing for basic(l), the per-copy
    offset y0 (copies at -y0 and +y0) for the glue kinds, and the plateau
    departure point for q_type.
    """

    kind: str
    index: int = 0
    separation: float = 7.5
    n: float = 0.2

    def __post_init__(self):
        kinds = ("basic", "glue_pp", "glue_mp", "osc_plus", "q_type")
        if self.kind not in kinds:
            raise ValueError(f"kind must be one of {kinds}")
        if self.kind == "basic" and self.index < 0:
            raise ValueError("basic index must be >= 0")
        if self.kind == "glue_pp" and (self.index < 0 or self.index % 2):
            raise ValueError("glue_pp needs an even zero count k >= 0")
        if self.kind == "glue_mp" and (self.index < 1 or self.index % 2 == 0):
            raise ValueError("glue_mp needs an odd zero count k >= 1")
        if self.kind == "osc_plus" and (self.index < 2 or self.index % 2):
            raise ValueError("osc_plus counts crossings of +1: even, >= 2")


def default_bump(amplitude: float = 1.2, width: float = 3.0):
    """Smooth even bump template standing in for the first pattern."""
    return lambda y: amplitude * np.exp(-((np.asarray(y) / width) ** 2))


def _template_fn(template: Optional[Profile]):
    if template is None:
        return default_bump()
    full = template.full_extension()
    yt, Ft = full.mesh.nodes, full.values

    def fn(y):
        return np.interp(np.asarray(y, dtype=float), yt, Ft, left=0.0, right=0.0)

    return fn


def guess_factory(spec: FamilySpec, mesh: Mesh,
                  params: Optional[ProblemParams] = None,
                  template: Optional[Profile] = None,
                  orbit: Optional[PeriodicOrbit] = None) -> Profile:
    """Unconverged initial guess for the requested family.

    basic(l) superposes l+1 alternating-sign template copies (rightmost
    positive); gluing kinds need a stored converged first pattern as the
    template; osc_plus rides the periodic orbit about +1 (computed on
    demand when not supplied); q_type pins the plateau.  The bc value rows
    are pinned exactly.
    """
    if params is None:
        params = ProblemParams(n=spec.n, p=spec.n + 1.0)
    y = mesh.nodes
    half = y[0] >= -1e-14

    if spec.kind == "basic":
        T = _template_fn(template)
        l = spec.index
        sep = spec.separation
        vals = np.zeros_like(y)
        for j in range(l + 1):
            center = (j - 0.5 * l) * sep
            vals += (-1.0) ** (l - j) * T(y - center)
        bc = "symmetry" if l % 2 == 0 else "antisymmetry"
        if not half:
            bc = "dirichlet-far"
    elif spec.kind in ("glue_pp", "glue_mp"):
        if template is None:
            raise ValueError(f"{spec.kind} needs a stored first-pattern template")
        T = _template_fn(template)
        y0 = spec.separation
        left_sign = 1.0 if spec.kind == "glue_pp" else -1.0
        vals = left_sign * T(y + y0) + T(y - y0)
        k = spec.index
        # the plain superposition already has one odd zero (mp) or none (pp);
        # larger counts get seeded by a mid-gap wiggle
        if k >= 2:
            gap = 0.8 * y0
            phase = np.pi * k * y / (2.0 * gap)
            packet = np.exp(-((y / gap) ** 2))
            wiggle = np.cos(phase) if spec.kind == "glue_pp" else np.sin(phase)
            sign = -1.0 if spec.kind == "glue_pp" else 1.0
            vals += sign * 0.45 * wiggle * packet
        if half:
            # parity bc kills the soft translation mode of the autonomous case
            bc = "symmetry" if spec.kind == "glue_pp" else "antisymmetry"
        else:
            bc = "dirichlet-far"
    elif spec.kind == "osc_plus":
        # even pattern: oscillation about +1 with a centered orbit segment;
        # on a half mesh the even half is built directly with symmetry bc
        if orbit is None:
            orbit = bvp.shoot_periodic_full(params.n, 1, 0.45)
        k = spec.index // 2
        T = orbit.period
        span = (k - 1) * T / 2.0
        vals = np.zeros_like(y)
        mid = np.abs(y) <= span
        vals[mid] = bvp.orbit_samples(orbit, y[mid] + span + T / 2.0)
        edge = ~mid
        vals[edge] = orbit.max_val * np.exp(-(((np.abs(y[edge]) - span) / 2.5) ** 2))
        bc = "symmetry" if half else "dirichlet-far"
    elif spec.kind == "q_type":
        y0 = spec.separation
        if y[0] >= y0:
            raise ValueError("Q-type mesh must start left of the departure point")
        if template is not None:
            # graft the template's decaying flank where it crosses +1
            T = _template_fn(template)
            yt = np.linspace(0.0, template.mesh.nodes[-1], 4001)
            vt = T(yt)
            im = int(np.argmax(vt))
            below = np.nonzero(vt[im:] < 1.0)[0]
            y_cross = yt[im + below[0]] if below.size else 0.0
            flank = T(np.maximum(y - y0 + y_cross, y_cross))
        else:
            flank = np.exp(-(((y - y0) / 3.0) ** 2))
        vals = np.where(y <= y0, 1.0, flank)
        bc = "q-plateau"

    vals = bvp._project_bc(vals, bc)
    return Profile(mesh, vals, params, bc)
