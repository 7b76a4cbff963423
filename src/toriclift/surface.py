"""Numeric realization of the rotated surface, used as a cross-check oracle.

This is the only module that touches floating point.  The surface over
the chart polynomials x_1(tau), ..., x_n(tau) of an endpoint (parameter
first) with circle weights (k_1, ..., k_n) is

    F(tau, t) = (r_1 cos k_1 t, r_1 sin k_1 t, ..., r_n cos k_n t, r_n sin k_n t)

with r_j = sqrt(2 x_j(tau)) for tau in [0, b - a].  The sampler, the
planarity probe and the pullback density share one evaluator, which
fills a coordinate-major grid (2n, len(tau), len(t)): each coordinate is
one contiguous block.  The probe and the pullback-density identity give
heuristic confirmations of the exact verdicts; `inconclusive` is always
an acceptable probe outcome.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .criterion import CurveGraph
from .exactmath import is_int


class SamplerError(ValueError):
    pass


class SurfaceSample(NamedTuple):
    tau: np.ndarray         # shape (nx,)
    t: np.ndarray           # shape (nt,)
    points: np.ndarray      # shape (nx, nt, 2n); from sample_surface, a view on the (2n, nx, nt) grid

    @property
    def grid_shape(self) -> tuple[int, int]:
        return self.points.shape[0], self.points.shape[1]


def _surface(graph: CurveGraph, tau: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Points F(tau, t) on a tau x t grid, coordinate-major: shape (2n, len(tau), len(t)).

    Raises on a negative radicand, that is where the curve leaves the
    chart's orthant.
    """
    pts = np.empty((2 * graph.n, len(tau), len(t)))
    for i, (x, k) in enumerate(zip(graph.num, graph.k)):
        vals = 2.0 * np.polyval([c / graph.den for c in reversed(x)] or [0.0], tau)
        bad = vals < -1e-12
        if np.any(bad):
            raise SamplerError(f"negative radicand in coordinate {i + 1} at tau = {float(tau[bad][0])}")
        r = np.sqrt(np.clip(vals, 0.0, None))
        np.multiply(r[:, None], np.cos(k * t), out=pts[2 * i])
        np.multiply(r[:, None], np.sin(k * t), out=pts[2 * i + 1])
    return pts


def sample_surface(graph: CurveGraph, nx: int, nt: int) -> SurfaceSample:
    """Evaluate the rotated surface on a uniform [0, b - a] x [0, 2pi) grid."""
    if nx < 1 or nt < 1:
        raise SamplerError("empty grid")
    tau = np.linspace(0.0, float(graph.x1_max), nx)
    t = np.linspace(0.0, 2.0 * np.pi, nt, endpoint=False)
    return SurfaceSample(tau, t, np.moveaxis(_surface(graph, tau, t), 0, -1))


def pullback_density_exact(graph: CurveGraph, tau: Fraction | float) -> Fraction:
    """Exact sum_j k_j x_j'(tau), from the integer chart polynomials over their denominator.

    With tau = p/q (a float's is dyadic) and S = sum_j k_j num_j of degree m, Horner in
    integers gives q**(m - 1) S'(p/q); one Fraction divides it by q**(m - 1) den.
    """
    p, q = tau.as_integer_ratio()
    s = [0] * max(map(len, graph.num))
    for x, k in zip(graph.num, graph.k):
        for i, c in enumerate(x):
            s[i] += k * c
    acc, qk = 0, 1  # qk = q**(m - i) at the coefficient of tau**i
    for i in range(len(s) - 1, 0, -1):
        acc = acc * p + i * s[i] * qk
        qk *= q
    return Fraction(acc, qk // q * graph.den) if acc else Fraction(0)


# fourth-order central difference: offsets and weights
_STENCIL = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
_WEIGHTS = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0


def pullback_density(graph: CurveGraph, tau: float, t: float = 0.37) -> tuple[float, float]:
    """(numeric, exact) symplectic density omega(F_tau, F_t) at tau > 0.

    Numeric side by fourth-order central differences of the sampled
    surface; the tau step is proportional to tau because the radii grow
    like sqrt(tau) at the tip.  Exact side from the moment-coordinate
    identity.
    """
    if not 0 < tau < np.inf:
        raise SamplerError(f"pullback density needs a finite tau > 0, got {tau}")
    h, ht = 1e-3 * tau, 1e-3
    p = _surface(graph, tau + h * _STENCIL, t + ht * _STENCIL)
    # each product on a contiguous (5, 2n) copy, the operand layout the sums' last bits depend on
    fx = _WEIGHTS @ np.ascontiguousarray(p[:, :, 2].T) / h
    ft = _WEIGHTS @ np.ascontiguousarray(p[:, 2, :].T) / ht
    omega = float(np.sum(fx[0::2] * ft[1::2] - fx[1::2] * ft[0::2]))
    exact = float(pullback_density_exact(graph, tau))
    return omega, exact


class ProbeResult(NamedTuple):
    kind: str  # planar | conelike | inconclusive
    residual_coarse: float
    residual_fine: float
    ratio: float


# Engineering thresholds, frozen with the test corpus.
PLANAR_RESIDUAL = 0.05
PLANAR_RATIO = 0.6
CONE_RESIDUAL = 0.15
CONE_RATIO = 0.9
MIN_POINTS = 30
PROBE_TAU = 0.125  # probe window tau <= PROBE_TAU * min(b - a, 1): r_1 <= 1/2 when x_p = tau


def _plane_residual(centered: np.ndarray) -> float:
    """Normalized out-of-plane spread of vertex-relative points about the best 2-plane."""
    sv = np.linalg.svd(centered, compute_uv=False)
    total = float(np.sqrt(np.sum(sv**2)))
    if total == 0.0:
        return 0.0
    return float(np.sqrt(np.sum(sv[2:] ** 2))) / total


def smoothness_probe(graph: CurveGraph, nx: int = 400, nt: int = 48) -> ProbeResult:
    """Second-moment planarity test at the tau = 0 tip of the surface.

    Compares the normalized out-of-plane residual at two scales eps and
    eps/2: a smooth (C^1) surface flattens at a definite rate, a cone is
    scale-invariant.  The tau grid is quadratic so that the radius r_1,
    which grows like sqrt(tau), is spread evenly near the tip.  The grid
    is centered on the tip once, one contiguous row per coordinate; the
    coarse scale selects columns of that array, the fine one columns of
    the coarse selection.
    """
    if nx < 1 or nt < 1:
        raise SamplerError("empty grid")
    tau_cap = PROBE_TAU * min(float(graph.x1_max), 1.0)
    tau = np.concatenate(([0.0], tau_cap * np.linspace(1.0 / nx, 1.0, nx) ** 2))
    t = np.linspace(0.0, 2.0 * np.pi, nt, endpoint=False)
    try:
        grid = _surface(graph, tau, t)
    except SamplerError:
        return ProbeResult("inconclusive", float("nan"), float("nan"), float("nan"))
    cols = grid[:, 1:].reshape(2 * graph.n, nx * nt)  # a view: one row per coordinate
    cols -= grid[:, :1, 0]
    dist = np.sqrt(sum(c * c for c in cols))
    # small enough that curvature of a smooth sheet stays under the
    # planar threshold, large enough to keep the point count up
    eps = 0.15 * float(np.max(dist))
    res = []
    for scale in (eps, eps / 2):  # the fine selection is a subset of the coarse one, in its order
        keep = (dist > 0) & (dist <= scale)
        cols, dist = cols[:, keep], dist[keep]
        if cols.shape[1] < MIN_POINTS:
            return ProbeResult("inconclusive", float("nan"), float("nan"), float("nan"))
        res.append(_plane_residual(cols.T))
    coarse, fine = res
    ratio = fine / coarse if coarse > 0 else 0.0
    if fine <= 1e-9 or (ratio <= PLANAR_RATIO and coarse < PLANAR_RESIDUAL):
        kind = "planar"
    elif coarse > CONE_RESIDUAL and ratio >= CONE_RATIO:
        kind = "conelike"
    else:
        kind = "inconclusive"
    return ProbeResult(kind, coarse, fine, ratio)


# ---------------------------------------------------------------------------
# mesh export

_CHUNK = 8192  # lines formatted at once, which bounds the working arrays
_POW10 = np.array([float(10 ** s) for s in range(23)])  # exact doubles: 5**22 < 2**53
_DIGIT = np.arange(17, dtype=np.int8).reshape(17, 1, 1)
# the text of a value below 1 starts "0." and -e - 1 zeros:
# slot j holds _LEAD_CHAR[j] when e < _LEAD_BELOW[j]
_LEAD_BELOW = np.array([0, 0, -1, -2, -3], np.int8).reshape(5, 1, 1)
_LEAD_CHAR = np.frombuffer(b"0.000", np.uint8).reshape(5, 1, 1)
# sign, "0.000", then digit k and the point after it (none after the 17th); 24 would hold any %.17g
_SLOTS = 39


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split a = hi + lo into halves of at most 26 bits, whose products are exact."""
    c = a * 134217729.0  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _round17(y: np.ndarray, e: np.ndarray) -> np.ndarray:
    """round(y * 10**(16 - e)) as int64, exactly, ties to even.

    Dekker's two-product gives y * 10**(16 - e) = hi + lo exactly.  When
    10**e <= y < 10**(e + 1), hi >= 10**16 > 2**53 is an even integer, so
    the rounded product is hi + rint(lo).
    """
    p = _POW10[16 - e]
    hi = y * p
    (yh, yl), (ph, pl) = _split(y), _split(p)
    lo = ((yh * ph - hi) + yh * pl + yl * ph) + yl * pl
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _g17_lines(a: np.ndarray, prefix: str, sep: str):
    """Yield the lines prefix + sep.join('%.17g' % v for v in row) + '\\n' for the
    rows of the float64 array a, as one bytearray per _CHUNK lines; sep is not empty.

    Where %.17g writes fixed notation, 1e-4 <= |v| < 1e17, the 17 correctly
    rounded digits N * 10**(e - 16) come from _round17; log10 may put e one
    off near a power of ten, which N outside [10**16, 10**17) shows.  Each
    value's text fills _SLOTS slots of a NUL-filled line buffer: the sign,
    the leading "0.000" and the digits are written one slot at a time over
    every value, the point once per value that has one, at slot 7 + 2e.
    The NULs are dropped from the chunk at the end.  A chunk is copied to
    row-major order first, so each slot is written in the buffer's order.
    +-0 is written as 0 or -0; nan, +-inf and the values %.17g writes in
    exponent notation go through '%.17g' itself.
    """
    pre, sep = np.frombuffer(prefix.encode(), np.uint8), np.frombuffer(sep.encode(), np.uint8)
    P = len(pre)
    width = P + _SLOTS + len(sep)
    for i in range(0, len(a), _CHUNK):
        x = np.ascontiguousarray(a[i:i + _CHUNK])  # OBJ vertices come column-major
        buf = bytearray(x.size * width)
        flat = np.frombuffer(buf, np.uint8)
        lines = flat.reshape(x.shape + (width,))  # line, value, slot
        lines[:, 0, :P] = pre
        lines[:, :-1, P + _SLOTS:] = sep
        lines[:, -1, P + _SLOTS] = ord("\n")
        text = np.moveaxis(lines[..., P:P + _SLOTS], -1, 0)  # slot, line, value
        ax = np.abs(x)
        fixed = (ax >= 1e-4) & (ax < 1e17)
        y = np.where(fixed, ax, 1.0)  # any other value is written below
        e = np.minimum(np.floor(np.log10(y)), 16).astype(np.int8)  # log10 of 1e17 - 16 is 17
        n = _round17(y, e)
        off = (n < 10 ** 16) | (n >= 10 ** 17)
        if off.any():
            e[off] += np.where(n[off] >= 10 ** 17, 1, -1).astype(np.int8)
            n[off] = _round17(y[off], e[off])
        d = np.empty((18,) + x.shape, np.uint8)  # a leading 0, then the 17 digits of n
        for start, part in ((0, n // 10 ** 9), (9, n % 10 ** 9)):
            part = part.astype(np.uint32)
            for j in range(start + 8, start - 1, -1):
                q = part // 10
                d[j] = part - q * 10
                part = q
        d = d[1:]
        last = ((d != 0) * _DIGIT).max(axis=0)  # the last nonzero digit
        text[0] = np.signbit(x) * np.uint8(ord("-"))
        text[1:6] = (e < _LEAD_BELOW) * _LEAD_CHAR
        text[6::2] = (d + np.uint8(ord("0"))) * (_DIGIT <= np.maximum(e, last))
        point = np.flatnonzero((e >= 0) & (last > e))  # the values whose point follows a digit
        flat[point * width + (P + 7) + 2 * e.ravel()[point]] = ord(".")
        text[6][x == 0] = ord("0")  # written as 1 from y
        other = ~fixed & (x != 0)
        if other.any():
            strs = np.array(["%.17g" % v for v in x[other].tolist()], f"S{_SLOTS}")
            text[:, other] = strs.view(np.uint8).reshape(len(strs), _SLOTS).T
        yield buf.translate(None, b"\0")


@functools.lru_cache(maxsize=1)
def _obj_faces(nx: int, nt: int) -> tuple[bytes, ...]:
    """The OBJ quad faces of an nx x nt grid, wrapping around in t; 1-based indices, as chunks
    of _CHUNK lines, which bound the Python ints alive at once and are written unjoined."""
    lines, out = (nx - 1) * nt, []
    for a in (np.arange(i, min(i + _CHUNK, lines)) for i in range(0, lines, _CHUNK)):
        b = a - a % nt + (a + 1) % nt  # line a joins points a, b and the two a row on
        quads = np.stack([a, b, b + nt, a + nt], axis=-1).ravel() + 1
        out.append(("f %d %d %d %d\n" * len(a) % tuple(quads.tolist())).encode())
    return tuple(out)


def export_mesh(sample: SurfaceSample, fmt: str, path,
                project: Sequence[int] = (0, 1, 2)) -> None:
    """Write the sample as CSV rows or as an OBJ mesh projected to 3 coords.

    Each float is written as '%.17g' writes it: 17 significant digits,
    which read back as the same double.  The lines are formatted in numpy,
    a fixed number of lines at a time, and written as they are made; the
    OBJ face block depends only on the grid shape, and the last shape's
    block is kept for the next export.  An OBJ mesh needs nt >= 3, so that
    each quad has four distinct corners.  Output is byte-deterministic for
    identical inputs.
    """
    nx, nt = sample.grid_shape
    if nx == 0 or nt == 0:
        raise SamplerError("empty grid")
    dim = sample.points.shape[2]
    if fmt == "csv":
        header = ",".join(["tau", "t"] + [f"p{i + 1}" for i in range(dim)]) + "\n"
        rows = np.column_stack([np.repeat(sample.tau, nt), np.tile(sample.t, nx),
                                sample.points.reshape(nx * nt, dim)])
        blocks = itertools.chain([header.encode()], _g17_lines(rows, "", ","))
    elif fmt == "obj":
        if len(project) != 3 or not all(is_int(i) and 0 <= i < dim for i in project):
            raise SamplerError(f"projection {project}: expected three integers in 0..{dim - 1}")
        if nt < 3:
            raise SamplerError(f"OBJ export needs nt >= 3, got nt = {nt}")
        verts = sample.points[:, :, list(project)].reshape(nx * nt, 3)
        blocks = itertools.chain(_g17_lines(verts, "v ", " "), _obj_faces(nx, nt))
    else:
        raise SamplerError(f"unknown mesh format {fmt!r}")
    with open(path, "wb") as fh:
        fh.writelines(blocks)
