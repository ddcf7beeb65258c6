"""Seeded workloads for the framelab benchmark, with their expected outcomes.

Each workload is a fixed list of config kinds; the seed chooses only the
values inside them (weights, shapes, radii, window samples).  The mix of
kinds is the same for every seed, so the cost of one pass does not depend
on the seed, and the per-module call counts of a pass repeat exactly.

Every expected verdict and weight bound is derived here from the generated
input alone -- weight extremes, the benchmark's own FFT of a Gabor window,
its own fold of a generator -- never from framelab's output.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

TOLERANCES = {"consistency": 1e-9, "verdict": 1e-9}
# Expected values derived by a different evaluation order than the
# program's agree with its output to this relative tolerance.
BOUND_RTOL = 1e-12
SUPPORT_ETA = 1e-12
TINY = np.finfo(float).tiny

GRID_N, GRID_M = 512, 2  # the validator's cap, grid_size * fiber_dim = 1024
ZERO_BLOCK = 0.125  # fixed share of zero weight, so support size and cost do not vary
ZAK_SHAPES = ((32, 32), (64, 16), (16, 64))  # N * L = 1024
LATTICE = {"resolution": 65536, "spectral_resolution": 512, "k_max": 64}
SHIFTINV_N = 256


@dataclass
class Case:
    """One generated config and everything needed to judge its output.

    Attributes:
        name: short label, unique within the workload.
        config: the JSON config handed to the CLI.
        verdict: expected verdict.
        weight_bounds: expected ``bounds.weight``.
        exact: whether ``bounds.weight`` must match bit for bit (the
            extremes are literal config values) or to ``BOUND_RTOL``.
        witness: expected witness fields that must match, if any.
        witness_ratio_below: the witness energy ratio must stay below this.
        sizes: computed problem sizes: N, M, P, support (nodes with positive
            weight, or nonzero window samples), subnormal window samples, and
            the bytes of one analysis matrix and one Gabor Gram.
        samples: window samples to write as the ``samples_path`` CSV.
    """

    name: str
    config: dict
    verdict: str
    weight_bounds: tuple
    exact: bool = False
    witness: dict = field(default_factory=dict)
    witness_ratio_below: float | None = None
    sizes: dict = field(default_factory=dict)
    samples: np.ndarray | None = None


def _seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _matrix_bytes(n: int, m: int, support: int) -> int:
    """Computed size of one analysis matrix: (m n) rows, (support m) columns."""
    return m * n * support * m * 16


def _sizes(n, m, p, support, subnormal, matrix_bytes, gram_bytes) -> dict:
    return {
        "N": n,
        "M": m,
        "P": p,
        "support": support,
        "subnormal": subnormal,
        "analysis_matrix_bytes_computed": matrix_bytes,
        "gram_bytes_computed": gram_bytes,
    }


def _grid_case(name, rng, weight, w, extremes, verdict, a_claimed=None) -> Case:
    """analyze config, or witness config when a lower bound is claimed."""
    cfg = {
        "mode": "analyze" if a_claimed is None else "witness",
        "seed": _seed(rng),
        "tolerances": dict(TOLERANCES),
        "space": {"grid_size": GRID_N, "fiber_dim": GRID_M, "weight": weight},
    }
    support = int(np.count_nonzero(w > SUPPORT_ETA))
    sizes = _sizes(GRID_N, GRID_M, 0, support, 0,
                   _matrix_bytes(GRID_N, GRID_M, support), 0)
    case = Case(name, cfg, verdict, extremes, exact=True, sizes=sizes)
    if a_claimed is not None:
        cfg["a_claimed"] = a_claimed
        case.witness = {"exists": True, "support_size": int(np.count_nonzero(w < a_claimed))}
        case.witness_ratio_below = a_claimed
    return case


def grid(seed: int) -> list:
    """analyze and witness at the grid cap: riesz_basis, not_frame, onb."""
    rng = np.random.default_rng([seed, 1])
    n = GRID_N
    if rng.random() < 0.5:
        start, stop = float(rng.uniform(0.2, 1.0)), float(rng.uniform(1.2, 3.0))
        weight = {"preset": "ramp", "start": start, "stop": stop}
        w = np.linspace(start, stop, n)
        extremes = (start, stop)
    else:
        low, high = float(rng.uniform(0.2, 0.9)), float(rng.uniform(1.1, 2.5))
        split = float(rng.uniform(0.1, 0.9))
        weight = {"preset": "step", "low": low, "high": high, "split": split}
        w = np.full(n, high)
        w[: int(round(split * n))] = low
        extremes = (low, high)
    cases = [_grid_case("riesz", rng, weight, w, extremes, "riesz_basis")]

    high = float(rng.uniform(0.5, 2.0))
    a_claimed = float(rng.uniform(0.25, 0.75) * high)
    weight = {"preset": "step", "low": 0.0, "high": high, "split": ZERO_BLOCK}
    w = np.full(n, high)
    w[: int(round(ZERO_BLOCK * n))] = 0.0
    cases.append(_grid_case("not_frame", rng, weight, w, (0.0, high), "not_frame", a_claimed))

    weight = {"preset": "constant", "value": 1.0}
    cases.append(_grid_case("onb", rng, weight, np.ones(n), (1.0, 1.0), "onb"))
    return cases


def zak_magnitude_sq(phi: np.ndarray, n: int, L: int) -> np.ndarray:
    """|Z|^2 of the finite Zak transform, by a forward FFT across translates.

    framelab takes an inverse FFT; the two differ only by m -> -m, which
    leaves the multiset of magnitudes unchanged.
    """
    return np.abs(np.fft.fft(phi.reshape(L, n), axis=0)) ** 2


def _verdict(lo: float, hi: float) -> str:
    """Verdict of a square system whose frame bounds are (lo, hi)."""
    tol = TOLERANCES["verdict"]
    if max(abs(lo - 1.0), abs(hi - 1.0)) <= tol:
        return "onb"
    return "riesz_basis" if lo > tol else "not_frame"


def _zak_case(name, rng, window, n, L, phi) -> Case:
    cfg = {
        "mode": "zak",
        "seed": _seed(rng),
        "tolerances": dict(TOLERANCES),
        "window": window,
        "time_resolution": n,
        "translates": L,
    }
    zsq = zak_magnitude_sq(phi, n, L)
    mag = np.abs(phi)
    subnormal = int(np.count_nonzero((mag > 0) & (mag < TINY)))
    p = n * L
    sizes = _sizes(n, 1, p, int(np.count_nonzero(mag)), subnormal, 0, p * p * 16)
    samples = phi if window["preset"] == "custom" else None
    lo, hi = float(zsq.min()), float(zsq.max())
    return Case(name, cfg, _verdict(lo, hi), (lo, hi), sizes=sizes, samples=samples)


def _gaussian_window(n: int, L: int) -> np.ndarray:
    t = np.arange(n * L) / n
    return (2.0 ** 0.25) * np.exp(-math.pi * (t - L / 2) ** 2) + 0j


def _custom_window(rng, n: int, L: int, vanish: bool) -> np.ndarray:
    """Window whose Zak transform has seeded magnitudes in [0.3, 1.7].

    With ``vanish`` one Zak value is zero, so the system is not a frame.
    The window is the inverse Zak transform of the chosen values.
    """
    z = rng.uniform(0.3, 1.7, (L, n)) * np.exp(2j * math.pi * rng.random((L, n)))
    if vanish:
        z[rng.integers(L), rng.integers(n)] = 0.0
    return np.fft.ifft(z, axis=0).reshape(-1)


def gabor(seed: int) -> list:
    """zak at N*L = 1024: two Gaussian shapes, the indicator, two custom windows."""
    rng = np.random.default_rng([seed, 2])
    cases = [
        _zak_case("gaussian_32x32", rng, {"preset": "gaussian"}, 32, 32,
                  _gaussian_window(32, 32)),
        _zak_case("gaussian_64x16", rng, {"preset": "gaussian"}, 64, 16,
                  _gaussian_window(64, 16)),
    ]
    n, L = ZAK_SHAPES[rng.integers(len(ZAK_SHAPES))]
    phi = np.zeros(n * L, dtype=complex)
    phi[:n] = 1.0
    cases.append(_zak_case("indicator", rng, {"preset": "indicator"}, n, L, phi))
    for name, vanish in (("custom_riesz", False), ("custom_not_frame", True)):
        n, L = ZAK_SHAPES[rng.integers(len(ZAK_SHAPES))]
        phi = _custom_window(rng, n, L, vanish)
        cases.append(_zak_case(name, rng, {"preset": "custom"}, n, L, phi))
    return cases


def _heisenberg_case(name, rng, eps: float, d: int) -> Case:
    cfg = {
        "mode": "heisenberg",
        "seed": _seed(rng),
        "tolerances": dict(TOLERANCES),
        "heisenberg": {"eps": eps, "d": d, **LATTICE},
    }
    s = LATTICE["spectral_resolution"]
    alpha = (np.arange(s) + 0.5) / s
    w = np.where(alpha > eps, alpha**d, 0.0)
    supp = w > SUPPORT_ETA
    lo, hi = float(w[supp].min()), float(w[supp].max())
    support = int(supp.sum())
    sizes = _sizes(s, 1, 0, support, 0, _matrix_bytes(s, 1, support), 0)
    verdict = "frame" if lo > TOLERANCES["verdict"] else "not_frame"
    return Case(name, cfg, verdict, (lo, hi), sizes=sizes)


def _folded_weight(preset: str, n: int, radius: int) -> np.ndarray:
    """Periodized weight sum_k |fhat(x_i + k)|^2 over the sampled band."""
    x = np.arange(n) / n
    w = np.zeros(n)
    for k in range(-radius, radius):
        xi = x + k
        if preset == "indicator":
            w += ((xi >= 0) & (xi < 1)).astype(float)
        elif preset == "wide-indicator":
            w += ((xi >= 0) & (xi < 2)).astype(float) / 2.0
        else:
            w += math.sqrt(2.0) * np.exp(-2 * math.pi * xi**2)
    return w


def _shiftinv_case(name, rng, preset: str, radius: int) -> Case:
    n = SHIFTINV_N
    cfg = {
        "mode": "shiftinv",
        "seed": _seed(rng),
        "tolerances": dict(TOLERANCES),
        "generator": {"preset": preset, "grid_size": n, "radius": radius},
    }
    w = _folded_weight(preset, n, radius)
    lo, hi = float(w.min()), float(w.max())
    support = int(np.count_nonzero(w > SUPPORT_ETA))
    sizes = _sizes(n, 1, 0, support, 0, _matrix_bytes(n, 1, support), 0)
    return Case(name, cfg, _verdict(lo, hi), (lo, hi), sizes=sizes)


def lattice(seed: int) -> list:
    """heisenberg at resolution 65536, plus shiftinv with built-in generators.

    The two heisenberg configs take eps = 1/2 - delta and 1/2 + delta, so
    their support sizes, and with them the analysis-matrix work, add up to
    about the same total whatever delta the seed draws.
    """
    rng = np.random.default_rng([seed, 3])
    delta = float(rng.uniform(0.05, 0.3))
    return [
        _heisenberg_case("heisenberg_wide", rng, 0.5 - delta, int(rng.integers(1, 9))),
        _heisenberg_case("heisenberg_narrow", rng, 0.5 + delta, int(rng.integers(1, 9))),
        _shiftinv_case("indicator", rng, "indicator", int(rng.integers(1, 5))),
        _shiftinv_case("wide_indicator", rng, "wide-indicator", int(rng.integers(2, 5))),
        # radius >= 2 keeps the Gaussian's band tail under framelab's 1e-6 refusal limit
        _shiftinv_case("gaussian", rng, "gaussian", int(rng.integers(2, 7))),
    ]


WORKLOADS = {"grid": grid, "gabor": gabor, "lattice": lattice}


def write_samples(path: Path, samples: np.ndarray) -> None:
    """Window samples as a ``re,im`` CSV that round-trips every digit."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh, lineterminator="\n")
        wr.writerow(("re", "im"))
        for v in samples:
            wr.writerow((f"{v.real:.17g}", f"{v.imag:.17g}"))


def _close(got, want, exact: bool) -> bool:
    if exact or not isinstance(got, (int, float)):
        return got == want
    return abs(got - want) <= BOUND_RTOL * max(1.0, abs(want))


def check(case: Case, code: int, report: dict | None) -> list:
    """Problems with one run's output; an empty list means it is correct."""
    if code != 0:
        return [f"exit code {code}"]
    if report is None:
        return ["report.json missing or unreadable"]
    problems = []
    if report.get("verdict") != case.verdict:
        problems.append(f"verdict {report.get('verdict')!r}, expected {case.verdict!r}")
    got = (report.get("bounds") or {}).get("weight")
    if (
        not isinstance(got, list)
        or len(got) != 2
        or not all(_close(g, w, case.exact) for g, w in zip(got, case.weight_bounds))
    ):
        problems.append(f"bounds.weight {got}, expected {list(case.weight_bounds)}")
    tol = TOLERANCES["consistency"]
    for key, val in (report.get("residuals") or {}).items():
        if "_vs_" in key and not (isinstance(val, (int, float)) and val <= tol):
            problems.append(f"residual {key} = {val} exceeds {tol}")
    wit = report.get("witness") or {}
    for key, want in case.witness.items():
        if wit.get(key) != want:
            problems.append(f"witness.{key} {wit.get(key)!r}, expected {want!r}")
    if case.witness_ratio_below is not None:
        ratio = wit.get("ratio")
        if not (isinstance(ratio, (int, float)) and ratio < case.witness_ratio_below):
            problems.append(
                f"witness.ratio {ratio!r} not below claim {case.witness_ratio_below}"
            )
    return problems
