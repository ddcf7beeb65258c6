"""Config-driven command line front end.

A JSON config selects one mode and its inputs; the run writes a
deterministic ``report.json`` plus CSV tables into the output directory.
Identical config and seed produce byte-identical reports.

Exit codes:
    0  computed, all cross checks within the consistency tolerance
    2  computed, but a cross check exceeded the tolerance, or is missing or
       null; each failing check is named on stderr
    1  invalid config, unreadable input, unwritable output, or a
       truncation refusal

The cross checks are the ``_vs_`` residuals that ``MODES`` declares for the
mode, each comparing two independent routes to one quantity; a non-finite
one is written as ``null``.  All other residuals and metrics are informational.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from collections import namedtuple
from pathlib import Path

import numpy as np

from . import __version__
from .analyzer import VERDICT_TOL, Verdict, _multiset_gap, classify, decide_frame
from .errors import ConsistencyError
from .heisenberg import (
    K_MAX,
    RESOLUTION,
    SPECTRAL_RESOLUTION,
    CenterTranslateModel,
    _band_report,
    _band_space,
    isometry_residual,
    midpoint_grid,
    psi_norm_sq,
)
from .operators import OperatorFamily
from .shiftinv import (
    GENERATOR_RADIUS,
    Generator,
    _check_window,
    _gabor_riesz_check,
    _quasiperiodicity_residual,
    gabor_window,
    make_generator,
    periodized_weight,
    translate_gram_spectrum,
    zak_transform,
)
from .tensor_onb import TensorBasis, build_default
from .wspace import WeightedSpace, _Normals, total_mass


# ---------------------------------------------------------------- config
#
# Every config key has one rule in the table below.  A rule is called as
# ``rule(value, path, diags)`` with the raw value (``_MISSING`` when the key
# is absent) and the key's dotted path.  It returns the typed value with its
# default filled in, or appends a diagnostic that starts with the path.
# Rules that tie several keys together run afterwards, in the mode's build
# (``MODES``), which then reads any custom samples and builds what the run
# computes on, so that validation refuses whatever a build would.

_MISSING = object()
_REQUIRED = object()


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _finite(x) -> bool:
    # abs(x) <= max compares an int exactly, where isfinite would overflow
    return (_is_int(x) or isinstance(x, float)) and abs(x) <= sys.float_info.max


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _leaf(ok, cast, default, what: str):
    def rule(value, path, diags):
        if value is _MISSING and default is not _REQUIRED:
            return default
        if ok(value):
            return cast(value)
        diags.append(f"{path}: must be {what}")
    return rule


def _int(lo: int, hi: int | None = None, default=_REQUIRED):
    what = f"an integer >= {lo}" if hi is None else f"an integer in [{lo}, {hi}]"
    return _leaf(
        lambda v: _is_int(v) and lo <= v and (hi is None or v <= hi), int, default, what
    )


def _num(default=_REQUIRED, ok=lambda v: True, what: str = "a finite number"):
    return _leaf(lambda v: _finite(v) and ok(v), float, default, what)


def _positive(default=_REQUIRED):
    return _num(default, lambda v: v > 0, "a positive finite number")


def _obj(rules: dict, tag: str | None = None, optional: bool = False):
    """Object rule that refuses unknown keys.  With a ``tag``, ``rules``
    maps each allowed value of that key to the rules of the other keys.
    An ``optional`` object defaults to ``{}``."""

    def rule(value, path, diags):
        if value is _MISSING and optional:
            value = {}
        if not isinstance(value, dict):
            diags.append(f"{path or 'config'}: must be a JSON object")
            return None
        keys, out = rules, {}
        if tag is not None:
            choice = value.get(tag)
            if not (isinstance(choice, str) and choice in rules):
                diags.append(f"{_join(path, tag)}: must be one of {', '.join(rules)}")
                return None
            keys, out = rules[choice], {tag: choice}
        for key, sub in keys.items():
            out[key] = sub(value.get(key, _MISSING), _join(path, key), diags)
        diags.extend(
            f"{_join(path, k)}: unknown key" for k in value if k not in keys and k != tag
        )
        return out

    return rule


_FLOATS = _leaf(
    lambda v: isinstance(v, list) and all(map(_finite, v)),
    lambda v: [float(x) for x in v],
    _REQUIRED,
    "a list of finite numbers",
)
_INLINE_WEIGHT = _obj({"inline": _FLOATS})
_PRESET_WEIGHT = _obj(
    {
        "constant": {"value": _num(1.0)},
        "step": {
            "low": _num(0.5),
            "high": _num(1.0),
            "split": _num(0.5, lambda v: 0.0 <= v <= 1.0, "a number in [0, 1]"),
        },
        "ramp": {"start": _num(0.5), "stop": _num(1.5)},
    },
    tag="preset",
)


def _weight(value, path, diags):
    """A weight is ``{"inline": [...]}`` or one of the presets."""
    inline = isinstance(value, dict) and "inline" in value
    return (_INLINE_WEIGHT if inline else _PRESET_WEIGHT)(value, path, diags)


_SAMPLES_PATH = _leaf(lambda v: isinstance(v, str), str, _REQUIRED, "a file path")
_SPACE = _obj({"grid_size": _int(1, 512), "fiber_dim": _int(1, 16, 1), "weight": _weight})
# Without a radius, a preset generator takes GENERATOR_RADIUS[preset] in its build.
_GEN_KEYS = {"grid_size": _int(2, 256), "radius": _int(1, 16, None)}
_GENERATOR = _obj(
    {
        **{preset: _GEN_KEYS for preset in GENERATOR_RADIUS},
        "custom": {**_GEN_KEYS, "samples_path": _SAMPLES_PATH},
    },
    tag="preset",
)
_WINDOW = _obj(
    {"indicator": {}, "gaussian": {}, "custom": {"samples_path": _SAMPLES_PATH}},
    tag="preset",
)
_HEISENBERG = _obj(
    {
        "eps": _num(ok=lambda v: 0.0 < v < 1.0, what="a number strictly between 0 and 1"),
        "d": _int(1, 64, 1),
        "resolution": _int(2, 65536, RESOLUTION),
        "spectral_resolution": _int(2, 1024, SPECTRAL_RESOLUTION),
        "k_max": _int(0, 64, K_MAX),
    }
)
_TOLERANCE = _positive(VERDICT_TOL)
_COMMON = {
    "seed": _int(0, default=0),
    "tolerances": _obj({"consistency": _TOLERANCE, "verdict": _TOLERANCE}, optional=True),
}


def _space_from(section: dict) -> WeightedSpace:
    """The weighted space of a typed ``space`` section."""
    n, weight = section["grid_size"], section["weight"]
    if "inline" in weight:
        w = np.asarray(weight["inline"], dtype=float)
    elif weight["preset"] == "constant":
        w = np.full(n, weight["value"])
    elif weight["preset"] == "step":
        w = np.full(n, weight["high"])
        w[: int(round(weight["split"] * n))] = weight["low"]
    else:
        w = np.linspace(weight["start"], weight["stop"], n)
    return WeightedSpace(n, section["fiber_dim"], w)


def _check_samples(cfg: dict, where: str, expect: int, rule: str, diags: list):
    """The samples of the CSV that the key path ``where`` names, which must
    hold the ``expect`` finite samples that ``rule`` needs; None for a file
    that does not parse.  The one rule that reads a file."""
    section, key = where.split(".")
    try:
        samples = _load_samples(cfg[section][key])
    except OSError:
        diags.append(f"{where}: must name a readable file")
    except ValueError as exc:
        diags.append(f"{where}: {exc}")
    else:
        bad = np.flatnonzero(~np.isfinite(samples))
        if bad.size:
            diags.append(f"{where}: sample {bad[0] + 1} is not finite")
        if samples.size != expect:
            diags.append(f"{where}: holds {samples.size} samples, {rule} needs {expect}")
        return samples


def _attempt(diags: list, where: str, build, *args):
    """``build(*args)``, or None with the ValueError it raises (a
    TruncationError included) as a diagnostic under ``where``."""
    try:
        return build(*args)
    except ValueError as exc:
        diags.append(f"{where}: {exc}")


def _build_space(cfg: dict, diags: list):
    """The weighted space of a ``space`` section."""
    space = cfg["space"]
    n, inline = space["grid_size"], space["weight"].get("inline")
    if inline is None or len(inline) == n:
        return _attempt(diags, "space", _space_from, space)
    diags.append(f"space.weight.inline: has length {len(inline)}, expected {n}")


def _generator_inputs(g: dict, samples) -> tuple:
    """The generator of a ``generator`` section and the space of its
    periodized weight."""
    if samples is not None:
        gen = Generator(samples, g["radius"], g["grid_size"])
    else:
        gen = make_generator(g["preset"], g["grid_size"], g["radius"])
    return gen, WeightedSpace(gen.grid_size, 1, periodized_weight(gen))


def _build_generator(cfg: dict, diags: list):
    """The ``_generator_inputs`` of the typed config; fills the radius of a
    preset generator."""
    g, samples = cfg["generator"], None
    if g["radius"] is None and g["preset"] == "custom":
        diags.append("generator.radius: required for custom samples")
    elif g["radius"] is None:
        g["radius"] = GENERATOR_RADIUS[g["preset"]]
    elif g["preset"] == "wide-indicator" and g["radius"] < 2:
        diags.append("generator.radius: wide-indicator needs radius >= 2")
    if not diags and g["preset"] == "custom":
        expect, rule = 2 * g["radius"] * g["grid_size"], "2 * radius * grid_size"
        samples = _check_samples(cfg, "generator.samples_path", expect, rule, diags)
    if not diags:
        return _attempt(diags, "generator", _generator_inputs, g, samples)


def _build_window(cfg: dict, diags: list):
    """The window samples of a Gabor system."""
    N, L, window = cfg["time_resolution"], cfg["translates"], cfg["window"]
    if N * L > 2048:
        diags.append("time_resolution * translates must not exceed 2048")
    elif window["preset"] != "custom":
        return _attempt(diags, "window", gabor_window, window["preset"], N, L)
    else:
        where, rule = "window.samples_path", "time_resolution * translates"
        samples = _check_samples(cfg, where, N * L, rule, diags)
        if not diags:  # the window rules of the routes, at validation
            _attempt(diags, where, _check_window, samples, N, L)
            return samples


def _build_heisenberg(cfg: dict, diags: list) -> tuple:
    """The model and band space of a ``heisenberg`` section."""
    h = cfg["heisenberg"]
    eps, d = h["eps"], h["d"]
    args = (eps, d, h["resolution"], h["k_max"])
    model = _attempt(diags, "heisenberg: resolution grid", CenterTranslateModel, *args)
    where = "heisenberg: spectral_resolution grid"
    return model, _attempt(diags, where, _band_space, eps, d, h["spectral_resolution"])


class _Checked(dict):
    """A typed config with the ``inputs`` its runner computes on, so that
    ``run_config`` builds and reads nothing again."""

    inputs: object


def check_config(config) -> tuple:
    """(typed config, diagnostics); the config can run exactly when the list
    is empty, and each diagnostic starts with the dotted path of the key it
    names.

    The typed config has every default filled, and it is echoed into the
    report, so a run can be reproduced from its own output: checking it
    again gives it back.  A config that can run comes back as a
    ``_Checked`` holding its runner's inputs, built here once (a custom
    samples CSV is read here too), so that validation refuses whatever a
    build would; ``run_config`` takes it as it is.

    Raises:
        ConsistencyError: if the closed-form guard of a build fails (the
            lattice sum of the ``heisenberg`` weight).
    """
    diags: list = []
    cfg = _CONFIG(config, "", diags)
    if not diags:
        inputs = MODES[cfg["mode"]].build(cfg, diags)
    if not diags:
        cfg = _Checked(cfg)
        cfg.inputs = inputs
    return cfg, diags


def _load_samples(path: str) -> np.ndarray:
    """Complex samples from a CSV with rows re[,im], after a header row if
    the first row's first field is not a number."""
    with open(path, newline="") as fh:
        records = [record for record in csv.reader(fh) if record]
    try:
        float(records[0][0])
    except (IndexError, ValueError):
        records = records[1:]  # no rows, or a header row
    rows = []
    for record in records:
        try:  # a third field makes complex() raise TypeError
            rows.append(complex(*map(float, record)))
        except (TypeError, ValueError):
            raise ValueError(f"{path}: malformed sample row {record!r}") from None
    if not rows:
        raise ValueError(f"{path}: no samples found")
    return np.asarray(rows, dtype=complex)


# ---------------------------------------------------------------- output


def _plain(x):
    if isinstance(x, Verdict):
        return x.value
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)):  # null for a non-finite value
        return float(x) if np.isfinite(x) else None
    if isinstance(x, (np.ndarray, list, tuple)):
        return [_plain(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _plain(v) for k, v in x.items()}
    return x


def _table(header, *columns) -> tuple:
    """A CSV table: its header and its equal-length columns, as arrays."""
    return header, tuple(map(np.asarray, columns))


def _csv_text(header, columns) -> str:
    """The CSV text of a table, through one row format for the whole table:
    ``%d`` for an integer column, ``%.17g`` (which round-trips) for a float
    column."""
    row = ",".join("%d" if c.dtype.kind in "iu" else "%.17g" for c in columns) + "\n"
    body = "".join(map(row.__mod__, zip(*(c.tolist() for c in columns))))
    return ",".join(header) + "\n" + body


def _weight_tables(xs, w, xname: str = "x") -> dict:
    """The tables of a run with node weights: ``weight.csv`` alone."""
    return {"weight.csv": _table(("index", xname, "weight"), np.arange(len(w)), xs, w)}


def _witness(rep, tables: dict) -> dict:
    """Report entry of the witness of ``rep``; adds ``witness.csv`` to
    ``tables``: the run's ``weight.csv`` plus the fiber norm of the field at
    every node."""
    if rep.witness is None:
        return {"exists": False}
    ratio = rep.residuals.get("witness_ratio", rep.residuals.get("onb_defect_ratio"))
    norms = np.linalg.norm(rep.witness.values, axis=1)
    size = int(np.count_nonzero(norms))
    header, columns = tables["weight.csv"]
    tables["witness.csv"] = (header + ("norm",), columns + (norms,))
    return {"exists": True, "support_size": size, "ratio": float(ratio)}


# ---------------------------------------------------------------- modes
#
# Each mode is declared once, in ``MODES``: its config keys besides
# ``_COMMON``, its build, its runner, and the cross checks (``_vs_``
# residuals) that each of its reports holds.  A runner maps a typed config
# and its inputs to (FrameReport, residuals, metrics, tables), builds no
# input and touches no file; ``tables`` maps a CSV file name to its header
# and columns.  ``run_config`` adds the witness and writes everything.


def _run_analyze(cfg: dict, space: WeightedSpace) -> tuple:
    fam = OperatorFamily(space, build_default(space.grid_size))
    rep = classify(fam, tol=cfg["tolerances"]["verdict"], rng=_Normals(cfg["seed"]))
    metrics = {
        "total_mass": total_mass(space),
        "support_fraction": float(space.support.mean()),
    }
    return rep, rep.residuals, metrics, _weight_tables(space.grid, space.weights)


def _run_witness(cfg: dict, space: WeightedSpace) -> tuple:
    fam = OperatorFamily(space, build_default(space.grid_size))
    rep = decide_frame(fam, tol=cfg["tolerances"]["verdict"], claim=cfg["a_claimed"])
    metrics = {"a_claimed": cfg["a_claimed"], "total_mass": total_mass(space)}
    return rep, rep.residuals, metrics, _weight_tables(space.grid, space.weights)


def _run_shiftinv(cfg: dict, inputs: tuple) -> tuple:
    gen, space = inputs
    n = np.arange(gen.grid_size)
    basis = TensorBasis.fourier(-n, n, gen.grid_size)
    fam = OperatorFamily(space, basis)
    rep = classify(fam, tol=cfg["tolerances"]["verdict"], rng=_Normals(cfg["seed"]))
    residuals = dict(rep.residuals)
    mass = total_mass(space)
    # the time-side quadrature of |phi|^2 at spacing 1/(2R), against the
    # frequency-side fold: the two meet only through Parseval
    norm_sq = float((np.abs(gen.time_samples) ** 2).sum() / (2 * gen.radius))
    residuals["mass_vs_norm"] = abs(mass - norm_sq) / max(
        norm_sq, np.finfo(float).tiny
    )
    metrics = {
        "total_mass": mass,
        "window_norm_sq": norm_sq,
        "decay_tail": gen.decay_tail,
        "translate_count": gen.grid_size,
    }
    residuals["translate_gram_vs_weight"] = _multiset_gap(
        np.sort(space.weights), translate_gram_spectrum(gen)
    )
    return rep, residuals, metrics, _weight_tables(space.grid, space.weights)


def _run_zak(cfg: dict, phi: np.ndarray) -> tuple:
    N, L = cfg["time_resolution"], cfg["translates"]
    # one transform for the check, the CSV and the residual's unshifted side
    zak = zak_transform(phi, N, L)
    rep = _gabor_riesz_check(zak, phi, cfg["tolerances"]["verdict"])
    zsq = np.abs(zak.values) ** 2
    j, m = np.indices((N, L))
    header = ("time_index", "freq_index", "magnitude_sq")
    tables = {"zak_magnitude.csv": _table(header, j.ravel(), m.ravel(), zsq.ravel())}
    metrics = {
        "zak_min_sq": rep.weight_bounds[0],
        "zak_max_sq": rep.weight_bounds[1],
        "quasiperiodicity": _quasiperiodicity_residual(zak, phi),
    }
    return rep, rep.residuals, metrics, tables


def _run_heisenberg(cfg: dict, inputs: tuple) -> tuple:
    model, space = inputs
    mass = psi_norm_sq(model.eps, model.d)
    lo, hi = model.envelope()
    rep = _band_report(space, cfg["tolerances"]["verdict"])
    rng = _Normals(cfg["seed"])
    k = 2 * model.k_max + 1
    coeffs = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    residuals = dict(rep.residuals)
    residuals["isometry_vs_translate_gram"] = isometry_residual(model, coeffs)
    metrics = {"band_mass": mass, "envelope_lo": lo, "envelope_hi": hi}
    alpha = midpoint_grid(space.grid_size)
    return rep, residuals, metrics, _weight_tables(alpha, space.weights, "alpha")


_Mode = namedtuple("_Mode", "keys build run checks")
_SPECTRAL = ("gram_vs_weight", "spectrum_vs_weight")
MODES = {
    "analyze": _Mode({"space": _SPACE}, _build_space, _run_analyze, _SPECTRAL),
    "witness": _Mode(
        {"space": _SPACE, "a_claimed": _positive()},
        _build_space, _run_witness, ("spectrum_vs_weight",),
    ),
    "shiftinv": _Mode(
        {"generator": _GENERATOR}, _build_generator, _run_shiftinv,
        (*_SPECTRAL, "mass_vs_norm", "translate_gram_vs_weight"),
    ),
    "zak": _Mode(
        {"window": _WINDOW, "time_resolution": _int(2), "translates": _int(2)},
        _build_window, _run_zak, ("zak_vs_gram",),
    ),
    "heisenberg": _Mode(
        {"heisenberg": _HEISENBERG}, _build_heisenberg, _run_heisenberg,
        ("isometry_vs_translate_gram", "spectrum_vs_weight"),
    ),
}
_CONFIG = _obj({mode: {**_COMMON, **m.keys} for mode, m in MODES.items()}, tag="mode")


def _failed_checks(doc: dict) -> list:
    """(name, value) of each check that ``MODES`` declares for the report's
    mode, sorted, above its tolerance; a missing or null check has value nan."""
    tol, got = doc["config"]["tolerances"]["consistency"], doc["residuals"]
    checks = sorted(MODES[doc["mode"]].checks)
    values = [(k, np.nan if got.get(k) is None else got[k]) for k in checks]
    return [(k, v) for k, v in values if not v <= tol]


class _Exit(int):
    """An exit code that also carries the report document of its run."""

    doc: dict


def run_config(config: dict, out_dir) -> int:
    """Execute a validated config; write report and tables; return exit code.

    The only writer: every CSV table, ``spectrum.csv`` from the report's
    spectrum, and ``report.json``.  The code also carries the written
    document as ``.doc``, so the caller need not read the file back.  A
    config other than a ``check_config`` result is checked here.

    Raises:
        ValueError: if the config is invalid, listing its diagnostics.
    """
    cfg = config
    if not isinstance(cfg, _Checked):
        cfg, diags = check_config(config)
        if diags:
            raise ValueError("invalid config: " + "; ".join(diags))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rep, residuals, metrics, tables = MODES[cfg["mode"]].run(cfg, cfg.inputs)
    witness = _witness(rep, tables)
    spec = rep.spectrum
    tables["spectrum.csv"] = _table(("index", "eigenvalue"), np.arange(spec.size), spec)
    for name, (header, columns) in tables.items():
        (out / name).write_text(_csv_text(header, columns), newline="")
    bounds = {
        "weight": rep.weight_bounds,
        "oracle": rep.oracle_bounds,
        "gram": rep.gram_bounds,
    }
    doc = _plain(
        {
            "tool": {"name": "framelab", "version": __version__},
            "mode": cfg["mode"],
            "verdict": rep.verdict,
            "bounds": bounds,
            "residuals": residuals,
            "metrics": metrics,
            "witness": witness,
            "config": cfg,
        }
    )
    text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)
    (out / "report.json").write_text(text + "\n")
    code = _Exit(2 if _failed_checks(doc) else 0)
    code.doc = doc
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="framelab",
        description="Frame analysis of weighted grids, translate systems, "
        "and Gabor windows from a JSON config.",
    )
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--out", default=".", help="output directory (default: .)")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument(
        "--tol", type=float, default=None, help="override the verdict tolerance"
    )
    parser.add_argument(
        "--validate-only",
        action="store_true",
        help="check the config and exit without running",
    )
    args = parser.parse_args(argv)

    try:
        raw = json.loads(Path(args.config).read_text())
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return 1

    if isinstance(raw, dict):
        if args.seed is not None:
            raw["seed"] = args.seed
        # a non-object ``tolerances`` is left for validation to name
        if args.tol is not None and isinstance(raw.setdefault("tolerances", {}), dict):
            raw["tolerances"]["verdict"] = args.tol

    try:
        cfg, diags = check_config(raw)
        for diag in diags:
            print(f"config error: {diag}", file=sys.stderr)
        if args.validate_only:
            if not diags:
                print("config ok")
            return 0 if not diags else 1
        if diags:
            return 1
        code = run_config(cfg, args.out)
    except ConsistencyError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # an --out that names a file, or a path under one
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # LinAlgError included
        print(f"error: {exc}", file=sys.stderr)
        return 1
    doc = code.doc
    tol = doc["config"]["tolerances"]["consistency"]
    for name, value in _failed_checks(doc):
        print(
            f"check failed: {name} = {value:.6e} exceeds tolerance {tol:.6e}",
            file=sys.stderr,
        )
    print(f"verdict: {doc['verdict']}")
    print(f"report: {Path(args.out) / 'report.json'}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
