"""Config-driven command line front end.

A JSON config selects one mode and its inputs; the run writes a
deterministic ``report.json`` plus CSV tables into the output directory.
Identical config and seed produce byte-identical reports.

Exit codes:
    0  computed, all cross checks within the consistency tolerance
    2  computed, but an oracle cross check exceeded the tolerance; each
       failing check is named on stderr with its value and tolerance
    1  invalid config, unreadable input, or a truncation refusal

Residual keys containing ``_vs_`` are the cross checks: each compares two
independent evaluation routes for the same quantity and feeds the exit
code.  All other residuals and metrics are informational.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analyzer import Verdict, classify, decide_frame
from .errors import ConsistencyError
from .heisenberg import (
    CenterTranslateModel,
    _band_report,
    _check_band,
    hs_weight,
    isometry_residual,
    midpoint_grid,
    psi_norm_sq,
)
from .operators import OperatorFamily
from .shiftinv import (
    GENERATOR_RADIUS,
    Generator,
    _gabor_riesz_check,
    _quasiperiodicity_residual,
    gabor_window,
    make_generator,
    periodized_weight,
    translate_gram,
    zak_transform,
)
from .tensor_onb import TensorBasis, build_default, fourier_family
from .wspace import WeightedSpace, total_mass


# ---------------------------------------------------------------- config
#
# Every config key has one rule in the table below.  A rule is called as
# ``rule(value, path, diags)`` with the raw value (``_MISSING`` when the key
# is absent) and the key's dotted path.  It returns the typed value with its
# default filled in, or appends a diagnostic that starts with the path.
# Rules that tie several keys together run afterwards, in ``_check_cross``,
# on the typed config.

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
# Without a radius, a preset generator takes GENERATOR_RADIUS[preset] in _check_cross.
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
        "resolution": _int(2, 65536, 4096),
        "spectral_resolution": _int(2, 1024, 256),
        "k_max": _int(0, 64, 4),
    }
)
_TOLERANCE = _positive(1e-9)
_COMMON = {
    "seed": _int(0, default=0),
    "tolerances": _obj({"consistency": _TOLERANCE, "verdict": _TOLERANCE}, optional=True),
}
_CONFIG = _obj(
    {
        "analyze": {**_COMMON, "space": _SPACE},
        "witness": {**_COMMON, "space": _SPACE, "a_claimed": _positive()},
        "shiftinv": {**_COMMON, "generator": _GENERATOR},
        "zak": {
            **_COMMON,
            "window": _WINDOW,
            "time_resolution": _int(2),
            "translates": _int(2),
        },
        "heisenberg": {**_COMMON, "heisenberg": _HEISENBERG},
    },
    tag="mode",
)


def _build_weight(weight: dict, n: int) -> np.ndarray:
    """Materialize a normalized weight section into an (n,) array."""
    if "inline" in weight:
        return np.asarray(weight["inline"], dtype=float)
    preset = weight["preset"]
    if preset == "constant":
        return np.full(n, weight["value"])
    if preset == "step":
        w = np.full(n, weight["high"])
        w[: int(round(weight["split"] * n))] = weight["low"]
        return w
    return np.linspace(weight["start"], weight["stop"], n)


def _space_from(section: dict) -> WeightedSpace:
    n = section["grid_size"]
    return WeightedSpace(n, section["fiber_dim"], _build_weight(section["weight"], n))


def _check_cross(cfg: dict, diags: list) -> None:
    """Rules that tie keys together, on the typed config with its defaults
    filled; also fills the radius of a preset generator."""
    space = cfg.get("space")
    if space is not None:
        n, inline = space["grid_size"], space["weight"].get("inline")
        if inline is not None and len(inline) != n:
            diags.append(f"space.weight.inline: has length {len(inline)}, expected {n}")
        else:
            try:
                _space_from(space)
            except ValueError as exc:
                diags.append(f"space: {exc}")
    gen = cfg.get("generator")
    if gen is not None:
        if gen["radius"] is None and gen["preset"] == "custom":
            diags.append("generator.radius: required for custom samples")
        elif gen["radius"] is None:
            gen["radius"] = GENERATOR_RADIUS[gen["preset"]]
        elif gen["preset"] == "wide-indicator" and gen["radius"] < 2:
            diags.append("generator.radius: wide-indicator needs radius >= 2")
    h = cfg.get("heisenberg")
    if h is not None:
        for key in ("resolution", "spectral_resolution"):
            try:
                _check_band(h["eps"], h["d"], h[key])
            except ValueError as exc:
                diags.append(f"heisenberg: {key} grid: {exc}")
    if cfg["mode"] == "zak" and cfg["time_resolution"] * cfg["translates"] > 2048:
        diags.append("time_resolution * translates must not exceed 2048")


def _walk(config) -> tuple:
    """(typed config, diagnostics); the config is whole only when there
    are no diagnostics."""
    diags: list = []
    cfg = _CONFIG(config, "", diags)
    if not diags:
        _check_cross(cfg, diags)
    return cfg, diags


def _custom_section(cfg: dict) -> dict | None:
    sec = cfg.get("window") or cfg.get("generator")
    return sec if sec is not None and sec["preset"] == "custom" else None


def _check_samples(cfg: dict, diags: list) -> np.ndarray | None:
    """The samples of a custom window or generator, which must parse and
    hold exactly the finite samples that its sizes need; None for a preset
    or a file that does not parse.  The one rule that reads a file."""
    sec = _custom_section(cfg)
    if sec is None:
        return None
    if cfg["mode"] == "zak":
        where, rule = "window.samples_path", "time_resolution * translates"
        expect = cfg["time_resolution"] * cfg["translates"]
    else:
        where, rule = "generator.samples_path", "2 * radius * grid_size"
        expect = 2 * sec["radius"] * sec["grid_size"]
    try:
        samples = _load_samples(sec["samples_path"])
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


class _Checked(dict):
    """A typed config with the ``samples`` of its custom window or generator
    (None for a preset), so that ``run_config`` reads no CSV again."""

    samples: np.ndarray | None


def check_config(config) -> tuple:
    """(typed config, diagnostics) of ``validate_config``.  Past the key rules
    the config is a ``_Checked``, which ``run_config`` takes as it is."""
    cfg, diags = _walk(config)
    if not diags:
        cfg = _Checked(cfg)
        cfg.samples = _check_samples(cfg, diags)
    return cfg, diags


def validate_config(config) -> list:
    """Collect diagnostics; an empty list means the config can run.

    Each diagnostic starts with the dotted path of the key it names.
    """
    return check_config(config)[1]


def normalize_config(config) -> dict:
    """Canonical config with defaults filled; reads no file.

    Normalizing is idempotent, and the result is echoed into the report so
    a run can be reproduced from its own output.

    Raises:
        ValueError: if the config is invalid, listing its diagnostics.
    """
    cfg, diags = _walk(config)
    if diags:
        raise ValueError("invalid config: " + "; ".join(diags))
    return cfg


def _load_samples(path: str) -> np.ndarray:
    """Complex samples from a CSV with columns re[,im]; header optional."""
    rows = []
    with open(path, newline="") as fh:
        for record in csv.reader(fh):
            if not record:
                continue
            try:
                re = float(record[0])
                im = float(record[1]) if len(record) > 1 else 0.0
            except ValueError:
                if rows:
                    raise ValueError(f"{path}: malformed sample row {record!r}")
                continue  # header row
            rows.append(complex(re, im))
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
    if isinstance(x, (float, np.floating)):
        return float(x)
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


def _weight_table(xs, w, xname: str = "x") -> tuple:
    return _table(("index", xname, "weight"), np.arange(len(w)), xs, w)


def _witness(rep, weights: tuple) -> tuple:
    """Report entry and tables of the witness of ``rep``: ``weight.csv`` is
    the run's weight table, and ``witness.csv`` adds the fiber norm of the
    field at every node."""
    tables = {"weight.csv": weights}
    if rep.witness is None:
        return {"exists": False}, tables
    ratio = rep.residuals.get("witness_ratio", rep.residuals.get("onb_defect_ratio"))
    norms = np.linalg.norm(rep.witness.values, axis=1)
    size = int(np.count_nonzero(norms))
    entry = {"exists": True, "support_size": size, "ratio": float(ratio)}
    header, columns = weights
    tables["witness.csv"] = (header + ("norm",), columns + (norms,))
    return entry, tables


# ---------------------------------------------------------------- modes
#
# A runner maps a typed config and its custom samples (None for a preset) to
# (FrameReport, residuals, metrics, witness entry, tables) and touches no file;
# ``tables`` maps a CSV file name to its header and columns.  ``run_config``
# writes everything.


def _classified(cfg: dict, fam: OperatorFamily) -> tuple:
    """``classify`` ``fam``: the report, its witness entry and tables."""
    rng = np.random.default_rng(cfg["seed"])
    rep = classify(fam, tol=cfg["tolerances"]["verdict"], rng=rng)
    return (rep, *_witness(rep, _weight_table(fam.space.grid, fam.space.weights)))


def _run_analyze(cfg: dict, samples) -> tuple:
    space = _space_from(cfg["space"])
    fam = OperatorFamily(space, build_default(space.grid_size, space.fiber_dim))
    rep, witness, tables = _classified(cfg, fam)
    metrics = {
        "total_mass": total_mass(space),
        "support_fraction": float(space.support.mean()),
    }
    return rep, rep.residuals, metrics, witness, tables


def _run_witness(cfg: dict, samples) -> tuple:
    space = _space_from(cfg["space"])
    fam = OperatorFamily(space, build_default(space.grid_size, space.fiber_dim))
    tol = cfg["tolerances"]["verdict"]
    rep = decide_frame(fam, tol=tol, claim=cfg["a_claimed"])
    witness, tables = _witness(rep, _weight_table(space.grid, space.weights))
    metrics = {"a_claimed": cfg["a_claimed"], "total_mass": total_mass(space)}
    return rep, rep.residuals, metrics, witness, tables


def _run_shiftinv(cfg: dict, samples) -> tuple:
    g = cfg["generator"]
    if samples is not None:
        gen = Generator(samples, g["radius"], g["grid_size"])
    else:
        gen = make_generator(g["preset"], g["grid_size"], g["radius"])
    w = periodized_weight(gen)
    space = WeightedSpace(gen.grid_size, 1, w)
    n = np.arange(gen.grid_size)
    scal = fourier_family(-n, n, gen.grid_size)
    fam = OperatorFamily(space, TensorBasis(scal, np.eye(1, dtype=complex)))
    rep, witness, tables = _classified(cfg, fam)
    residuals = dict(rep.residuals)
    mass = total_mass(space)
    norm_sq = float((np.abs(gen.fhat) ** 2).sum() / gen.grid_size)
    residuals["mass_vs_norm"] = abs(mass - norm_sq) / max(
        norm_sq, np.finfo(float).tiny
    )
    metrics = {
        "total_mass": mass,
        "window_norm_sq": norm_sq,
        "decay_tail": gen.decay_tail,
        "translate_count": gen.grid_size,
        # the dense translate Gram is formed only up to 64 translates
        "translate_gram_checked": gen.grid_size <= 64,
    }
    if metrics["translate_gram_checked"]:
        # the whole sorted multiset, as zak_vs_gram compares it
        eig = np.linalg.eigvalsh(translate_gram(gen))
        scale = max(float(w.max()), float(eig[-1]), np.finfo(float).tiny)
        gap = float(np.max(np.abs(np.sort(w) - eig)))
        residuals["translate_gram_vs_weight"] = gap / scale
    return rep, residuals, metrics, witness, tables


def _run_zak(cfg: dict, samples) -> tuple:
    N, L = cfg["time_resolution"], cfg["translates"]
    phi = samples if samples is not None else gabor_window(cfg["window"]["preset"], N, L)
    tol = cfg["tolerances"]["verdict"]
    # one transform for the check, the CSV and the residual's unshifted side
    zak = zak_transform(phi, N, L)
    rep = _gabor_riesz_check(zak, phi, tol)
    zsq = np.abs(zak.values) ** 2
    j, m = np.indices((N, L))
    header = ("time_index", "freq_index", "magnitude_sq")
    tables = {"zak_magnitude.csv": _table(header, j.ravel(), m.ravel(), zsq.ravel())}
    metrics = {
        "zak_min_sq": float(zsq.min()),
        "zak_max_sq": float(zsq.max()),
        "quasiperiodicity": _quasiperiodicity_residual(zak, phi),
    }
    return rep, rep.residuals, metrics, {"exists": False}, tables


def _run_heisenberg(cfg: dict, samples) -> tuple:
    h = cfg["heisenberg"]
    eps, d = h["eps"], h["d"]
    mass = psi_norm_sq(eps, d)
    model = CenterTranslateModel(eps, d, h["resolution"], h["k_max"])
    lo, hi = model.envelope()
    alpha = midpoint_grid(h["spectral_resolution"])
    space = WeightedSpace(alpha.size, 1, hs_weight(eps, d, alpha))
    rep = _band_report(space, cfg["tolerances"]["verdict"])
    rng = np.random.default_rng(cfg["seed"])
    k = 2 * h["k_max"] + 1
    coeffs = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    residuals = dict(rep.residuals)
    residuals["isometry_vs_translate_gram"] = isometry_residual(model, coeffs)
    witness, tables = _witness(rep, _weight_table(alpha, space.weights, "alpha"))
    metrics = {"band_mass": mass, "envelope_lo": lo, "envelope_hi": hi}
    return rep, residuals, metrics, witness, tables


_RUNNERS = {
    "analyze": _run_analyze,
    "witness": _run_witness,
    "shiftinv": _run_shiftinv,
    "zak": _run_zak,
    "heisenberg": _run_heisenberg,
}


def _failed_checks(doc: dict) -> list:
    """(name, value) of each cross check in a report above its tolerance."""
    tol = doc["config"]["tolerances"]["consistency"]
    return [
        (k, v)
        for k, v in sorted(doc["residuals"].items())
        if "_vs_" in k and not v <= tol
    ]


class _Exit(int):
    """An exit code that also carries the report document of its run."""

    doc: dict


def run_config(config: dict, out_dir) -> int:
    """Execute a validated config; write report and tables; return exit code.

    The only writer: every CSV table, ``spectrum.csv`` from the report's
    spectrum, and ``report.json``.  The code also carries the written
    document as ``.doc``, so the caller need not read the file back.  A
    config other than a ``check_config`` result is normalized here.
    """
    if isinstance(config, _Checked):
        cfg, samples = config, config.samples
    else:
        cfg = normalize_config(config)
        sec = _custom_section(cfg)
        samples = None if sec is None else _load_samples(sec["samples_path"])
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rep, residuals, metrics, witness, tables = _RUNNERS[cfg["mode"]](cfg, samples)
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
    (out / "report.json").write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
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

    cfg, diags = check_config(raw)
    for diag in diags:
        print(f"config error: {diag}", file=sys.stderr)
    if args.validate_only:
        if not diags:
            print("config ok")
        return 0 if not diags else 1
    if diags:
        return 1

    try:
        code = run_config(cfg, args.out)
    except ConsistencyError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # TruncationError included
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
