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
from .analyzer import (
    SUPPORT_ETA,
    Verdict,
    classify,
    decide_frame,
    witness_lower_failure,
    witness_ratio,
)
from .errors import ConsistencyError, TruncationError
from .heisenberg import (
    CenterTranslateModel,
    frame_report,
    hs_weight,
    isometry_residual,
    midpoint_grid,
    psi_norm_sq,
    weight_envelope_check,
)
from .operators import OperatorFamily
from .shiftinv import (
    GENERATOR_RADIUS,
    Generator,
    gabor_riesz_check,
    gabor_window,
    make_generator,
    periodized_weight,
    translate_gram,
    zak_quasiperiodicity_residual,
    zak_transform,
)
from .tensor_onb import TensorBasis, build_default
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
        if n * space["fiber_dim"] > 1024:
            diags.append("space: grid_size * fiber_dim must not exceed 1024")
        elif inline is not None and len(inline) != n:
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


def _check_samples(cfg: dict, diags: list) -> None:
    """A custom samples CSV must parse and hold exactly the samples that
    its sizes need.  The one rule that reads a file."""
    sec = cfg.get("window") or cfg.get("generator")
    if sec is None or sec["preset"] != "custom":
        return
    if cfg["mode"] == "zak":
        where, rule = "window.samples_path", "time_resolution * translates"
        expect = cfg["time_resolution"] * cfg["translates"]
    else:
        where, rule = "generator.samples_path", "2 * radius * grid_size"
        expect = 2 * sec["radius"] * sec["grid_size"]
    try:
        got = _load_samples(sec["samples_path"]).size
    except OSError:
        diags.append(f"{where}: must name a readable file")
    except ValueError as exc:
        diags.append(f"{where}: {exc}")
    else:
        if got != expect:
            diags.append(f"{where}: holds {got} samples, {rule} needs {expect}")


def validate_config(config) -> list:
    """Collect diagnostics; an empty list means the config can run.

    Each diagnostic starts with the dotted path of the key it names.
    """
    cfg, diags = _walk(config)
    if not diags:
        _check_samples(cfg, diags)
    return diags


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
    if isinstance(x, np.ndarray):
        return [_plain(v) for v in x]
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _plain(v) for k, v in x.items()}
    return x


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    return str(v)


def _table(header, *columns) -> tuple:
    """A CSV table: its header and the rows read across equal-length columns."""
    return header, list(zip(*(np.asarray(c).tolist() for c in columns)))


def _weight_table(xs, w, xname: str = "x") -> tuple:
    return _table(("index", xname, "weight"), np.arange(len(w)), xs, w)


def _witness(space: WeightedSpace, field, ratio) -> tuple:
    """Report entry and tables of a witness field (or None) with its energy
    ratio: ``witness.csv`` holds the field's fiber norm at every node."""
    if field is None:
        return {"exists": False}, {}
    norms = np.linalg.norm(field.values, axis=1)
    entry = {
        "exists": True,
        "support_size": int(np.count_nonzero(norms)),
        "ratio": float(ratio),
    }
    header = ("index", "x", "weight", "norm")
    table = _table(header, np.arange(space.grid_size), space.grid, space.weights, norms)
    return entry, {"witness.csv": table}


# ---------------------------------------------------------------- modes
#
# A runner maps a typed config to (FrameReport, residuals, metrics, witness
# entry, tables) and touches no file; ``tables`` maps a CSV file name to
# its header and rows.  ``run_config`` writes everything.


def _classified(cfg: dict, space: WeightedSpace, basis: TensorBasis) -> tuple:
    """``classify`` the family of ``basis`` on ``space``: the report, its
    witness entry (the frame witness, else the ONB defect field) and tables."""
    fam = OperatorFamily(space, basis)
    rng = np.random.default_rng(cfg["seed"])
    rep = classify(space, fam, tol=cfg["tolerances"]["verdict"], rng=rng)
    ratio = rep.residuals.get("witness_ratio", rep.residuals.get("onb_defect_ratio"))
    witness, tables = _witness(space, rep.witness, ratio)
    tables["weight.csv"] = _weight_table(space.grid, space.weights)
    return rep, witness, tables


def _run_analyze(cfg: dict) -> tuple:
    space = _space_from(cfg["space"])
    rep, witness, tables = _classified(
        cfg, space, build_default(space.grid_size, space.fiber_dim)
    )
    metrics = {
        "total_mass": total_mass(space),
        "support_fraction": float((space.weights > SUPPORT_ETA).mean()),
    }
    return rep, rep.residuals, metrics, witness, tables


def _run_witness(cfg: dict) -> tuple:
    space = _space_from(cfg["space"])
    fam = OperatorFamily(space, build_default(space.grid_size, space.fiber_dim))
    rep = decide_frame(space, fam, tol=cfg["tolerances"]["verdict"])
    field = witness_lower_failure(space, fam, cfg["a_claimed"])
    ratio = None if field is None else witness_ratio(space, fam, field)
    witness, tables = _witness(space, field, ratio)
    tables["weight.csv"] = _weight_table(space.grid, space.weights)
    metrics = {"a_claimed": cfg["a_claimed"], "total_mass": total_mass(space)}
    return rep, rep.residuals, metrics, witness, tables


def _run_shiftinv(cfg: dict) -> tuple:
    g = cfg["generator"]
    if g["preset"] == "custom":
        gen = Generator(_load_samples(g["samples_path"]), g["radius"], g["grid_size"])
    else:
        gen = make_generator(g["preset"], g["grid_size"], g["radius"])
    w = periodized_weight(gen)
    space = WeightedSpace(gen.grid_size, 1, w)
    scal = np.exp(-2j * np.pi * np.outer(np.arange(gen.grid_size), space.grid))
    rep, witness, tables = _classified(
        cfg, space, TensorBasis(scal, np.eye(1, dtype=complex))
    )
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
    }
    if gen.grid_size <= 64:
        eig = np.linalg.eigvalsh(translate_gram(gen))
        scale = max(float(w.max()), float(eig[-1]), np.finfo(float).tiny)
        residuals["translate_gram_vs_weight"] = (
            max(abs(float(eig[0]) - w.min()), abs(float(eig[-1]) - w.max())) / scale
        )
    return rep, residuals, metrics, witness, tables


def _run_zak(cfg: dict) -> tuple:
    N, L = cfg["time_resolution"], cfg["translates"]
    if cfg["window"]["preset"] == "custom":
        phi = _load_samples(cfg["window"]["samples_path"])
    else:
        phi = gabor_window(cfg["window"]["preset"], N, L)
    tol = cfg["tolerances"]["verdict"]
    rep = gabor_riesz_check(phi, N, L, tol=tol, onb_tol=tol)
    zsq = np.abs(zak_transform(phi, N, L).values) ** 2
    j, m = np.indices((N, L))
    header = ("time_index", "freq_index", "magnitude_sq")
    tables = {"zak_magnitude.csv": _table(header, j.ravel(), m.ravel(), zsq.ravel())}
    metrics = {
        "zak_min_sq": float(zsq.min()),
        "zak_max_sq": float(zsq.max()),
        "quasiperiodicity": zak_quasiperiodicity_residual(phi, N, L),
    }
    return rep, rep.residuals, metrics, {"exists": False}, tables


def _run_heisenberg(cfg: dict) -> tuple:
    h = cfg["heisenberg"]
    eps, d = h["eps"], h["d"]
    mass = psi_norm_sq(eps, d)
    grid = midpoint_grid(h["resolution"])
    lo, hi = weight_envelope_check(eps, d, grid)
    rep = frame_report(eps, d, h["spectral_resolution"], tol=cfg["tolerances"]["verdict"])
    model = CenterTranslateModel(eps, d, h["resolution"], h["k_max"])
    rng = np.random.default_rng(cfg["seed"])
    k = 2 * h["k_max"] + 1
    coeffs = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    residuals = dict(rep.residuals)
    residuals["isometry_vs_periodization"] = isometry_residual(model, coeffs)
    alpha = midpoint_grid(h["spectral_resolution"])
    tables = {"weight.csv": _weight_table(alpha, hs_weight(eps, d, alpha), "alpha")}
    metrics = {"band_mass": mass, "envelope_lo": lo, "envelope_hi": hi}
    return rep, residuals, metrics, {"exists": False}, tables


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


def run_config(config: dict, out_dir) -> int:
    """Execute a validated config; write report and tables; return exit code.

    The only writer: every CSV table, ``spectrum.csv`` from the report's
    spectrum, and ``report.json``.
    """
    cfg = normalize_config(config)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rep, residuals, metrics, witness, tables = _RUNNERS[cfg["mode"]](cfg)
    spec = rep.spectrum
    tables["spectrum.csv"] = _table(("index", "eigenvalue"), np.arange(spec.size), spec)
    for name, (header, rows) in tables.items():
        with open(out / name, "w", newline="") as fh:
            wr = csv.writer(fh, lineterminator="\n")
            wr.writerow(header)
            wr.writerows([_fmt(v) for v in row] for row in rows)
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
    return 2 if _failed_checks(doc) else 0


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

    diags = validate_config(raw)
    for diag in diags:
        print(f"config error: {diag}", file=sys.stderr)
    if args.validate_only:
        if not diags:
            print("config ok")
        return 0 if not diags else 1
    if diags:
        return 1

    try:
        code = run_config(raw, args.out)
    except TruncationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConsistencyError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report = Path(args.out) / "report.json"
    doc = json.loads(report.read_text())
    tol = doc["config"]["tolerances"]["consistency"]
    for name, value in _failed_checks(doc):
        print(
            f"check failed: {name} = {value:.6e} exceeds tolerance {tol:.6e}",
            file=sys.stderr,
        )
    print(f"verdict: {doc['verdict']}")
    print(f"report: {report}")
    return code


if __name__ == "__main__":
    sys.exit(main())
