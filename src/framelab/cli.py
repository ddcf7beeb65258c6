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
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analyzer import (
    SUPPORT_ETA,
    FrameReport,
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
    time_samples,
    translate_gram,
    zak_quasiperiodicity_residual,
    zak_transform,
)
from .tensor_onb import TensorBasis, build_default
from .wspace import WeightedSpace, total_mass

MODES = ("analyze", "witness", "shiftinv", "zak", "heisenberg")
GENERATOR_PRESETS = ("indicator", "wide-indicator", "gaussian", "custom")
WINDOW_PRESETS = ("indicator", "gaussian", "custom")
DEFAULT_TOLERANCES = {"consistency": 1e-9, "verdict": 1e-9}
HEISENBERG_DEFAULTS = {
    "d": 1,
    "resolution": 4096,
    "spectral_resolution": 256,
    "k_max": 4,
}


# ---------------------------------------------------------------- config


def _is_num(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _build_weight(wcfg: dict, n: int) -> np.ndarray:
    """Materialize a weight section into an (n,) array.

    Raises:
        ValueError: on any malformed preset or inline vector.
    """
    if not isinstance(wcfg, dict):
        raise ValueError("weight must be an object")
    if "inline" in wcfg:
        vals = wcfg["inline"]
        if not isinstance(vals, list) or not all(_is_num(v) for v in vals):
            raise ValueError("weight.inline must be a list of numbers")
        if len(vals) != n:
            raise ValueError(f"weight.inline has length {len(vals)}, expected {n}")
        return np.asarray(vals, dtype=float)
    preset = wcfg.get("preset")
    if preset == "constant":
        v = wcfg.get("value", 1.0)
        if not _is_num(v):
            raise ValueError("weight.value must be a number")
        return np.full(n, float(v))
    if preset == "step":
        low, high = wcfg.get("low", 0.5), wcfg.get("high", 1.0)
        split = wcfg.get("split", 0.5)
        if not (_is_num(low) and _is_num(high) and _is_num(split)):
            raise ValueError("weight.step needs numeric low, high, split")
        if not 0.0 <= split <= 1.0:
            raise ValueError("weight.split must lie in [0, 1]")
        w = np.full(n, float(high))
        w[: int(round(split * n))] = float(low)
        return w
    if preset == "ramp":
        start, stop = wcfg.get("start", 0.5), wcfg.get("stop", 1.5)
        if not (_is_num(start) and _is_num(stop)):
            raise ValueError("weight.ramp needs numeric start, stop")
        return np.linspace(float(start), float(stop), n)
    raise ValueError(
        "weight needs 'inline' or preset in {'constant', 'step', 'ramp'}"
    )


def _normalize_weight(wcfg: dict) -> dict:
    if "inline" in wcfg:
        return {"inline": [float(v) for v in wcfg["inline"]]}
    preset = wcfg["preset"]
    if preset == "constant":
        return {"preset": "constant", "value": float(wcfg.get("value", 1.0))}
    if preset == "step":
        return {
            "preset": "step",
            "low": float(wcfg.get("low", 0.5)),
            "high": float(wcfg.get("high", 1.0)),
            "split": float(wcfg.get("split", 0.5)),
        }
    return {
        "preset": "ramp",
        "start": float(wcfg.get("start", 0.5)),
        "stop": float(wcfg.get("stop", 1.5)),
    }


def _space_from(section: dict) -> WeightedSpace:
    n = int(section["grid_size"])
    m = int(section.get("fiber_dim", 1))
    return WeightedSpace(n, m, _build_weight(section["weight"], n))


def _check_space(section, diags: list, where: str) -> None:
    if not isinstance(section, dict):
        diags.append(f"{where}: must be an object")
        return
    n = section.get("grid_size")
    if not _is_int(n) or not 1 <= n <= 512:
        diags.append(f"{where}.grid_size: must be an integer in [1, 512]")
        return
    m = section.get("fiber_dim", 1)
    if not _is_int(m) or not 1 <= m <= 16:
        diags.append(f"{where}.fiber_dim: must be an integer in [1, 16]")
        return
    if n * m > 1024:
        diags.append(f"{where}: grid_size * fiber_dim must not exceed 1024")
        return
    if "weight" not in section:
        diags.append(f"{where}.weight: missing")
        return
    try:
        _space_from(section)
    except ValueError as exc:
        diags.append(f"{where}: {exc}")


def _check_sample_count(path, expect: int, where: str, rule: str, diags: list) -> None:
    """The custom samples CSV must parse and hold exactly ``expect`` rows."""
    try:
        got = _load_samples(path).size
    except (OSError, ValueError) as exc:
        diags.append(f"{where}: {exc}")
        return
    if got != expect:
        diags.append(f"{where}: holds {got} samples, {rule} needs {expect}")


def validate_config(config) -> list:
    """Collect diagnostics; an empty list means the config can run."""
    diags: list = []
    if not isinstance(config, dict):
        return ["config: must be a JSON object"]
    mode = config.get("mode")
    if mode not in MODES:
        return [f"mode: must be one of {', '.join(MODES)}"]
    seed = config.get("seed", 0)
    if not _is_int(seed) or seed < 0:
        diags.append("seed: must be a nonnegative integer")
    tols = config.get("tolerances", {})
    if not isinstance(tols, dict):
        diags.append("tolerances: must be an object")
    else:
        for key, val in tols.items():
            if key not in DEFAULT_TOLERANCES:
                diags.append(f"tolerances.{key}: unknown key")
            elif not _is_num(val) or not math.isfinite(val) or val <= 0:
                diags.append(f"tolerances.{key}: must be a positive finite number")

    if mode in ("analyze", "witness"):
        _check_space(config.get("space"), diags, "space")
        if mode == "witness":
            a = config.get("a_claimed")
            if not _is_num(a) or a <= 0:
                diags.append("a_claimed: must be a positive number")
    elif mode == "shiftinv":
        gen = config.get("generator")
        if not isinstance(gen, dict):
            diags.append("generator: must be an object")
        else:
            preset = gen.get("preset")
            if preset not in GENERATOR_PRESETS:
                diags.append(
                    f"generator.preset: must be one of {', '.join(GENERATOR_PRESETS)}"
                )
            n = gen.get("grid_size")
            n_ok = _is_int(n) and 2 <= n <= 256
            if not n_ok:
                diags.append("generator.grid_size: must be an integer in [2, 256]")
            radius = gen.get("radius")
            radius_ok = _is_int(radius) and 1 <= radius <= 16
            if radius is not None and not radius_ok:
                diags.append("generator.radius: must be an integer in [1, 16]")
            if preset == "custom":
                if radius is None:
                    diags.append("generator.radius: required for custom samples")
                path = gen.get("samples_path")
                if not isinstance(path, str) or not Path(path).is_file():
                    diags.append("generator.samples_path: must name a readable file")
                elif n_ok and radius_ok:
                    _check_sample_count(
                        path, 2 * radius * n, "generator.samples_path",
                        "2 * radius * grid_size", diags,
                    )
            if preset == "wide-indicator" and radius is not None and radius < 2:
                diags.append("generator.radius: wide-indicator needs radius >= 2")
    elif mode == "zak":
        win = config.get("window")
        samples_path = None
        if not isinstance(win, dict):
            diags.append("window: must be an object")
        else:
            preset = win.get("preset")
            if preset not in WINDOW_PRESETS:
                diags.append(
                    f"window.preset: must be one of {', '.join(WINDOW_PRESETS)}"
                )
            if preset == "custom":
                path = win.get("samples_path")
                if not isinstance(path, str) or not Path(path).is_file():
                    diags.append("window.samples_path: must name a readable file")
                else:
                    samples_path = path
        n = config.get("time_resolution")
        L = config.get("translates")
        n_ok = _is_int(n) and n >= 2
        L_ok = _is_int(L) and L >= 2
        if not n_ok:
            diags.append("time_resolution: must be an integer >= 2")
        if not L_ok:
            diags.append("translates: must be an integer >= 2")
        if _is_int(n) and _is_int(L) and n * L > 2048:
            diags.append("time_resolution * translates must not exceed 2048")
        elif n_ok and L_ok and samples_path is not None:
            _check_sample_count(
                samples_path, n * L, "window.samples_path",
                "time_resolution * translates", diags,
            )
    elif mode == "heisenberg":
        h = config.get("heisenberg")
        if not isinstance(h, dict):
            diags.append("heisenberg: must be an object")
        else:
            eps = h.get("eps")
            if not _is_num(eps) or not 0.0 < eps < 1.0:
                diags.append("heisenberg.eps: must lie strictly between 0 and 1")
            d = h.get("d", HEISENBERG_DEFAULTS["d"])
            if not _is_int(d) or not 1 <= d <= 64:
                diags.append("heisenberg.d: must be an integer in [1, 64]")
            res = h.get("resolution", HEISENBERG_DEFAULTS["resolution"])
            if not _is_int(res) or not 2 <= res <= 65536:
                diags.append("heisenberg.resolution: must be an integer in [2, 65536]")
            sres = h.get(
                "spectral_resolution", HEISENBERG_DEFAULTS["spectral_resolution"]
            )
            if not _is_int(sres) or not 2 <= sres <= 1024:
                diags.append(
                    "heisenberg.spectral_resolution: must be an integer in [2, 1024]"
                )
            kmax = h.get("k_max", HEISENBERG_DEFAULTS["k_max"])
            if not _is_int(kmax) or not 0 <= kmax <= 64:
                diags.append("heisenberg.k_max: must be an integer in [0, 64]")
    return diags


def normalize_config(config: dict) -> dict:
    """Canonical config with defaults filled; assumes validation passed.

    Normalizing is idempotent, and the result is echoed into the report so
    a run can be reproduced from its own output.
    """
    mode = config["mode"]
    tols = dict(DEFAULT_TOLERANCES)
    tols.update({k: float(v) for k, v in config.get("tolerances", {}).items()})
    out = {"mode": mode, "seed": int(config.get("seed", 0)), "tolerances": tols}
    if mode in ("analyze", "witness"):
        sec = config["space"]
        out["space"] = {
            "grid_size": int(sec["grid_size"]),
            "fiber_dim": int(sec.get("fiber_dim", 1)),
            "weight": _normalize_weight(sec["weight"]),
        }
        if mode == "witness":
            out["a_claimed"] = float(config["a_claimed"])
    elif mode == "shiftinv":
        gen = config["generator"]
        radius = gen.get("radius")
        if radius is None:
            radius = GENERATOR_RADIUS[gen["preset"]]
        out["generator"] = {
            "preset": gen["preset"],
            "grid_size": int(gen["grid_size"]),
            "radius": int(radius),
        }
        if gen["preset"] == "custom":
            out["generator"]["samples_path"] = str(gen["samples_path"])
    elif mode == "zak":
        win = {"preset": config["window"]["preset"]}
        if win["preset"] == "custom":
            win["samples_path"] = str(config["window"]["samples_path"])
        out["window"] = win
        out["time_resolution"] = int(config["time_resolution"])
        out["translates"] = int(config["translates"])
    elif mode == "heisenberg":
        h = config["heisenberg"]
        out["heisenberg"] = {"eps": float(h["eps"])}
        for key, default in HEISENBERG_DEFAULTS.items():
            out["heisenberg"][key] = int(h.get(key, default))
    return out


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


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh, lineterminator="\n")
        wr.writerow(header)
        for row in rows:
            wr.writerow([_fmt(v) for v in row])


def _write_weight_csv(out: Path, xs, w, xname: str = "x") -> None:
    rows = [(i, float(xs[i]), float(w[i])) for i in range(len(w))]
    _write_csv(out / "weight.csv", ("index", xname, "weight"), rows)


def _write_spectrum_csv(out: Path, spec) -> None:
    rows = [(i, float(v)) for i, v in enumerate(spec)]
    _write_csv(out / "spectrum.csv", ("index", "eigenvalue"), rows)


def _witness_summary(field, ratio) -> dict:
    """Report entry for a witness field (or None) and its energy ratio."""
    if field is None:
        return {"exists": False}
    return {
        "exists": True,
        "support_size": int(np.count_nonzero(np.abs(field.values).sum(axis=1))),
        "ratio": float(ratio),
    }


def _classify_witness(rep: FrameReport) -> dict:
    """Witness entry of a ``classify`` report: the frame witness when there
    is one, else the ONB defect field."""
    ratio = rep.residuals.get("witness_ratio", rep.residuals.get("onb_defect_ratio"))
    return _witness_summary(rep.witness, ratio)


def _doc(mode, cfg, verdict, rep: FrameReport | None, residuals, metrics, witness):
    bounds = {"weight": None, "oracle": None, "gram": None}
    if rep is not None:
        bounds["weight"] = list(rep.weight_bounds)
        bounds["oracle"] = None if rep.oracle_bounds is None else list(rep.oracle_bounds)
        bounds["gram"] = None if rep.gram_bounds is None else list(rep.gram_bounds)
    return _plain(
        {
            "tool": {"name": "framelab", "version": __version__},
            "mode": mode,
            "verdict": verdict,
            "bounds": bounds,
            "residuals": residuals,
            "metrics": metrics,
            "witness": witness,
            "config": cfg,
        }
    )


# ---------------------------------------------------------------- modes


def _run_analyze(cfg: dict, out: Path) -> dict:
    space = _space_from(cfg["space"])
    basis = build_default(space.grid_size, space.fiber_dim)
    fam = OperatorFamily(space, basis)
    rng = np.random.default_rng(cfg["seed"])
    rep = classify(space, fam, tol=cfg["tolerances"]["verdict"], rng=rng)
    _write_weight_csv(out, space.grid, space.weights)
    _write_spectrum_csv(out, rep.spectrum)
    metrics = {
        "total_mass": total_mass(space),
        "support_fraction": float((space.weights > SUPPORT_ETA).mean()),
    }
    if rep.witness is not None:
        _write_witness_csv(out, space, rep.witness)
    return _doc(
        "analyze", cfg, rep.verdict, rep, rep.residuals, metrics, _classify_witness(rep)
    )


def _write_witness_csv(out: Path, space, field) -> None:
    norms = np.linalg.norm(field.values, axis=1)
    rows = [
        (i, float(space.grid[i]), float(space.weights[i]), float(norms[i]))
        for i in range(space.grid_size)
    ]
    _write_csv(out / "witness.csv", ("index", "x", "weight", "norm"), rows)


def _run_witness(cfg: dict, out: Path) -> dict:
    space = _space_from(cfg["space"])
    basis = build_default(space.grid_size, space.fiber_dim)
    fam = OperatorFamily(space, basis)
    rep = decide_frame(space, fam, tol=cfg["tolerances"]["verdict"])
    field = witness_lower_failure(space, fam, cfg["a_claimed"])
    ratio = None
    if field is not None:
        ratio = witness_ratio(space, fam, field)
        _write_witness_csv(out, space, field)
    witness = _witness_summary(field, ratio)
    _write_weight_csv(out, space.grid, space.weights)
    _write_spectrum_csv(out, rep.spectrum)
    metrics = {"a_claimed": cfg["a_claimed"], "total_mass": total_mass(space)}
    return _doc("witness", cfg, rep.verdict, rep, rep.residuals, metrics, witness)


def _make_generator_from(cfg: dict) -> Generator:
    gen = cfg["generator"]
    if gen["preset"] == "custom":
        samples = _load_samples(gen["samples_path"])
        return Generator(samples, gen["radius"], gen["grid_size"])
    return make_generator(gen["preset"], gen["grid_size"], gen["radius"])


def _run_shiftinv(cfg: dict, out: Path) -> dict:
    gen = _make_generator_from(cfg)
    w = periodized_weight(gen)
    space = WeightedSpace(gen.grid_size, 1, w)
    ks = np.arange(gen.grid_size)
    x = space.grid
    scal = np.exp(-2j * np.pi * np.outer(ks, x))
    basis = TensorBasis(scal, np.eye(1, dtype=complex))
    fam = OperatorFamily(space, basis)
    rng = np.random.default_rng(cfg["seed"])
    rep = classify(space, fam, tol=cfg["tolerances"]["verdict"], rng=rng)
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
    _write_weight_csv(out, x, w)
    _write_spectrum_csv(out, rep.spectrum)
    return _doc(
        "shiftinv", cfg, rep.verdict, rep, residuals, metrics, _classify_witness(rep)
    )


def _run_zak(cfg: dict, out: Path) -> dict:
    N, L = cfg["time_resolution"], cfg["translates"]
    if cfg["window"]["preset"] == "custom":
        phi = _load_samples(cfg["window"]["samples_path"])
        if phi.shape != (N * L,):
            raise ValueError(
                f"window samples must have length {N * L}, got {phi.size}"
            )
    else:
        phi = gabor_window(cfg["window"]["preset"], N, L)
    tol = cfg["tolerances"]["verdict"]
    rep = gabor_riesz_check(phi, N, L, tol=tol, onb_tol=tol)
    z = zak_transform(phi, N, L).values
    zsq = np.abs(z) ** 2
    rows = [
        (j, m, float(zsq[j, m])) for j in range(N) for m in range(L)
    ]
    _write_csv(out / "zak_magnitude.csv", ("time_index", "freq_index", "magnitude_sq"), rows)
    _write_spectrum_csv(out, rep.spectrum)
    metrics = {
        "zak_min_sq": float(zsq.min()),
        "zak_max_sq": float(zsq.max()),
        "quasiperiodicity": zak_quasiperiodicity_residual(phi, N, L),
    }
    return _doc("zak", cfg, rep.verdict, rep, rep.residuals, metrics, {"exists": False})


def _run_heisenberg(cfg: dict, out: Path) -> dict:
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
    _write_weight_csv(out, alpha, hs_weight(eps, d, alpha), "alpha")
    _write_spectrum_csv(out, rep.spectrum)
    metrics = {"band_mass": mass, "envelope_lo": lo, "envelope_hi": hi}
    return _doc(
        "heisenberg", cfg, rep.verdict, rep, residuals, metrics, {"exists": False}
    )


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
    """Execute a validated config; write report and tables; return exit code."""
    cfg = normalize_config(config)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    doc = _RUNNERS[cfg["mode"]](cfg, out)
    code = 2 if _failed_checks(doc) else 0
    (out / "report.json").write_text(
        json.dumps(doc, sort_keys=True, indent=2) + "\n"
    )
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
        if args.tol is not None:
            raw.setdefault("tolerances", {})["verdict"] = args.tol

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
