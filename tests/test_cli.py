"""CLI contract: validation, exit codes, determinism, reproducibility."""

import copy
import csv
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from framelab import TensorBasis, analyzer, cli, heisenberg, operators, shiftinv
from framelab import tensor_onb
from framelab.cli import check_config, run_config
from oracles import csv_text, mixed_row_family


def _diags(config) -> list:
    """The diagnostics of ``check_config``; empty when the config can run."""
    return check_config(config)[1]


def _write(tmp_path, config) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return str(path)


def _run(tmp_path, config, out="run", extra=()):
    cmd = [
        sys.executable,
        "-m",
        "framelab",
        "--config",
        _write(tmp_path, config),
        "--out",
        str(tmp_path / out),
        *extra,
    ]
    return subprocess.run(cmd, capture_output=True, text=True)


def _report(tmp_path, out="run"):
    return json.loads((tmp_path / out / "report.json").read_text())


ANALYZE = {
    "mode": "analyze",
    "seed": 1,
    "space": {
        "grid_size": 8,
        "fiber_dim": 2,
        "weight": {"preset": "step", "low": 0.5, "high": 1.0, "split": 0.25},
    },
}


def test_analyze_run_and_outputs(tmp_path):
    proc = _run(tmp_path, ANALYZE)
    assert proc.returncode == 0, proc.stderr
    doc = _report(tmp_path)
    assert doc["verdict"] == "riesz_basis"
    assert doc["bounds"]["weight"] == [0.5, 1.0]
    assert doc["tool"]["name"] == "framelab"
    assert doc["metrics"]["total_mass"] == pytest.approx(0.875)
    for name in ("weight.csv", "spectrum.csv", "witness.csv"):
        assert (tmp_path / "run" / name).is_file()
    with open(tmp_path / "run" / "spectrum.csv") as fh:
        rows = list(csv.DictReader(fh))
    eig = np.array([float(r["eigenvalue"]) for r in rows])
    assert eig.size == 16
    assert eig[0] == pytest.approx(0.5, abs=1e-9)
    assert eig[-1] == pytest.approx(1.0, abs=1e-9)


def test_analyze_onb_config(tmp_path):
    cfg = {
        "mode": "analyze",
        "space": {"grid_size": 6, "fiber_dim": 1, "weight": {"preset": "constant"}},
    }
    proc = _run(tmp_path, cfg)
    assert proc.returncode == 0, proc.stderr
    doc = _report(tmp_path)
    assert doc["verdict"] == "onb"
    assert doc["witness"] == {"exists": False}


def test_witness_mode_frozen_ratio(tmp_path):
    cfg = {
        "mode": "witness",
        "a_claimed": 0.9,
        "space": {"grid_size": 4, "weight": {"inline": [0.5, 1.0, 1.0, 1.0]}},
    }
    proc = _run(tmp_path, cfg)
    assert proc.returncode == 0, proc.stderr
    doc = _report(tmp_path)
    assert doc["witness"]["exists"] is True
    assert doc["witness"]["support_size"] == 1
    assert doc["witness"]["ratio"] == pytest.approx(0.5, abs=1e-12)
    with open(tmp_path / "run" / "witness.csv") as fh:
        rows = list(csv.DictReader(fh))
    norms = [float(r["norm"]) for r in rows]
    assert norms == [1.0, 0.0, 0.0, 0.0]


def test_witness_mode_no_witness(tmp_path):
    cfg = {
        "mode": "witness",
        "a_claimed": 0.25,
        "space": {"grid_size": 4, "weight": {"inline": [0.5, 1.0, 1.0, 1.0]}},
    }
    proc = _run(tmp_path, cfg)
    assert proc.returncode == 0, proc.stderr
    assert _report(tmp_path)["witness"] == {"exists": False}


def test_shiftinv_mode(tmp_path):
    cfg = {"mode": "shiftinv", "generator": {"preset": "gaussian", "grid_size": 16}}
    proc = _run(tmp_path, cfg)
    assert proc.returncode == 0, proc.stderr
    doc = _report(tmp_path)
    assert doc["verdict"] == "riesz_basis"
    assert doc["residuals"]["mass_vs_norm"] < 1e-12
    assert doc["residuals"]["translate_gram_vs_weight"] <= 1e-13
    assert doc["metrics"]["total_mass"] == pytest.approx(
        doc["metrics"]["window_norm_sq"], rel=1e-12
    )


def _scale_time_samples(monkeypatch, factor):
    """Make the one time-sample array of every generator ``factor`` times
    its true value, for every route that reads it."""
    samples = shiftinv.Generator.time_samples.func
    monkeypatch.setattr(
        shiftinv.Generator, "time_samples", property(lambda g: factor * samples(g))
    )


def test_shiftinv_mass_vs_norm_takes_the_norm_on_the_time_side(tmp_path, monkeypatch):
    # The norm side is the quadrature of |phi|^2 over the cyclic time grid,
    # not the frequency samples the weight is folded from, so a fault in
    # the time samples shows in the check, and in the translate Gram, which
    # reads the same samples.
    cfg = {"mode": "shiftinv", "generator": {"preset": "gaussian", "grid_size": 16}}
    phi = shiftinv.make_generator("gaussian", 16).time_samples
    doc = run_config(cfg, tmp_path / "run").doc
    assert doc["metrics"]["window_norm_sq"] == float((np.abs(phi) ** 2).sum() / 8)
    _scale_time_samples(monkeypatch, 1.01)
    code = run_config(cfg, tmp_path / "broken")
    assert int(code) == 2
    failed = dict(cli._failed_checks(code.doc))
    assert sorted(failed) == ["mass_vs_norm", "translate_gram_vs_weight"]
    for value in failed.values():
        assert value == pytest.approx(1 - 1 / 1.01**2)


def test_shiftinv_translate_gram_takes_the_time_samples_at_the_cap(
    tmp_path, monkeypatch, capsys
):
    # At 256 translates, the grid cap, the translate Gram is still formed
    # from the time samples: scaling them by 1.01 scales its spectrum and
    # the time-side norm by 1.01^2, which both checks against the weight
    # report.  The spectral checks read the weight alone and do not move.
    cfg = {"mode": "shiftinv", "generator": {"preset": "gaussian", "grid_size": 256}}
    argv = ["--config", _write(tmp_path, cfg), "--out", str(tmp_path / "run")]
    assert cli.main(argv) == 0
    good = _report(tmp_path)
    _scale_time_samples(monkeypatch, 1.01)
    capsys.readouterr()
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "check failed: mass_vs_norm" in err
    assert "check failed: translate_gram_vs_weight" in err
    broken = _report(tmp_path)
    for name in ("mass_vs_norm", "translate_gram_vs_weight"):
        assert broken["residuals"][name] == pytest.approx(1 - 1 / 1.01**2)
    for name in ("spectrum_vs_weight", "gram_vs_weight"):
        assert broken["residuals"][name] == good["residuals"][name]
    assert broken["metrics"]["window_norm_sq"] == pytest.approx(
        1.01**2 * good["metrics"]["window_norm_sq"]
    )


_SEED_WEIGHTS = st.one_of(
    st.fixed_dictionaries({"preset": st.just("constant"), "value": st.floats(0.1, 10.0)}),
    st.fixed_dictionaries(
        {
            "preset": st.just("step"),
            "low": st.floats(0.0, 2.0),
            "high": st.floats(0.1, 2.0),
            "split": st.floats(0.0, 1.0),
        }
    ),
    st.fixed_dictionaries(
        {"preset": st.just("ramp"), "start": st.floats(0.0, 2.0), "stop": st.floats(0.1, 2.0)}
    ),
)
_SEED_CONFIGS = st.one_of(
    st.fixed_dictionaries(
        {
            "mode": st.just("analyze"),
            "space": st.fixed_dictionaries(
                {
                    "grid_size": st.integers(1, 48),
                    "fiber_dim": st.integers(1, 3),
                    "weight": _SEED_WEIGHTS,
                }
            ),
        }
    ),
    st.fixed_dictionaries(
        {
            "mode": st.just("shiftinv"),
            "generator": st.fixed_dictionaries(
                {
                    "preset": st.sampled_from(sorted(shiftinv.GENERATOR_RADIUS)),
                    "grid_size": st.integers(2, 48),
                }
            ),
        }
    ),
)


@settings(max_examples=40)
@given(_SEED_CONFIGS, st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
def test_verdict_bounds_and_checks_do_not_depend_on_seed(config, seed_a, seed_b):
    # The seed draws only the Parseval probe fields: the verdict, the weight
    # bounds, the exit code and whether each cross check passes are the
    # same for any two seeds.
    outcomes = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, seed in enumerate((seed_a, seed_b)):
            cfg, diags = check_config(dict(config, seed=seed))
            assume(not diags)
            code = run_config(cfg, Path(tmp) / str(i))
            doc = code.doc
            tol = doc["config"]["tolerances"]["consistency"]
            checks = {k: v <= tol for k, v in doc["residuals"].items() if "_vs_" in k}
            outcomes.append((int(code), doc["verdict"], doc["bounds"]["weight"], checks))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("grid_size", [65, 256])
def test_shiftinv_checks_translate_gram_at_every_size(tmp_path, grid_size):
    cfg = {"mode": "shiftinv", "generator": {"preset": "gaussian", "grid_size": grid_size}}
    proc = _run(tmp_path, cfg)
    assert proc.returncode == 0, proc.stderr
    doc = _report(tmp_path)
    assert doc["residuals"]["translate_gram_vs_weight"] <= 1e-13
    assert "translate_gram_checked" not in doc["metrics"]


def test_shiftinv_writes_witness_csv(tmp_path):
    cfg = {"mode": "shiftinv", "generator": {"preset": "gaussian", "grid_size": 16}}
    proc = _run(tmp_path, cfg)
    assert proc.returncode == 0, proc.stderr
    witness = _report(tmp_path)["witness"]
    assert witness["exists"] is True
    with open(tmp_path / "run" / "witness.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 16
    assert sum(float(r["norm"]) != 0.0 for r in rows) == witness["support_size"]


def test_shiftinv_truncation_refusal(tmp_path):
    # radius 1 leaves a Gaussian band tail of 5.3e-3, which periodized_weight
    # refuses; validation builds the weight, so it refuses the config too
    cfg = {
        "mode": "shiftinv",
        "generator": {"preset": "gaussian", "grid_size": 16, "radius": 1},
    }
    for extra in (["--validate-only"], []):
        proc = _run(tmp_path, cfg, extra=extra)
        assert proc.returncode == 1
        assert "config ok" not in proc.stdout
        assert "config error: generator: band tail bound" in proc.stderr
    assert not (tmp_path / "run").exists()


def test_shiftinv_custom_samples(tmp_path):
    xi = -1 + np.arange(2 * 12) / 12
    fhat = ((xi >= 0) & (xi < 1)).astype(float)
    path = tmp_path / "samples.csv"
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh, lineterminator="\n")
        wr.writerow(["re", "im"])
        for v in fhat:
            wr.writerow([f"{v:.17g}", "0"])
    cfg = {
        "mode": "shiftinv",
        "generator": {
            "preset": "custom",
            "grid_size": 12,
            "radius": 1,
            "samples_path": str(path),
        },
    }
    proc = _run(tmp_path, cfg)
    assert proc.returncode == 0, proc.stderr
    doc = _report(tmp_path)
    assert doc["verdict"] == "onb"
    assert doc["bounds"]["weight"] == [1.0, 1.0]


def test_zak_modes(tmp_path):
    cfg = {
        "mode": "zak",
        "window": {"preset": "indicator"},
        "time_resolution": 8,
        "translates": 8,
    }
    proc = _run(tmp_path, cfg)
    assert proc.returncode == 0, proc.stderr
    doc = _report(tmp_path)
    assert doc["verdict"] == "onb"
    assert doc["metrics"]["zak_min_sq"] == pytest.approx(1.0, abs=1e-12)
    with open(tmp_path / "run" / "zak_magnitude.csv") as fh:
        assert len(list(csv.DictReader(fh))) == 64
    # min |Z|^2 = 1 does not exceed the verdict tolerance 1.5
    proc1 = _run(tmp_path, cfg, out="run1", extra=("--tol", "1.5"))
    assert proc1.returncode == 0, proc1.stderr
    assert "verdict: not_frame" in proc1.stdout
    assert _report(tmp_path, "run1")["verdict"] == "not_frame"

    cfg2 = dict(cfg, window={"preset": "gaussian"}, time_resolution=16, translates=16)
    proc2 = _run(tmp_path, cfg2, out="run2")
    assert proc2.returncode == 0, proc2.stderr
    doc2 = _report(tmp_path, "run2")
    assert doc2["verdict"] == "not_frame"
    assert doc2["metrics"]["zak_min_sq"] < 1e-2


def test_heisenberg_mode(tmp_path):
    cfg = {
        "mode": "heisenberg",
        "heisenberg": {
            "eps": 0.5,
            "d": 1,
            "resolution": 1024,
            "spectral_resolution": 128,
            "k_max": 3,
        },
    }
    proc = _run(tmp_path, cfg)
    assert proc.returncode == 0, proc.stderr
    doc = _report(tmp_path)
    assert doc["verdict"] == "frame"
    assert doc["metrics"]["band_mass"] == pytest.approx(0.375, abs=1e-9)
    assert doc["metrics"]["envelope_lo"] >= 0.5 - 1e-12
    assert doc["metrics"]["envelope_hi"] <= 1.0 + 1e-12
    assert doc["residuals"]["isometry_vs_translate_gram"] < 1e-8
    assert doc["bounds"]["oracle"][0] >= 0.5 - 1e-9


def test_support_holds_every_positive_weight(tmp_path):
    # every weight of the ramp is positive and below 1e-12
    cfg = {"mode": "analyze", "space": {"grid_size": 64, "fiber_dim": 2, "weight": {
        "preset": "ramp", "start": 3e-14, "stop": 1e-12}}}
    code = run_config(cfg, tmp_path / "ramp")
    assert code == 0
    assert code.doc["metrics"]["support_fraction"] == 1.0
    bounds = code.doc["bounds"]
    assert bounds["oracle"] == pytest.approx(bounds["weight"], rel=1e-12, abs=0.0)

    cfg = {"mode": "analyze",
           "space": {"grid_size": 4, "weight": {"inline": [1e-13, 1.0, 1.0, 1.0]}}}
    code = run_config(cfg, tmp_path / "inline")
    assert code.doc["bounds"]["oracle"][0] == pytest.approx(1e-13, rel=1e-12, abs=0.0)


def test_heisenberg_band_keeps_weights_below_1e12(tmp_path):
    eps, d, r = 0.5, 64, 1024
    cfg = {"mode": "heisenberg",
           "heisenberg": {"eps": eps, "d": d, "spectral_resolution": r}}
    code = run_config(cfg, tmp_path / "run")
    assert code == 0
    doc = code.doc
    w = heisenberg.hs_weight(eps, d, heisenberg.midpoint_grid(r))
    assert doc["residuals"]["support_fraction"] == 0.5
    assert doc["bounds"]["weight"][0] == w[w > 0].min()
    # the model grid's band node nearest eps lies within 1/R' of eps
    model_r = doc["config"]["heisenberg"]["resolution"]
    lo = doc["metrics"]["envelope_lo"]
    assert eps**d <= lo <= (eps + 1.0 / model_r) ** d


def test_validate_only_refuses_subnormal_quadrature_weight(tmp_path, capsys):
    cfg = {"mode": "analyze", "space": {"grid_size": 64, "weight": {
        "preset": "ramp", "start": 1e-310, "stop": 1.0}}}
    assert cli.main(["--validate-only", "--config", _write(tmp_path, cfg)]) == 1
    assert "config error: space: positive weight" in capsys.readouterr().err


def test_validate_only_refuses_heisenberg_band_that_a_run_refuses(tmp_path, capsys):
    # The first model-grid midpoint, 0.5/40000, weighs (1.25e-5)^64, about
    # 1.6e-314, whose quadrature weight is subnormal; at 20000 nodes it
    # weighs 3.4e-295.  No spectral midpoint lies above eps = 0.999.
    refused = {
        "resolution": {"eps": 1e-6, "d": 64, "resolution": 40000},
        "spectral_resolution": {"eps": 0.999, "d": 2, "spectral_resolution": 256},
    }
    for key, section in refused.items():
        path = _write(tmp_path, {"mode": "heisenberg", "heisenberg": section})
        assert cli.main(["--validate-only", "--config", path]) == 1
        err = capsys.readouterr().err
        assert f"config error: heisenberg: {key} grid: " in err
        assert cli.main(["--config", path, "--out", str(tmp_path / key)]) == 1
    section = {"eps": 1e-6, "d": 64, "resolution": 20000}
    path = _write(tmp_path, {"mode": "heisenberg", "heisenberg": section})
    assert cli.main(["--validate-only", "--config", path]) == 0
    assert cli.main(["--config", path, "--out", str(tmp_path / "valid")]) == 0


_CLOSED_FORM_FAULTS = {
    # a constant lattice sum drifts from the closed-form weight on both grids,
    # and its quadrature from the closed-form band mass
    "lattice_sum": (
        heisenberg, "_lattice_profile",
        lambda eps, d, x, window: np.full(np.shape(x), 0.123),
        ["band_mass_vs_closed_form", "lattice_sum_vs_closed_form"],
    ),
    "band_mass": (
        cli, "psi_norm_sq", lambda eps, d: 0.5, ["band_mass_vs_closed_form"],
    ),
}


@pytest.mark.parametrize("validate_only", [True, False], ids=["validate", "run"])
@pytest.mark.parametrize("fault", sorted(_CLOSED_FORM_FAULTS))
def test_a_faulted_closed_form_is_a_reported_check(
    tmp_path, monkeypatch, capsys, fault, validate_only
):
    # The closed forms of the heisenberg weight and band mass raise nowhere:
    # validation passes, and a run writes its report, names each check that
    # the fault fails, exits 2, and exits 0 with a tolerance above the gaps.
    module, route, faulted, checks = _CLOSED_FORM_FAULTS[fault]
    monkeypatch.setattr(module, route, faulted)
    cfg = _BASES["heisenberg"]
    if validate_only:
        assert cli.main(["--validate-only", "--config", _write(tmp_path, cfg)]) == 0
        assert capsys.readouterr() == ("config ok\n", "")
        return
    argv = ["--config", _write(tmp_path, cfg), "--out", str(tmp_path / "strict")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert [line.split(" = ")[0] for line in err.splitlines()] == [
        f"check failed: {check}" for check in checks
    ]
    residuals = _report(tmp_path, "strict")["residuals"]
    loose = {**cfg, "tolerances": {"consistency": 2 * max(residuals[c] for c in checks)}}
    argv = ["--config", _write(tmp_path, loose), "--out", str(tmp_path / "loose")]
    assert cli.main(argv) == 0
    assert capsys.readouterr().err == ""


_USAGE_ERRORS = {
    "no_config": ["--validate-only"],
    "unknown_flag": ["--config", "c.json", "--bogus"],
    "bad_seed": ["--config", "c.json", "--seed", "x"],
}


@pytest.mark.parametrize("case", sorted(_USAGE_ERRORS))
def test_a_usage_error_exits_one_with_the_usage_line(capsys, case):
    # Exit 2 means a failed check, so argparse's own 2 becomes 1, in
    # process and as a module; --help still exits 0.
    argv = _USAGE_ERRORS[case]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: framelab")
    proc = subprocess.run(
        [sys.executable, "-m", "framelab", *argv], capture_output=True, text=True
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("usage: framelab") and "Traceback" not in proc.stderr
    assert cli.main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: framelab")


def test_a_missing_config_exits_one(tmp_path, capsys):
    path = tmp_path / "missing.json"
    assert cli.main(["--config", str(path), "--out", str(tmp_path / "run")]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: cannot read config:")
    assert str(path) in err and not (tmp_path / "run").exists()


_CAP = {"eps": 0.5, "resolution": 65536, "spectral_resolution": 1024, "k_max": 64}


@pytest.mark.parametrize(
    "section",
    [None, {**_CAP, "d": 3}, {**_CAP, "d": 64}],
    ids=["heisenberg_half", "cap_d3", "cap_d64"],
)
def test_closed_form_checks_hold_to_rounding(tmp_path, section):
    # The shipped config and the two at-cap configs of CI: the lattice sum
    # and the closed form take the same power at the one lattice point in
    # the band, and the quadrature is exact for alpha^d.
    shipped = _SHIPPED / "heisenberg_half.json"
    cfg = {"mode": "heisenberg", "heisenberg": section} if section else json.loads(
        shipped.read_text()
    )
    residuals = run_config(cfg, tmp_path / "run").doc["residuals"]
    assert residuals["lattice_sum_vs_closed_form"] <= 1e-13
    assert residuals["band_mass_vs_closed_form"] <= 1e-13


def test_exit_code_two_on_strict_consistency(tmp_path):
    cfg = {
        "mode": "analyze",
        "tolerances": {"consistency": 1e-18},
        "space": {
            "grid_size": 16,
            "fiber_dim": 2,
            "weight": {"preset": "ramp", "start": 0.3, "stop": 1.7},
        },
    }
    proc = _run(tmp_path, cfg)
    assert proc.returncode == 2
    # the report is still written with the verdict in place
    doc = _report(tmp_path)
    assert doc["verdict"] == "riesz_basis"
    # stderr names every failing cross check, with its value and tolerance
    failed = [
        line for line in proc.stderr.splitlines() if line.startswith("check failed:")
    ]
    checks = {k: v for k, v in doc["residuals"].items() if "_vs_" in k}
    expect = [
        f"check failed: {k} = {v:.6e} exceeds tolerance {1e-18:.6e}"
        for k, v in sorted(checks.items())
        if v > 1e-18
    ]
    assert expect
    assert failed == expect


def test_exit_code_one_on_bad_configs(tmp_path):
    bad = dict(ANALYZE)
    bad["space"] = {"grid_size": 8, "weight": {"inline": [1.0, 2.0]}}
    proc = _run(tmp_path, bad)
    assert proc.returncode == 1
    assert "config error" in proc.stderr

    proc2 = _run(tmp_path, {"mode": "no-such"})
    assert proc2.returncode == 1

    cfg_path = tmp_path / "broken.json"
    cfg_path.write_text("{not json")
    proc3 = subprocess.run(
        [sys.executable, "-m", "framelab", "--config", str(cfg_path)],
        capture_output=True,
        text=True,
    )
    assert proc3.returncode == 1
    assert "not valid JSON" in proc3.stderr

    proc4 = subprocess.run(
        [sys.executable, "-m", "framelab", "--config", str(tmp_path / "absent.json")],
        capture_output=True,
        text=True,
    )
    assert proc4.returncode == 1


def test_validate_only(tmp_path):
    proc = _run(tmp_path, ANALYZE, extra=["--validate-only"])
    assert proc.returncode == 0
    assert "config ok" in proc.stdout
    assert not (tmp_path / "run").exists()

    bad = {"mode": "analyze", "space": {"grid_size": 0, "weight": {"inline": []}}}
    proc2 = _run(tmp_path, bad, extra=["--validate-only"])
    assert proc2.returncode == 1
    assert "grid_size" in proc2.stderr


def _short_csv(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("re,im\n1,0\n0.5,0\n0.25,0\n")
    return str(path)


def test_validate_only_rejects_short_custom_window(tmp_path):
    cfg = {
        "mode": "zak",
        "window": {"preset": "custom", "samples_path": _short_csv(tmp_path)},
        "time_resolution": 4,
        "translates": 4,
    }
    proc = _run(tmp_path, cfg, extra=["--validate-only"])
    assert proc.returncode == 1
    assert "config ok" not in proc.stdout
    assert (
        "window.samples_path: holds 3 samples, "
        "time_resolution * translates needs 16"
    ) in proc.stderr


def test_validate_only_rejects_short_custom_generator(tmp_path):
    cfg = {
        "mode": "shiftinv",
        "generator": {
            "preset": "custom",
            "grid_size": 4,
            "radius": 1,
            "samples_path": _short_csv(tmp_path),
        },
    }
    proc = _run(tmp_path, cfg, extra=["--validate-only"])
    assert proc.returncode == 1
    assert "config ok" not in proc.stdout
    assert (
        "generator.samples_path: holds 3 samples, 2 * radius * grid_size needs 8"
    ) in proc.stderr


def test_determinism_byte_identical(tmp_path):
    for i, cfg in enumerate(
        [
            ANALYZE,
            {
                "mode": "zak",
                "window": {"preset": "gaussian"},
                "time_resolution": 8,
                "translates": 8,
            },
        ]
    ):
        a = _run(tmp_path, cfg, out=f"a{i}")
        b = _run(tmp_path, cfg, out=f"b{i}")
        assert a.returncode == 0 and b.returncode == 0
        ra = (tmp_path / f"a{i}" / "report.json").read_bytes()
        rb = (tmp_path / f"b{i}" / "report.json").read_bytes()
        assert ra == rb


def test_seed_and_tol_overrides_echoed(tmp_path):
    proc = _run(tmp_path, ANALYZE, extra=["--seed", "42", "--tol", "1e-6"])
    assert proc.returncode == 0, proc.stderr
    doc = _report(tmp_path)
    assert doc["config"]["seed"] == 42
    assert doc["config"]["tolerances"]["verdict"] == 1e-6


def test_nan_tolerance_override_rejected(tmp_path):
    proc = _run(tmp_path, ANALYZE, extra=["--tol", "nan"])
    assert proc.returncode == 1
    assert "tolerances.verdict" in proc.stderr
    assert not (tmp_path / "run" / "report.json").exists()


def test_tol_override_keeps_non_object_tolerances_diagnostic(tmp_path):
    cfg = {**ANALYZE, "tolerances": [1]}
    proc = _run(tmp_path, cfg, extra=["--tol", "1e-6", "--validate-only"])
    assert proc.returncode == 1
    assert "config error: tolerances: must be a JSON object" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("out", ["taken", "taken/under"], ids=["file", "under_file"])
def test_unusable_out_path_is_an_error_not_a_traceback(tmp_path, out):
    # --out naming a file, or a path under one, is refused with one error
    # line and exit 1, and the file is left as it was
    (tmp_path / "taken").write_text("keep\n")
    proc = _run(tmp_path, ANALYZE, out=out)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: cannot write output: ")
    assert "Traceback" not in proc.stderr
    assert (tmp_path / "taken").read_text() == "keep\n"


def _count_calls(monkeypatch, func):
    """Record the positional arguments of every call to ``func`` through
    every framelab module binding it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return func(*args, **kwargs)

    for mod in (tensor_onb, operators, analyzer, heisenberg, shiftinv, cli):
        if getattr(mod, func.__name__, None) is func:
            monkeypatch.setattr(mod, func.__name__, counted)
    return calls


def test_analyze_builds_each_spectrum_once(tmp_path, monkeypatch):
    # Both spectra come from their Kronecker factors: the dense NM x NM
    # analysis matrix and synthesis Gram are never formed in a run.
    assert not hasattr(operators, "analysis_matrix")  # a test oracle only
    gram = _count_calls(monkeypatch, analyzer.synthesis_gram)
    spectrum = _count_calls(monkeypatch, operators.frame_spectrum)
    # every coefficient energy is one pass of the coefficient functionals:
    # each Parseval probe and the defect ratio
    coeffs = _count_calls(monkeypatch, operators.lambda_all)
    probes = analyzer.PARSEVAL_FIELDS + 1
    assert run_config(ANALYZE, tmp_path / "run") == 0
    assert len(gram) == 0
    assert len(spectrum) == 1
    assert len(coeffs) == probes
    # a not_frame run builds its lower-bound witness once (_lower_witness builds
    # every one, witness_lower_failure's too), and takes its ratio once (a
    # positive weight under the tolerance, so that the witness norm is not zero)
    witness = _count_calls(monkeypatch, analyzer._lower_witness)
    cfg = copy.deepcopy(ANALYZE)
    cfg["space"]["weight"]["low"] = 1e-10
    code = run_config(cfg, tmp_path / "not_frame")
    assert code == 0 and code.doc["verdict"] == "not_frame"
    assert len(witness) == 1
    assert len(coeffs) == 2 * probes + 1


def test_heisenberg_builds_problem_and_spectrum_once(tmp_path, monkeypatch):
    cfg = {
        "mode": "heisenberg",
        "heisenberg": {"eps": 0.5, "d": 1, "resolution": 256,
                       "spectral_resolution": 64, "k_max": 2},
    }
    family = _count_calls(monkeypatch, tensor_onb.fourier_family)
    index = _count_calls(monkeypatch, tensor_onb._root_index)
    spectrum = _count_calls(monkeypatch, operators.frame_spectrum)
    weight = _count_calls(monkeypatch, heisenberg.hs_weight)
    profile = _count_calls(monkeypatch, heisenberg._lattice_profile)
    assert run_config(cfg, tmp_path / "run") == 0
    # the band basis generates no family: its one pass gathers the 33 rows
    # n <= p(n) that its real form needs (2 self-paired rows and the lower
    # rows of 31 pairs) from its table of roots, in blocks, once each
    rows = [np.size(args[0]) for args in index]
    assert family == []
    assert sum(rows) == 33 and max(rows) <= tensor_onb.PAIRING_BLOCK
    assert len(spectrum) == 1
    # the 256-point scale grid is weighed once, and checked by one lattice pass
    assert sum(np.size(args[2]) == 256 for args in weight) == 1
    assert sum(np.size(args[2]) == 256 for args in profile) == 1
    # and the 64-point spectral grid once: weight.csv reuses the frame problem's
    assert sum(np.size(args[2]) == 64 for args in weight) == 1
    # (the band-mass quadrature takes a pass of its own, on 64 Gauss nodes)
    grid = heisenberg.midpoint_grid(64)
    assert sum(np.array_equal(args[2], grid) for args in profile) == 1


@pytest.mark.parametrize("mode", ["analyze", "witness", "shiftinv", "heisenberg"])
def test_cli_run_takes_no_svd(tmp_path, monkeypatch, mode):
    # The frame route diagonalizes the real frame operator with eigvalsh;
    # an SVD is a test oracle only.
    calls = []
    svd = np.linalg.svd

    def spy(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    spectrum = _count_calls(monkeypatch, operators.frame_spectrum)
    out = str(tmp_path / "run")
    assert cli.main(["--config", _write(tmp_path, _SMALL[mode]), "--out", out]) == 0
    assert len(spectrum) == 1 and calls == []


@pytest.mark.parametrize(
    "lo, hi", [(0.5e160, 2e160), (1e300, 1.7e308), (1e-300, 2e-300)]
)
def test_report_at_extreme_weights_is_finite_json(tmp_path, lo, hi):
    # Weights the validator accepts whose coefficient energies or total mass
    # leave the float range: every number in the report stays finite, so the
    # report is valid JSON, and the defect ratio is the largest weight.
    cfg = {
        "mode": "analyze",
        "space": {"grid_size": 8, "fiber_dim": 2,
                  "weight": {"preset": "ramp", "start": lo, "stop": hi}},
    }
    out = tmp_path / "run"
    assert cli.main(["--config", _write(tmp_path, cfg), "--out", str(out)]) == 0

    def refuse(name):
        raise ValueError(f"report.json holds {name}")

    doc = json.loads((out / "report.json").read_text(), parse_constant=refuse)
    assert doc["verdict"] == ("riesz_basis" if lo > 1e-9 else "not_frame")
    assert doc["residuals"]["onb_defect_ratio"] == pytest.approx(hi, rel=1e-13)
    w = np.linspace(lo, hi, 8)
    assert doc["metrics"]["total_mass"] == pytest.approx((w / 8).sum(), rel=1e-15)
    gap = min(abs(lo - 1.0), abs(hi - 1.0))
    assert doc["residuals"]["onb_parseval"] >= gap * (1 - 1e-13)


@pytest.mark.parametrize("mode", ["analyze", "witness", "shiftinv", "heisenberg"])
def test_cli_run_builds_each_input_once(tmp_path, monkeypatch, mode):
    # check_config builds what the run computes on, and the runner takes it:
    # one space, or for heisenberg the model's space on its 64-point grid and
    # the band space on the 16-point spectral grid
    spaces = _count_calls(monkeypatch, cli.WeightedSpace)
    weights = _count_calls(monkeypatch, shiftinv.periodized_weight)
    models = _count_calls(monkeypatch, heisenberg.CenterTranslateModel)
    out = str(tmp_path / "run")
    assert cli.main(["--config", _write(tmp_path, _SMALL[mode]), "--out", out]) == 0
    sizes = sorted(args[0] for args in spaces)
    assert sizes == {"analyze": [8], "witness": [4], "shiftinv": [16],
                     "heisenberg": [16, 64]}[mode]
    assert len(weights) == (mode == "shiftinv")
    assert len(models) == (mode == "heisenberg")


@pytest.mark.parametrize("mode", ["analyze", "witness", "shiftinv", "heisenberg"])
def test_cli_run_generates_each_family_once_inside_the_fold(tmp_path, monkeypatch, mode):
    # Each runner builds a Fourier basis, which knows its conjugate pairing
    # from its integers: its one pass gathers each row n <= p(n) of the
    # family once from its table of roots, a block at a time (4 rows here,
    # so the small grids take several blocks), the 2 self-paired rows and
    # the lower row of each pair, writes the real form from them and keeps
    # it alone.  No runner path generates the family or reads scalar_family.
    monkeypatch.setattr(tensor_onb, "PAIRING_BLOCK", 4)
    family = _count_calls(monkeypatch, tensor_onb.fourier_family)
    index = _count_calls(monkeypatch, tensor_onb._root_index)
    readers = []
    read = TensorBasis.scalar_family.fget

    def spy(basis):
        readers.append(sys._getframe(1).f_code.co_name)
        return read(basis)

    monkeypatch.setattr(TensorBasis, "scalar_family", property(spy))
    out = str(tmp_path / "run")
    assert cli.main(["--config", _write(tmp_path, _SMALL[mode]), "--out", out]) == 0
    rows = [np.size(args[0]) for args in index]
    n = {"analyze": 8, "witness": 4, "shiftinv": 16, "heisenberg": 16}[mode]
    assert sum(rows) == (n + 2) // 2 and max(rows) <= 4
    assert family == [] and readers == []


def test_heisenberg_band_decision_checks_isometry_on_its_frame_operator(
    tmp_path, monkeypatch
):
    # The band decision reads the isometry hypothesis off the frame operator
    # X^T X it diagonalizes, in place: the array checked is the one eigvalsh
    # receives, so the check forms no second R x R array
    # (test_band_decision_working_set bounds the peak).  The witness ratio
    # of a not_frame run (alpha^64 under the tolerance) takes one pass of
    # the coefficient functionals, which forms none either.
    decide, decide_frame = [], heisenberg.decide_frame
    monkeypatch.setattr(
        heisenberg, "decide_frame", lambda *a, **k: decide.append(k) or decide_frame(*a, **k)
    )
    coeffs = _count_calls(monkeypatch, operators.lambda_all)
    checked, solved = [], []
    isometry, eigvalsh = operators._isometry_residual, np.linalg.eigvalsh
    monkeypatch.setattr(
        operators, "_isometry_residual", lambda g, n: checked.append(g) or isometry(g, n)
    )
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: solved.append(a) or eigvalsh(a))
    for d, verdict in ((1, "frame"), (64, "not_frame")):
        cfg = {"mode": "heisenberg", "heisenberg": {"eps": 0.5, "d": d, "resolution": 256,
                                                    "spectral_resolution": 512}}
        out = tmp_path / str(d)
        assert cli.main(["--config", _write(tmp_path, cfg), "--out", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["verdict"] == verdict
        assert doc["witness"]["exists"] is (verdict == "not_frame")
    assert decide == [{"band": True}] * 2
    # one check per run, on the 256-node band's frame operator, the very
    # array that eigvalsh diagonalizes once D has scaled it in place
    assert [c.shape for c in checked] == [(256, 256)] * 2
    assert all(any(c is a for a in solved) for c in checked)
    assert len(coeffs) == 1
    # Two of the band's nodes on one column make the family no isometry on
    # its support, and the band decision refuses it.
    def merged(grid_size):
        n = np.arange(grid_size)
        numer = n.copy()
        numer[-1] = numer[-2]
        return TensorBasis.fourier(n, numer, grid_size)

    monkeypatch.setattr(heisenberg, "build_default", merged)
    refusal = r"^family violates scalar orthonormality \(residual 1\.000e\+00\)$"
    with pytest.raises(ValueError, match=refusal):
        heisenberg.frame_report(0.5, 1, resolution=64)
    # It checks unimodularity first, as every decider does: the mixed-row
    # family, an isometry closed under conjugation with entries 0 and
    # sqrt(2), is refused before its real form is written.
    mixed = TensorBasis(mixed_row_family(64))
    monkeypatch.setattr(heisenberg, "build_default", lambda grid_size: mixed)
    with pytest.raises(ValueError, match=r"^family violates unimodularity \(residual 1\.000e\+00\)$"):
        heisenberg.frame_report(0.5, 1, resolution=64)


@pytest.mark.parametrize(
    "weight, passes",
    [
        ({"preset": "ramp", "start": 1e-12, "stop": 1.0}, 1),
        # a witness on zero-weight nodes only has norm 0, so its ratio is 0
        # and no coefficient is computed for it
        ({"preset": "step", "low": 0.0, "high": 1.0, "split": 0.25}, 0),
    ],
    ids=["ramp", "zero_weight"],
)
def test_witness_run_builds_one_witness_at_the_claim(
    tmp_path, monkeypatch, weight, passes
):
    cfg = {
        "mode": "witness",
        "a_claimed": 0.7,
        "space": {"grid_size": 64, "fiber_dim": 2, "weight": weight},
    }
    witness = _count_calls(monkeypatch, analyzer._lower_witness)
    coeffs = _count_calls(monkeypatch, operators.lambda_all)
    code = run_config(cfg, tmp_path / "run")
    assert code == 0 and code.doc["verdict"] == "not_frame"
    assert len(witness) == 1 and witness[0][1] == 0.7
    assert len(coeffs) == passes
    ratio = code.doc["residuals"]["witness_ratio"]
    assert ratio == code.doc["witness"]["ratio"]
    assert 0.0 < ratio < 0.7 if passes else ratio == 0.0


def test_witness_run_below_every_weight_keeps_the_not_frame_witness(tmp_path):
    # a claim at or below every weight has no witness of its own, so a
    # not_frame run reports the one of the smallest claim above the tolerance
    cfg = {
        "mode": "witness",
        "a_claimed": 1e-11,
        "space": {"grid_size": 4, "weight": {"inline": [1e-10, 0.5, 1.0, 1.0]}},
    }
    code = run_config(cfg, tmp_path / "run")
    assert code == 0 and code.doc["verdict"] == "not_frame"
    witness = code.doc["witness"]
    assert witness["exists"] and witness["support_size"] == 1
    assert witness["ratio"] == code.doc["residuals"]["witness_ratio"]
    assert witness["ratio"] == pytest.approx(1e-10)
    norms = np.loadtxt(tmp_path / "run" / "witness.csv", delimiter=",", skiprows=1)
    assert np.array_equal(norms[:, -1] != 0, [True, False, False, False])


def test_zak_builds_gram_spectrum_once(tmp_path, monkeypatch):
    cfg = {
        "mode": "zak",
        "window": {"preset": "gaussian"},
        "time_resolution": 8,
        "translates": 6,
    }
    phi = shiftinv.gabor_window("gaussian", 8, 6)
    transform = shiftinv.zak_transform(phi, 8, 6)
    residual = shiftinv._quasiperiodicity_residual(transform, phi)
    spectrum = _count_calls(monkeypatch, shiftinv.gabor_gram_spectrum)
    zak = _count_calls(monkeypatch, shiftinv.zak_transform)
    code = run_config(cfg, tmp_path / "run")
    assert code == 0
    assert len(spectrum) == 1
    # one transform shared by the check, the CSV and the residual, plus the
    # residual's transform of the rolled window
    assert len(zak) == 2
    assert code.doc["metrics"]["quasiperiodicity"] == residual
    with open(tmp_path / "run" / "spectrum.csv") as fh:
        assert len(list(csv.DictReader(fh))) == 48


def test_zak_at_size_cap(tmp_path):
    cfg = {
        "mode": "zak",
        "window": {"preset": "gaussian"},
        "time_resolution": 64,
        "translates": 32,
    }
    proc = _run(tmp_path, cfg)
    assert proc.returncode == 0, proc.stderr
    doc = _report(tmp_path)
    assert doc["verdict"] == "not_frame"
    assert doc["residuals"]["zak_vs_gram"] <= 1e-12
    with open(tmp_path / "run" / "spectrum.csv") as fh:
        assert len(list(csv.DictReader(fh))) == 2048


def test_analyze_at_grid_and_fiber_caps(tmp_path):
    # No cap on grid_size * fiber_dim: no run forms an NM x NM matrix.
    cfg = {
        "mode": "analyze",
        "space": {
            "grid_size": 512,
            "fiber_dim": 16,
            "weight": {"preset": "ramp", "start": 0.5, "stop": 2.0},
        },
    }
    assert _diags(cfg) == []
    assert _run(tmp_path, cfg, extra=("--validate-only",)).returncode == 0
    proc = _run(tmp_path, cfg)
    assert proc.returncode == 0, proc.stderr
    doc = _report(tmp_path)
    assert doc["verdict"] == "riesz_basis"
    assert doc["bounds"]["weight"] == [0.5, 2.0]
    with open(tmp_path / "run" / "spectrum.csv") as fh:
        assert len(list(csv.DictReader(fh))) == 512 * 16


def test_cross_checks_at_grid_cap_hold_to_rounding(tmp_path):
    # With every family entry a root of unity to rounding, the frame-operator
    # and Gram routes meet the weights to a few ulps even at the grid cap.
    space = {"grid_size": 512, "fiber_dim": 2}
    configs = {
        "onb": {"mode": "analyze",
                "space": {**space, "weight": {"preset": "constant", "value": 1.0}}},
        "dip": {"mode": "witness", "a_claimed": 0.7, "space": {**space, "weight": {
            "preset": "step", "low": 0.0, "high": 1.0, "split": 0.125}}},
    }
    for name, cfg in configs.items():
        code = run_config(cfg, tmp_path / name)
        assert code == 0
        checks = {k: v for k, v in code.doc["residuals"].items() if "_vs_" in k}
        assert checks and max(checks.values()) <= 1e-14, (name, checks)


@pytest.mark.parametrize("mode", ["analyze", "witness"])
def test_cross_checks_hold_in_large_weight_units(tmp_path, mode):
    # The _vs_ residuals are relative to the largest value compared, so
    # weights in units of 1e8 pass the default tolerance as weights near 1 do.
    cfg = {
        "mode": mode,
        "space": {"grid_size": 64, "fiber_dim": 2,
                  "weight": {"preset": "ramp", "start": 3e6, "stop": 1e8}},
    }
    if mode == "witness":
        cfg["a_claimed"] = 5e7
    out = tmp_path / mode
    assert cli.main(["--config", _write(tmp_path, cfg), "--out", str(out)]) == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["verdict"] == ("riesz_basis" if mode == "analyze" else "frame")
    checks = {k: v for k, v in doc["residuals"].items() if "_vs_" in k}
    assert checks and max(checks.values()) <= 1e-14, checks


def _doubled(route):
    return lambda *args: 2.0 * route(*args)


@pytest.mark.parametrize("start, stop", [(3e-12, 1e-10), (0.3, 1.0)])
@pytest.mark.parametrize(
    "route, check",
    [("frame_spectrum", "spectrum_vs_weight"), ("_gram_spectrum", "gram_vs_weight")],
)
def test_a_doubled_spectrum_fails_its_check_in_any_unit(
    tmp_path, monkeypatch, route, check, start, stop
):
    # Each spectral check compares the whole spectrum with the weights,
    # relative to the largest value, so a route that returns twice its
    # spectrum fails its check whether the weights are near 1 or near 1e-10.
    monkeypatch.setattr(analyzer, route, _doubled(getattr(analyzer, route)))
    cfg = {
        "mode": "analyze",
        "space": {"grid_size": 64, "fiber_dim": 2,
                  "weight": {"preset": "ramp", "start": start, "stop": stop}},
    }
    code = run_config(cfg, tmp_path / "run")
    assert code == 2
    assert [name for name, _ in cli._failed_checks(code.doc)] == [check]


_FAULTED_RUNS = {
    "zak": (
        {"mode": "zak", "window": {"preset": "gaussian"},
         "time_resolution": 8, "translates": 8},
        shiftinv, "gabor_gram_spectrum", 2.0,
        "zak_vs_gram", 0.5, ["spectrum.csv", "zak_magnitude.csv"],
    ),
    "heisenberg": (
        {"mode": "heisenberg", "heisenberg": {"eps": 0.5, "d": 2, "resolution": 512,
                                              "spectral_resolution": 64, "k_max": 3}},
        heisenberg, "s_map", 1.0 + 1e-6,
        "isometry_vs_translate_gram", (1.0 + 1e-6) ** 2 - 1.0,
        ["spectrum.csv", "weight.csv"],
    ),
}


@pytest.mark.parametrize("case", sorted(_FAULTED_RUNS))
def test_a_faulted_route_is_reported_and_judged_by_the_consistency_tolerance(
    tmp_path, monkeypatch, capsys, case
):
    # The Zak and isometry routes return their gap and raise on none, so a
    # route off by a factor writes its report and tables and fails its one
    # check by tolerances.consistency, which a run may set above the gap.
    cfg, module, route, factor, check, gap, tables = _FAULTED_RUNS[case]
    original = getattr(module, route)
    monkeypatch.setattr(module, route, lambda *args: factor * original(*args))
    loose = {**cfg, "tolerances": {"consistency": 10 * gap}}
    for out, config, want in [("strict", cfg, 2), ("loose", loose, 0)]:
        argv = ["--config", _write(tmp_path, config), "--out", str(tmp_path / out)]
        assert cli.main(argv) == want
        err = capsys.readouterr().err
        failed = [f"check failed: {check}"] if want else []
        assert [line.split(" = ")[0] for line in err.splitlines()] == failed
        doc = _report(tmp_path, out)
        assert doc["residuals"][check] == pytest.approx(gap, rel=1e-6)
        assert all((tmp_path / out / name).is_file() for name in tables)


def _refuse(token):
    raise ValueError(f"{token} is not strict JSON")


@pytest.mark.parametrize("case", sorted(_FAULTED_RUNS))
def test_a_nan_check_is_written_as_null_and_fails(tmp_path, monkeypatch, capsys, case):
    # A route that returns NaN leaves the report strict JSON: the check is
    # written as null, and a null check fails the run and is named on stderr.
    cfg, module, route, _, check, _, tables = _FAULTED_RUNS[case]
    original = getattr(module, route)
    monkeypatch.setattr(module, route, lambda *args: np.nan * original(*args))
    argv = ["--config", _write(tmp_path, cfg), "--out", str(tmp_path / "run")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert [line.split(" = ")[0] for line in err.splitlines()] == [f"check failed: {check}"]
    text = (tmp_path / "run" / "report.json").read_text()
    assert json.loads(text, parse_constant=_refuse)["residuals"][check] is None
    assert all((tmp_path / "run" / name).is_file() for name in tables)


def test_config_echo_round_trip(tmp_path):
    proc = _run(tmp_path, ANALYZE)
    assert proc.returncode == 0
    doc = _report(tmp_path)
    echoed = doc["config"]
    assert check_config(echoed) == (echoed, [])
    proc2 = _run(tmp_path, echoed, out="rerun")
    assert proc2.returncode == 0
    doc2 = _report(tmp_path, "rerun")
    assert doc2 == doc


def test_run_config_api(tmp_path):
    code = run_config(ANALYZE, tmp_path / "api")
    assert code == 0
    assert (tmp_path / "api" / "report.json").is_file()


def test_validate_config_diagnostics_name_fields():
    diags = _diags(
        {"mode": "heisenberg", "heisenberg": {"eps": 1.2, "d": 1}}
    )
    assert any("heisenberg.eps" in d for d in diags)
    diags2 = _diags({"mode": "analyze"})
    assert any(d.startswith("space") for d in diags2)
    diags3 = _diags(
        {"mode": "analyze", "seed": -1, "tolerances": {"verdict": -1.0, "bogus": 1.0},
         "space": {"grid_size": 4, "weight": {"preset": "constant"}}}
    )
    assert any("seed" in d for d in diags3)
    assert any("tolerances.verdict" in d for d in diags3)
    assert any("tolerances.bogus" in d for d in diags3)
    for key in ("consistency", "verdict"):
        for bad in (float("nan"), float("inf")):
            diags4 = _diags(
                {"mode": "analyze", "tolerances": {key: bad},
                 "space": {"grid_size": 4, "weight": {"preset": "constant"}}}
            )
            assert any(f"tolerances.{key}" in d for d in diags4), (key, bad)
    assert _diags("nope") == ["config: must be a JSON object"]


@pytest.mark.parametrize("bad", ["NaN", "Infinity"])
def test_non_finite_a_claimed_refused(tmp_path, bad):
    cfg = {
        "mode": "witness",
        "a_claimed": float(bad),
        "space": {"grid_size": 4, "weight": {"inline": [0.5, 1.0, 1.0, 1.0]}},
    }
    assert bad in json.dumps(cfg)
    check = _run(tmp_path, cfg, extra=["--validate-only"])
    assert check.returncode == 1
    assert "config ok" not in check.stdout
    assert "a_claimed: must be a positive finite number" in check.stderr
    proc = _run(tmp_path, cfg)
    assert proc.returncode == 1
    assert not (tmp_path / "run" / "report.json").exists()


def test_unknown_keys_refused(tmp_path):
    space = {"grid_size": 4, "weight": {"preset": "ramp"}}
    assert _diags({"mode": "analyze", "sede": 3, "space": space}) == [
        "sede: unknown key"
    ]
    assert _diags(
        {"mode": "analyze", "space": dict(space, fiber_dims=3)}
    ) == ["space.fiber_dims: unknown key"]
    assert _diags(
        {"mode": "analyze", "space": dict(space, weight={"preset": "ramp", "strat": 5})}
    ) == ["space.weight.strat: unknown key"]
    both = {"inline": [1.0, 1.0, 1.0, 1.0], "preset": "constant"}
    assert _diags(
        {"mode": "analyze", "space": dict(space, weight=both)}
    ) == ["space.weight.preset: unknown key"]
    # a key of another mode is unknown too
    assert _diags(
        {"mode": "analyze", "a_claimed": 0.5, "space": space}
    ) == ["a_claimed: unknown key"]
    proc = _run(tmp_path, {"mode": "analyze", "space": dict(space, fiber_dims=3)},
                extra=["--validate-only"])
    assert proc.returncode == 1
    assert "config error: space.fiber_dims: unknown key" in proc.stderr


# One valid config per mode and preset; together they hold every config key.
_STEP = {"preset": "step", "low": 0.5, "high": 1.0, "split": 0.25}
_SPACE = {"grid_size": 8, "fiber_dim": 2, "weight": _STEP}
_BASES = {
    "step": {"mode": "analyze", "seed": 1,
             "tolerances": {"consistency": 1e-9, "verdict": 1e-9}, "space": _SPACE},
    "constant": {"mode": "analyze",
                 "space": dict(_SPACE, weight={"preset": "constant", "value": 2.0})},
    "ramp": {"mode": "analyze",
             "space": dict(_SPACE, weight={"preset": "ramp", "start": 0.5, "stop": 1.5})},
    "inline": {"mode": "analyze",
               "space": {"grid_size": 2, "weight": {"inline": [0.5, 1.0]}}},
    "witness": {"mode": "witness", "a_claimed": 0.9, "space": _SPACE},
    "generator": {"mode": "shiftinv",
                  "generator": {"preset": "gaussian", "grid_size": 16, "radius": 4}},
    "custom_generator": {"mode": "shiftinv", "generator": {
        "preset": "custom", "grid_size": 4, "radius": 1, "samples_path": "gen.csv"}},
    "window": {"mode": "zak", "window": {"preset": "custom", "samples_path": "win.csv"},
               "time_resolution": 4, "translates": 4},
    "heisenberg": {"mode": "heisenberg", "heisenberg": {
        "eps": 0.5, "d": 1, "resolution": 64, "spectral_resolution": 16, "k_max": 2}},
}
_BAD_VALUES = [
    ("step", "mode", "nope"),
    ("step", "seed", -1),
    ("step", "tolerances", 3),
    ("step", "tolerances.consistency", float("nan")),
    ("step", "tolerances.verdict", 0.0),
    ("step", "space", "x"),
    ("step", "space.grid_size", 513),
    ("step", "space.fiber_dim", 0),
    ("step", "space.weight", []),
    ("step", "space.weight.preset", "nope"),
    ("step", "space.weight.low", "a"),
    ("step", "space.weight.high", float("inf")),
    ("step", "space.weight.split", 1.5),
    ("constant", "space.weight.value", float("nan")),
    ("ramp", "space.weight.start", None),
    ("ramp", "space.weight.stop", True),
    ("inline", "space.weight.inline", [1.0, "x"]),
    ("witness", "a_claimed", 0),
    ("generator", "generator", 1),
    ("generator", "generator.preset", "nope"),
    ("generator", "generator.grid_size", 1),
    ("generator", "generator.radius", 17),
    ("custom_generator", "generator.samples_path", 5),
    ("window", "window", None),
    ("window", "window.preset", "square"),
    ("window", "window.samples_path", []),
    ("window", "time_resolution", 1),
    ("window", "translates", 1.5),
    ("heisenberg", "heisenberg", []),
    ("heisenberg", "heisenberg.eps", 1.0),
    ("heisenberg", "heisenberg.d", 65),
    ("heisenberg", "heisenberg.resolution", 1),
    ("heisenberg", "heisenberg.spectral_resolution", 2048),
    ("heisenberg", "heisenberg.k_max", -1),
]


def _keys(cfg, prefix=""):
    for key, value in cfg.items():
        path = f"{prefix}{key}"
        yield path
        if isinstance(value, dict):
            yield from _keys(value, path + ".")


def test_bad_values_cover_every_config_key():
    # check_config types a config before it reads a file, so the custom
    # samples paths need not exist
    keys = {k for base in _BASES.values() for k in _keys(check_config(base)[0])}
    assert keys == {path for _, path, _ in _BAD_VALUES}


@pytest.mark.parametrize(
    "base,path,bad", _BAD_VALUES, ids=[f"{p}={v!r}" for _, p, v in _BAD_VALUES]
)
def test_bad_value_diagnostic_names_key(tmp_path, base, path, bad):
    cfg = copy.deepcopy(_BASES[base])
    *parents, leaf = path.split(".")
    section = cfg
    for key in parents:
        section = section[key]
    section[leaf] = bad
    diags = _diags(cfg)
    assert any(d.startswith(f"{path}:") for d in diags), diags
    with pytest.raises(ValueError, match=re.escape(f"{path}:")):
        run_config(cfg, tmp_path / "run")
    assert not (tmp_path / "run").exists()


_CROSS_RULES = [
    ({"mode": "analyze", "space": {"grid_size": 8, "weight": {"inline": [1.0, 1.0, 1.0]}}},
     "space.weight.inline: has length 3, expected 8"),
    ({"mode": "shiftinv", "generator": {
        "preset": "custom", "grid_size": 4, "samples_path": "gen.csv"}},
     "generator.radius: required for custom samples"),
    ({"mode": "shiftinv", "generator": {"preset": "wide-indicator", "grid_size": 16, "radius": 1}},
     "generator.radius: wide-indicator needs radius >= 2"),
    ({"mode": "zak", "window": {"preset": "gaussian"}, "time_resolution": 64, "translates": 33},
     "time_resolution * translates must not exceed 2048"),
]


@pytest.mark.parametrize("config,diag", _CROSS_RULES, ids=[d for _, d in _CROSS_RULES])
def test_cross_rule_diagnostics(tmp_path, capsys, config, diag):
    # each rule that ties keys together is the one diagnostic of its config
    assert _diags(config) == [diag]
    if config["mode"] == "zak":
        assert cli.main(["--validate-only", "--config", _write(tmp_path, config)]) == 1
        assert f"config error: {diag}" in capsys.readouterr().err


def test_run_config_refuses_wrong_length_custom_window(tmp_path):
    cfg = {
        "mode": "zak",
        "window": {"preset": "custom", "samples_path": _short_csv(tmp_path)},
        "time_resolution": 4,
        "translates": 4,
    }
    # refused by check_config, before the run makes its output directory
    need = "window.samples_path: holds 3 samples, time_resolution * translates needs 16"
    with pytest.raises(ValueError, match=re.escape(need)):
        run_config(cfg, tmp_path / "run")
    assert not (tmp_path / "run" / "report.json").exists()


def test_custom_window_parsed_once_per_run(tmp_path, monkeypatch):
    path = tmp_path / "window.csv"
    path.write_text("".join(f"{v},0\n" for v in np.linspace(0.5, 1.5, 16)))
    cfg = {
        "mode": "zak",
        "window": {"preset": "custom", "samples_path": str(path)},
        "time_resolution": 4,
        "translates": 4,
    }
    loads = _count_calls(monkeypatch, cli._load_samples)
    assert run_config(cfg, tmp_path / "run") == 0
    assert len(loads) == 1
    # main checks the samples and runs on the ones it checked, for a window
    # and for a generator
    xi = -1 + np.arange(2 * 8) / 8
    gen = tmp_path / "generator.csv"
    gen.write_text("".join(f"{int(v)},0\n" for v in ((xi >= 0) & (xi < 1))))
    generator = {"preset": "custom", "grid_size": 8, "radius": 1,
                 "samples_path": str(gen)}
    for run in (cfg, {"mode": "shiftinv", "generator": generator}):
        loads.clear()
        out = tmp_path / run["mode"]
        assert cli.main(["--config", _write(tmp_path, run), "--out", str(out)]) == 0
        assert len(loads) == 1


def test_csv_float_format_full_precision(tmp_path):
    cfg = {
        "mode": "analyze",
        "space": {
            "grid_size": 3,
            "weight": {"inline": [1 / 3, 2 / 3, 1.0]},
        },
    }
    proc = _run(tmp_path, cfg)
    assert proc.returncode == 0, proc.stderr
    with open(tmp_path / "run" / "weight.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert float(rows[0]["weight"]) == 1 / 3  # %.17g survives the round trip


def test_csv_writer_matches_per_value_oracle():
    ints = np.array([0, 1, -7, 2**62, 42, 3, 10**15, 9])
    floats = np.array(
        [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e16, 1 / 3, 1e300]
    )
    table = cli._table(("index", "value", "neg"), ints, floats, -floats)
    assert cli._csv_text(*table) == csv_text(*table)


_SMALL = {
    "analyze": ANALYZE,
    "witness": {"mode": "witness", "a_claimed": 0.9,
                "space": {"grid_size": 4, "weight": {"inline": [0.5, 1.0, 1.0, 1.0]}}},
    "shiftinv": {"mode": "shiftinv", "generator": {"preset": "gaussian", "grid_size": 16}},
    "zak": {"mode": "zak", "window": {"preset": "gaussian"},
            "time_resolution": 8, "translates": 6},
    "heisenberg": _BASES["heisenberg"],
}


@pytest.mark.parametrize("mode", sorted(_SMALL))
def test_every_runner_table_matches_per_value_oracle(mode):
    cfg, diags = check_config(_SMALL[mode])
    assert diags == [] and cfg["mode"] == mode
    rep, _, _, tables = cli.MODES[mode].run(cfg, cfg.inputs)
    witness = cli._witness(rep, tables)
    assert ("witness.csv" in tables) is witness["exists"]
    spec = rep.spectrum
    tables["spectrum.csv"] = cli._table(("index", "eigenvalue"), np.arange(spec.size), spec)
    for header, columns in tables.values():
        assert cli._csv_text(header, columns) == csv_text(header, columns)


def test_small_configs_cover_every_mode():
    assert sorted(_SMALL) == sorted(cli.MODES)


_SHIPPED = Path(__file__).resolve().parents[1] / "configs"
_DECLARED = [(f"small_{mode}", _SMALL[mode]) for mode in sorted(_SMALL)] + [
    (path.stem, json.loads(path.read_text())) for path in sorted(_SHIPPED.glob("*.json"))
]


@pytest.mark.parametrize("name,config", _DECLARED, ids=[name for name, _ in _DECLARED])
def test_every_report_holds_exactly_the_checks_its_mode_declares(tmp_path, name, config):
    # MODES is the one list of the checks each mode owes: a report holds
    # each of them and no other _vs_ residual, which would go unjudged.
    cfg, diags = check_config(config)
    if diags:  # a config that exits 1 writes no report
        assert name.startswith("invalid_"), diags
        return
    doc = run_config(cfg, tmp_path / "run").doc
    got = sorted(k for k in doc["residuals"] if "_vs_" in k)
    assert got == sorted(cli.MODES[doc["mode"]].checks)


@pytest.mark.parametrize("mode", sorted(_SMALL))
def test_a_report_missing_a_declared_check_fails(tmp_path, monkeypatch, capsys, mode):
    # A runner that stops reporting a check cannot pass in silence: the
    # missing check fails the run, and stderr names it.
    entry = cli.MODES[mode]
    dropped = entry.checks[0]

    def run(cfg, inputs):
        rep, residuals, metrics, tables = entry.run(cfg, inputs)
        kept = {k: v for k, v in residuals.items() if k != dropped}
        return rep, kept, metrics, tables

    monkeypatch.setitem(cli.MODES, mode, entry._replace(run=run))
    argv = ["--config", _write(tmp_path, _SMALL[mode]), "--out", str(tmp_path / "run")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert [line.split(" = ")[0] for line in err.splitlines()] == [f"check failed: {dropped}"]
    assert dropped not in _report(tmp_path)["residuals"]


def _nonfinite_csv(tmp_path, count, bad):
    path = tmp_path / "samples.csv"
    path.write_text("re,im\n" + "1,0\n" * (count - 1) + f"{bad},0\n")
    return str(path)


_NONFINITE = {
    "zak": ("window.samples_path", lambda path: {
        "mode": "zak", "window": {"preset": "custom", "samples_path": path},
        "time_resolution": 4, "translates": 4}),
    "shiftinv": ("generator.samples_path", lambda path: {
        "mode": "shiftinv", "generator": {
            "preset": "custom", "grid_size": 8, "radius": 1, "samples_path": path}}),
}


@pytest.mark.parametrize("validate_only", [True, False], ids=["validate", "run"])
@pytest.mark.parametrize("bad", ["nan", "inf"])
@pytest.mark.parametrize("mode", sorted(_NONFINITE))
def test_nonfinite_custom_samples_refused(tmp_path, mode, bad, validate_only):
    where, make = _NONFINITE[mode]
    cfg = make(_nonfinite_csv(tmp_path, 16, bad))
    proc = _run(tmp_path, cfg, extra=["--validate-only"] if validate_only else [])
    assert proc.returncode == 1
    assert "config ok" not in proc.stdout
    assert f"config error: {where}: sample 16 is not finite" in proc.stderr
    assert not (tmp_path / "run" / "report.json").exists()


@pytest.mark.parametrize("mode", sorted(_NONFINITE))
def test_run_config_refuses_nonfinite_custom_samples(tmp_path, mode):
    where, make = _NONFINITE[mode]
    cfg = make(_nonfinite_csv(tmp_path, 16, "nan"))
    with pytest.raises(ValueError, match=re.escape(f"{where}: sample 16 is not finite")):
        run_config(cfg, tmp_path / "run")
    assert not (tmp_path / "run" / "report.json").exists()


@pytest.mark.parametrize("validate_only", [True, False], ids=["validate", "run"])
def test_custom_window_whose_energy_overflows_is_refused(tmp_path, validate_only):
    # finite samples whose Zak magnitudes overflow are refused at validation,
    # by the rule of the Zak and Gram routes, and no report is written
    path = tmp_path / "samples.csv"
    path.write_text("re,im\n" + "1e200,0\n" * 8 + "0,0\n" * 56)
    cfg = {"mode": "zak", "window": {"preset": "custom", "samples_path": str(path)},
           "time_resolution": 8, "translates": 8}
    proc = _run(tmp_path, cfg, extra=["--validate-only"] if validate_only else [])
    assert proc.returncode == 1
    assert "config ok" not in proc.stdout
    assert (
        "config error: window.samples_path: window energy translates * sum |phi|^2 "
        "overflows"
    ) in proc.stderr
    assert not (tmp_path / "run" / "report.json").exists()


@pytest.mark.parametrize("validate_only", [True, False], ids=["validate", "run"])
def test_custom_generator_whose_energy_overflows_is_refused(tmp_path, validate_only):
    # finite samples whose squared moduli sum past the float range are
    # refused by Generator itself, before any warning: with every warning an
    # error, the run ends on one clean config error line, not a traceback
    path = tmp_path / "samples.csv"
    path.write_text("re\n" + "1e154\n0\n0\n0\n" * 2)
    cfg = {"mode": "shiftinv", "generator": {"preset": "custom", "grid_size": 4,
                                             "radius": 1, "samples_path": str(path)}}
    cmd = [sys.executable, "-m", "framelab", "--config", _write(tmp_path, cfg),
           "--out", str(tmp_path / "run"), *(["--validate-only"] if validate_only else [])]
    env = {**os.environ, "PYTHONWARNINGS": "error"}
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert proc.stderr == "config error: generator: fhat energy sum |fhat|^2 overflows\n"
    assert not (tmp_path / "run" / "report.json").exists()


@pytest.mark.parametrize(
    "text,row",
    [
        # a first row whose second field does not parse is no header
        ("1.0,\n" + "1,0\n" * 16, ['1.0', '']),
        ("re,im\n" + "1,0\n" * 15 + "1,2,3\n", ['1', '2', '3']),
        ("re,im\n" + "1,0\n" * 8 + "x,0\n" + "1,0\n" * 8, ['x', '0']),
    ],
    ids=["first_row", "three_fields", "later_row"],
)
@pytest.mark.parametrize("mode", sorted(_NONFINITE))
def test_malformed_sample_row_refused(tmp_path, mode, text, row):
    # The config needs 16 samples.  Skipping the bad row, or reading 1,2,3
    # as 1+2j, would leave exactly 16, so only the row rule refuses a file.
    where, make = _NONFINITE[mode]
    path = tmp_path / "samples.csv"
    path.write_text(text)
    assert _diags(make(str(path))) == [f"{where}: {path}: malformed sample row {row!r}"]
    path.write_text("re,im\n" + "1,0\n" * 16)
    assert _diags(make(str(path))) == []


@pytest.mark.parametrize("text", ["re,im\n", "re\n\n"], ids=["header", "blank_row"])
@pytest.mark.parametrize("mode", sorted(_NONFINITE))
def test_header_only_samples_file_is_refused(tmp_path, mode, text):
    # a header row, and blank rows, are no samples
    where, make = _NONFINITE[mode]
    path = tmp_path / "samples.csv"
    path.write_text(text)
    assert _diags(make(str(path))) == [f"{where}: {path}: no samples found"]


@pytest.mark.parametrize(
    "name",
    ["analyze_step", "shiftinv_gaussian", "heisenberg_half", "witness_dip", "zak_gaussian"],
)
def test_cli_run_does_not_import_numpy_random(tmp_path, name):
    # The probes draw from wspace._Normals; a cold process that imported
    # numpy.random for them would load every bit generator and OpenSSL's
    # hash module to draw a few thousand numbers.
    config = Path(__file__).resolve().parents[1] / "configs" / f"{name}.json"
    script = (
        "import sys, framelab.cli as c\n"
        f"code = c.main(['--config', {str(config)!r}, '--out', {str(tmp_path)!r}])\n"
        "print(code, 'numpy.random' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.stdout.splitlines()[-1] == "0 False", proc.stdout + proc.stderr
