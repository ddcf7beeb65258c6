"""Acceptance gate: eight pinned criteria, one PASS/FAIL line each.

Run ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines.  Each criterion states its own tolerance; none of them may be
loosened without a recorded decision.
"""

import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

import framelab.heisenberg as hb
import framelab.shiftinv as si
from framelab import (
    Field,
    OperatorFamily,
    Verdict,
    WeightedSpace,
    bessel_excess,
    build_default,
    decide_onb,
    frame_spectrum,
    inner,
    parseval_residual,
    random_field,
    synthesis_gram,
    witness_lower_failure,
    witness_ratio,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _finish(name, failures, elapsed=None, budget=None):
    over = elapsed is not None and budget is not None and elapsed >= budget
    ok = not failures and not over
    line = f"{'PASS' if ok else 'FAIL'} {name}"
    if elapsed is not None:
        line += f" [{elapsed:.1f}s]"
    print(line)
    assert not failures, "; ".join(str(f) for f in failures[:5])
    if budget is not None:
        assert elapsed < budget, f"runtime {elapsed:.1f}s exceeds {budget}s budget"


def _family(w, m):
    sp = WeightedSpace(w.size, m, w)
    return sp, OperatorFamily(sp, build_default(w.size, m))


def test_criterion_1_spectral_equivalence_sweep():
    """Frame-operator and synthesis-Gram spectra both equal the weight
    multiset {w_i} x M to 1e-9 per eigenvalue, 50 seeded instances."""
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(1001)
    sizes = [2, 4, 8, 16, 32]
    fibers = [1, 2, 4]
    for trial in range(50):
        n = sizes[int(rng.integers(len(sizes)))]
        m = fibers[int(rng.integers(len(fibers)))]
        w = rng.uniform(0.1, 10.0, n)
        sp, fam = _family(w, m)
        expect = np.sort(np.repeat(w, m))
        spec = frame_spectrum(fam)
        gram_eig = np.sort(np.linalg.eigvalsh(synthesis_gram(fam)))
        if spec.shape != expect.shape or np.max(np.abs(spec - expect)) > 1e-9:
            failures.append(f"trial {trial}: frame spectrum off (N={n}, M={m})")
        if np.max(np.abs(gram_eig - expect)) > 1e-9:
            failures.append(f"trial {trial}: gram spectrum off (N={n}, M={m})")
        if abs(spec[0] - w.min()) > 1e-9 or abs(spec[-1] - w.max()) > 1e-9:
            failures.append(f"trial {trial}: oracle bounds != (min w, max w)")
    _finish(
        "criterion 1: spectral equivalence sweep (50 instances, tol 1e-9)",
        failures,
        time.perf_counter() - t0,
        budget=30.0,
    )


def test_criterion_2_parseval_and_bessel():
    """Per-index Parseval identity to 1e-10 relative and the mass Bessel
    cap never exceeded (slack 1e-10), 200 random fields."""
    failures = []
    rng = np.random.default_rng(1002)
    for trial in range(200):
        n = int(rng.integers(2, 17))
        m = int(rng.integers(1, 5))
        w = rng.uniform(0.1, 10.0, n)
        sp, fam = _family(w, m)
        f = random_field(sp, rng)
        pres = parseval_residual(fam, f)
        if pres > 1e-10:
            failures.append(f"trial {trial}: parseval residual {pres:.2e}")
        slack = 1e-10 * max(1.0, inner(sp, f, f).real)
        exc = bessel_excess(fam, f)
        if exc > slack:
            failures.append(f"trial {trial}: bessel excess {exc:.2e}")
    _finish(
        "criterion 2: Parseval 1e-10 and mass Bessel cap (200 fields)", failures
    )


def test_criterion_3_onb_iff_unit_weight():
    """ONB verdict exactly when max|w - 1| <= 1e-9; a dip to 0.9 reports
    an energy defect ratio of 0.9 within 1e-10."""
    failures = []
    rng = np.random.default_rng(1003)
    # within tolerance -> onb
    w_in = np.ones(8)
    w_in[2] = 1.0 + 9e-10
    sp, fam = _family(w_in, 2)
    if decide_onb(fam, tol=1e-9).verdict is not Verdict.ONB:
        failures.append("within-tolerance weight not recognized as onb")
    # just outside -> not onb
    w_out = np.ones(8)
    w_out[2] = 1.0 + 2e-9
    sp, fam = _family(w_out, 2)
    if decide_onb(fam, tol=1e-9).verdict is Verdict.ONB:
        failures.append("out-of-tolerance weight passed as onb")
    # random perturbations classified by the exact rule
    for trial in range(20):
        w = np.ones(int(rng.integers(2, 13)))
        if rng.uniform() < 0.5:
            w[int(rng.integers(w.size))] += rng.uniform(0.01, 0.5)
        sp, fam = _family(w, int(rng.integers(1, 4)))
        verdict = decide_onb(fam, tol=1e-9).verdict
        should = np.max(np.abs(w - 1.0)) <= 1e-9
        if (verdict is Verdict.ONB) != should:
            failures.append(f"trial {trial}: onb iff rule broken")
    # the dip anchor
    w_dip = np.ones(8)
    w_dip[5] = 0.9
    sp, fam = _family(w_dip, 2)
    rep = decide_onb(fam, tol=1e-9)
    ratio = rep.residuals.get("onb_defect_ratio")
    if ratio is None or abs(ratio - 0.9) > 1e-10:
        failures.append(f"defect ratio {ratio} != 0.9 +- 1e-10")
    _finish("criterion 3: onb iff |w-1| <= 1e-9; dip defect ratio 0.9", failures)


def test_criterion_4_witness_soundness():
    """Whenever min w < A_claimed the constructed witness satisfies
    energy_ratio <= max_E w < A_claimed strictly, by the two-sum formula."""
    failures = []
    rng = np.random.default_rng(1004)
    checked = 0
    for trial in range(50):
        n = int(rng.integers(2, 33))
        m = int(rng.integers(1, 5))
        w = rng.uniform(0.1, 10.0, n)
        a_claimed = float(rng.uniform(w.min(), w.max())) + 1e-9
        if not w.min() < a_claimed:
            continue
        sp, fam = _family(w, m)
        field = witness_lower_failure(fam, a_claimed)
        if field is None:
            failures.append(f"trial {trial}: no witness despite min w < claim")
            continue
        mask = w < a_claimed
        two_sum = float((w[mask] ** 2).sum() / w[mask].sum())
        ratio = witness_ratio(fam, field)
        if abs(ratio - two_sum) > 1e-12 * max(1.0, two_sum):
            failures.append(f"trial {trial}: ratio {ratio} != two-sum {two_sum}")
        # exact math gives two_sum <= max_E w; floats may add one ulp when
        # the sub-threshold set is a single point, so allow that much
        ulp = 4.0 * np.finfo(float).eps
        if not two_sum <= w[mask].max() * (1.0 + ulp):
            failures.append(f"trial {trial}: two-sum above the sub-threshold max")
        if not ratio < a_claimed:
            failures.append(f"trial {trial}: ratio {ratio} not below claim")
        checked += 1
    if checked < 40:
        failures.append(f"only {checked} instances had min w < claim")
    _finish("criterion 4: witness soundness (two-sum formula, strict)", failures)


def test_criterion_5_periodized_indicator_and_mass():
    """Unit-band indicator folds to weight 1 (tol 1e-12); the mass identity
    holds to 1e-8 for 20 random band-limited generators; (1, 2) is a valid
    non-optimal bound pair for the indicator system."""
    failures = []
    for n in (4, 16, 64):
        w = si.periodized_weight(si.make_generator("indicator", n))
        if np.max(np.abs(w - 1.0)) > 1e-12:
            failures.append(f"indicator weight deviates at N={n}")
    rng = np.random.default_rng(1005)
    for trial in range(20):
        N = int(rng.integers(4, 33))
        R = int(rng.integers(1, 4))
        fhat = rng.standard_normal(2 * R * N) + 1j * rng.standard_normal(2 * R * N)
        gen = si.Generator(fhat, R, N)
        w = si.periodized_weight(gen)
        mass = w.sum() / N
        norm_sq = (np.abs(fhat) ** 2).sum() / N
        if abs(mass - norm_sq) > 1e-8 * max(1.0, norm_sq):
            failures.append(f"trial {trial}: mass identity off")
    w = si.periodized_weight(si.make_generator("indicator", 32))
    if not (1.0 <= w.min() + 1e-12 and w.max() <= 2.0 + 1e-12):
        failures.append("pair (1, 2) rejected as valid bounds")
    _finish("criterion 5: indicator weight 1, mass identity, (1,2) valid", failures)


def test_criterion_6_zak_criterion():
    """Indicator window: |Z| = 1 and Gabor verdict onb.  Gaussian window at
    32 translates: min |Z|^2 < 1e-2 and the system is not a Riesz basis.
    Zak bounds match the Gram spectrum to 1e-6 relative."""
    t0 = time.perf_counter()
    failures = []
    N = L = 32
    phi = si.gabor_window("indicator", N, L)
    z = si.zak_transform(phi, N, L).values
    if np.max(np.abs(np.abs(z) - 1.0)) > 1e-12:
        failures.append("indicator |Z| not identically 1")
    rep = si.gabor_riesz_check(phi, N, L)
    if rep.verdict is not Verdict.ONB:
        failures.append(f"indicator verdict {rep.verdict}, expected onb")
    if rep.residuals["zak_vs_gram"] > 1e-6:
        failures.append("indicator zak/gram mismatch")

    phig = si.gabor_window("gaussian", N, L)
    zg = si.zak_transform(phig, N, L).values
    if (np.abs(zg) ** 2).min() >= 1e-2:
        failures.append("gaussian Zak minimum not small")
    repg = si.gabor_riesz_check(phig, N, L)
    if repg.verdict in (Verdict.RIESZ_BASIS, Verdict.ONB):
        failures.append(f"gaussian verdict {repg.verdict}, expected not Riesz")
    if repg.residuals["zak_vs_gram"] > 1e-6:
        failures.append("gaussian zak/gram mismatch")
    _finish(
        "criterion 6: Zak criterion at 32 translates (onb / not-Riesz)",
        failures,
        time.perf_counter() - t0,
        budget=10.0,
    )


def test_criterion_7_dilation_band_anchors():
    """Collapsed weight to 1e-12 pointwise; band mass 0.375 at (0.5, 1);
    sandwich eps^d <= w <= 1 on the support; isometry residual < 1e-8 over
    50 sequences; discretized frame bounds inside [eps^d - 1e-9, 1 + 1e-9]."""
    failures = []
    rng = np.random.default_rng(1007)
    for trial in range(25):
        eps = float(rng.uniform(0.0, 0.95))
        d = int(rng.integers(0, 5))
        alpha = rng.uniform(1e-9, 1.0, 64)
        w = hb.hs_weight(eps, d, alpha)
        if np.max(np.abs(w - np.where(alpha > eps, alpha ** d, 0.0))) > 1e-12:
            failures.append(f"trial {trial}: collapsed weight off")
    if abs(hb.psi_norm_sq(0.5, 1) - 0.375) > 1e-9:
        failures.append("band mass at (0.5, 1) != 0.375")
    grid = hb.midpoint_grid(4096)
    for eps in (0.1, 0.5, 0.9):
        for d in (1, 2, 3):
            lo, hi = hb.weight_envelope_check(eps, d, grid)
            if lo < eps ** d - 1e-12 or hi > 1.0 + 1e-12:
                failures.append(f"sandwich broken at eps={eps}, d={d}")
    model = hb.CenterTranslateModel(0.3, 2, resolution=2048, k_max=4)
    for trial in range(50):
        a = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        if hb.isometry_residual(model, a) >= 1e-8:
            failures.append(f"isometry residual too large (trial {trial})")
    for eps in (0.1, 0.5, 0.9):
        for d in (1, 2, 3):
            rep = hb.frame_report(eps, d, resolution=128)
            lo, hi = rep.oracle_bounds
            if lo < eps ** d - 1e-9 or hi > 1.0 + 1e-9:
                failures.append(f"frame bounds escape at eps={eps}, d={d}")
            if rep.verdict is not Verdict.FRAME:
                failures.append(f"no frame verdict at eps={eps}, d={d}")
    _finish("criterion 7: dilation band anchors and frame bounds", failures)


def test_criterion_8_cli_determinism_and_exit_codes():
    """Every example config yields byte-identical reports on a second run;
    exit codes 0, 2 and 1 are all exercised by the corpus."""
    failures = []
    configs = sorted(CONFIG_DIR.glob("*.json"))
    if len(configs) < 8:
        failures.append(f"only {len(configs)} example configs found")
    seen_codes = set()
    for cfg in configs:
        outs, codes = [], []
        for run in ("first", "second"):
            out = Path(tempfile.mkdtemp(prefix="framelab-acc-"))
            proc = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "framelab",
                    "--config",
                    str(cfg),
                    "--out",
                    str(out),
                ],
                capture_output=True,
                text=True,
            )
            outs.append(out)
            codes.append(proc.returncode)
        if codes[0] != codes[1]:
            failures.append(f"{cfg.name}: exit code changed between runs")
        seen_codes.add(codes[0])
        ra, rb = outs[0] / "report.json", outs[1] / "report.json"
        if codes[0] != 1:
            if not (ra.is_file() and rb.is_file()):
                failures.append(f"{cfg.name}: report missing")
            elif ra.read_bytes() != rb.read_bytes():
                failures.append(f"{cfg.name}: reports differ between runs")
        elif ra.exists():
            failures.append(f"{cfg.name}: report written despite config error")
    for code in (0, 1, 2):
        if code not in seen_codes:
            failures.append(f"exit code {code} never exercised by the corpus")
    _finish("criterion 8: CLI determinism and exit-code contract", failures)


def test_acceptance_report_verdicts_match_configs():
    """Spot anchors for the example corpus: known verdicts and the 0.5
    witness ratio survive the CLI round trip."""
    failures = []
    expectations = {
        "analyze_onb.json": ("onb", 0),
        "analyze_step.json": ("riesz_basis", 0),
        "witness_dip.json": ("frame", 0),
        "shiftinv_indicator.json": ("onb", 0),
        "shiftinv_gaussian.json": ("riesz_basis", 0),
        "zak_indicator.json": ("onb", 0),
        "zak_gaussian.json": ("not_frame", 0),
        "heisenberg_half.json": ("frame", 0),
        "strict_consistency.json": ("riesz_basis", 2),
    }
    for name, (verdict, code) in expectations.items():
        out = Path(tempfile.mkdtemp(prefix="framelab-acc-"))
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "framelab",
                "--config",
                str(CONFIG_DIR / name),
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
        )
        if proc.returncode != code:
            failures.append(f"{name}: exit {proc.returncode}, expected {code}")
            continue
        doc = json.loads((out / "report.json").read_text())
        if doc["verdict"] != verdict:
            failures.append(f"{name}: verdict {doc['verdict']}, expected {verdict}")
        if name == "witness_dip.json":
            ratio = doc["witness"]["ratio"]
            if abs(ratio - 0.5) > 1e-12:
                failures.append(f"witness ratio {ratio} != 0.5")
    _finish("corpus spot anchors: verdicts and witness ratio", failures)
