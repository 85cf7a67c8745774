"""End-to-end acceptance suite.

Each test prints a single PASS/FAIL line for its criterion.  Statistical
checks run on fixed seeds so reruns are deterministic.
"""

import json
import multiprocessing
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from coxmra import (
    SarhSpec,
    SpatialGrid,
    ThetaDomain,
    TimeGrid,
    default_variance_profile,
    divergence,
    dwt,
    idwt,
    loo_validate,
    normalized_eigenfunctions,
    operator_to_wavelet,
    sample_counts,
    simulate,
    wavelet_to_operator_eigs,
)
from coxmra.cli import main as cli_main
from coxmra.cox import integrated_intensity, intensity, save_counts
from coxmra.estimator import EstimationReport, estimate_all
from coxmra.grids import FunctionalField, detrend
from coxmra.predict import predict_coeffs
from coxmra.spectral import FrequencyGrid, all_periodograms, contrast_functional, stationarity_check
from coxmra.wavelet import field_dwt, level_slices
from oracles import moment_bound_check, periodogram_direct

LAMBDA1 = np.array([0.300, 0.270, 0.230, 0.200, 0.170, 0.130, 0.100, 0.030, 0.010, 0.005])
LAMBDA2 = np.array([0.500, 0.470, 0.430, 0.400, 0.370, 0.330, 0.300, 0.230, 0.200, 0.150])


def _verdict(num: int, name: str, ok: bool) -> None:
    print(f"\nACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


def _reference_spec(depth: int = 4) -> SarhSpec:
    return SarhSpec(
        eigenvalues1=LAMBDA1,
        eigenvalues2=LAMBDA2,
        innovation_variances=default_variance_profile(LAMBDA1, LAMBDA2),
        time=TimeGrid(depth),
        couple_l3=True,
    )


def test_criterion_1_mse_decay():
    """Per-scale quadratic error decays monotonically over N in
    {100, 900, 2500}; coarse-scale improvement ratio in [4, 16].

    Uses 20 replications with common random numbers: the three sample
    sizes are nested crops of one realization per replication, which
    pairs the comparisons without changing any marginal distribution.
    """
    t0 = time.time()
    depth, j0 = 4, 1
    tg = TimeGrid(depth)
    spec = _reference_spec(depth)
    phi = normalized_eigenfunctions(tg, 10)
    theta0 = np.stack(
        [
            operator_to_wavelet(lam, phi, tg, j0).matrix.diagonal()
            for lam in (LAMBDA1, LAMBDA2, -LAMBDA1 * LAMBDA2)
        ],
        axis=1,
    )
    domain = ThetaDomain()
    sq_by_n: dict[int, list[np.ndarray]] = {100: [], 900: [], 2500: []}
    for rep in range(20):
        big = simulate(spec, SpatialGrid(50, 50), 64, seed=5000 + rep)
        for side in (10, 30, 50):
            sub = FunctionalField(
                SpatialGrid(side, side), tg, big.values[:side, :side]
            )
            residual, _ = detrend(sub)
            report = estimate_all(field_dwt(residual, j0), domain)
            sq_by_n[side * side].append((report.diagonal_thetas() - theta0) ** 2)

    slices = level_slices(j0, depth)
    ok = True
    for label, sl in slices.items():
        mse = [float(np.mean(np.stack(sq_by_n[n])[:, sl, :])) for n in (100, 900, 2500)]
        monotone = mse[0] > mse[1] > mse[2]
        ok &= monotone
        print(f"scale {label}: " + " -> ".join(f"{v:.3e}" for v in mse))
    coarse = slices[("scaling", j0)]
    ratio = float(
        np.mean(np.stack(sq_by_n[100])[:, coarse, :])
        / np.mean(np.stack(sq_by_n[900])[:, coarse, :])
    )
    print(f"coarse-scale 100->900 ratio: {ratio:.2f}")
    ok &= 4.0 <= ratio <= 16.0
    elapsed = time.time() - t0
    print(f"elapsed: {elapsed:.0f}s")
    ok &= elapsed < 600.0
    _verdict(1, "mse decay", ok)


def test_criterion_2_divergence_properties():
    t0 = time.time()
    freq = FrequencyGrid(12, 12)
    axis = np.linspace(-0.95, 0.95, 21)
    grid = [
        (a, b, c)
        for a in axis
        for b in axis
        for c in axis
        if stationarity_check((a, b, c))
    ]
    ok = True
    for theta0 in ((0.3, 0.5, -0.15), (0.2, 0.4, -0.08), (-0.1, 0.3, 0.05)):
        ok &= divergence(theta0, theta0, freq) == 0.0
        values = np.array([divergence(theta0, th, freq) for th in grid])
        ok &= bool(values.min() >= -1e-10)
        # identity against the contrast functional on a subsample
        for th in grid[:: max(1, len(grid) // 25)]:
            diff = contrast_functional(theta0, th, freq) - contrast_functional(
                theta0, theta0, freq
            )
            ok &= abs(divergence(theta0, th, freq) - diff) <= 1e-10
    elapsed = time.time() - t0
    print(f"stationary grid size: {len(grid)}, elapsed: {elapsed:.0f}s")
    ok &= elapsed < 60.0
    _verdict(2, "divergence properties", ok)


def test_criterion_3_periodogram_oracle():
    # every column of one multi-column fDFT call, at every half-plane point
    # and at its mirror, against the FFT-free direct sum; the first
    # column and the 50 shapes are the draws of `rng` alone
    rng = np.random.default_rng(2024)
    more = np.random.default_rng(2025)
    ok = True
    for _ in range(50):
        s1 = int(rng.integers(2, 17))
        s2 = int(rng.integers(2, 17))
        x = np.dstack([rng.normal(size=(s1, s2)), more.normal(size=(s1, s2, 2))])
        freq = FrequencyGrid(s1, s2)
        f = all_periodograms(x, freq)
        for a in range(x.shape[-1]):
            slow = periodogram_direct(x[:, :, a])
            scale = np.abs(slow).max()
            for points in freq._pairs:
                ok &= bool(np.abs(f[a] - slow.ravel()[points]).max() <= 1e-10 * max(scale, 1.0))
    _verdict(3, "periodogram oracle", ok)


def test_criterion_4_wavelet_suite():
    rng = np.random.default_rng(77)
    ok = True
    for _ in range(200):
        depth = int(rng.integers(1, 13))
        x = rng.normal(scale=10.0, size=1 << depth)
        y = rng.normal(size=1 << depth)
        alpha = float(rng.normal())
        for j0 in range(depth + 1):
            c = dwt(x, j0)
            ok &= bool(np.abs(idwt(c, j0) - x).max() <= 1e-8)
            ok &= abs(np.sum(c**2) - np.sum(x**2)) <= 1e-6 * max(np.sum(x**2), 1.0)
            lin = dwt(alpha * x + y, j0) - (alpha * c + dwt(y, j0))
            ok &= bool(np.abs(lin).max() <= 1e-8)
    _verdict(4, "wavelet suite", ok)


def test_criterion_5_eigenvalue_recovery():
    # deterministic half: exact round trip through the wavelet domain
    tg = TimeGrid(5)
    phi = normalized_eigenfunctions(tg, 10)
    ok = True
    for lam in (LAMBDA1, LAMBDA2):
        op = operator_to_wavelet(lam, phi, tg, 1)
        eigs = wavelet_to_operator_eigs(op, 10)
        ok &= bool(np.abs(np.sort(eigs)[::-1] - np.sort(lam)[::-1]).max() <= 1e-6)

    # statistical half: estimated eigenvalue MSE shrinks from N=100 to
    # N=2500 in at least 18 of 20 paired seeds
    spec = _reference_spec(4)
    tg4 = TimeGrid(4)
    domain = ThetaDomain()
    wins = 0
    for seed in range(20):
        big = simulate(spec, SpatialGrid(50, 50), 64, seed=9000 + seed)
        mse = {}
        for side in (10, 50):
            sub = FunctionalField(
                SpatialGrid(side, side), tg4, big.values[:side, :side]
            )
            residual, _ = detrend(sub)
            report = estimate_all(field_dwt(residual, 1), domain)
            k = report.eigenvalues1.size
            mse[side] = 0.5 * (
                np.mean((report.eigenvalues1 - LAMBDA1[:k]) ** 2)
                + np.mean((report.eigenvalues2 - LAMBDA2[:k]) ** 2)
            )
        wins += mse[50] < mse[10]
    print(f"eigenvalue MSE wins: {wins}/20")
    ok &= wins >= 18
    _verdict(5, "eigenvalue recovery", ok)


def test_criterion_6_predictor_optimality():
    depth, j0 = 4, 1
    tg = TimeGrid(depth)
    spec = _reference_spec(depth)
    sig2 = spec.innovation_variances
    phi = normalized_eigenfunctions(tg, 10)
    fld = simulate(spec, SpatialGrid(50, 50), 64, seed=100)
    mc = field_dwt(fld, j0)

    def residual_total(l1, l2, l3):
        ops = tuple(operator_to_wavelet(lam, phi, tg, j0) for lam in (l1, l2, l3))
        report = EstimationReport(
            j0=j0, depth=depth, n_sites=2500, estimates=[],
            operators=ops, k=7,
        )
        pred = predict_coeffs(mc, report)
        resid = (mc.coeffs - pred)[1:, 1:]
        return resid, float((resid**2).sum())

    resid, base = residual_total(LAMBDA1, LAMBDA2, -LAMBDA1 * LAMBDA2)
    # per-component residual variance against the innovation variances
    curves = idwt(resid, j0)
    scores = np.tensordot(curves, phi.T, axes=1) * tg.weight
    res_var = (scores**2).mean(axis=(0, 1))
    rel = np.abs(res_var / sig2 - 1.0)
    print("max relative residual-variance error:", float(rel.max()))
    ok = bool(rel.max() <= 0.10)

    # no random perturbation of the component parameters (radius 0.1 per
    # AR triple) may improve the one-step fit
    rng = np.random.default_rng(0)
    worse = 0
    for _ in range(10):
        d = rng.normal(size=(10, 3))
        d *= 0.1 / np.linalg.norm(d, axis=1, keepdims=True)
        _, val = residual_total(
            LAMBDA1 + d[:, 0], LAMBDA2 + d[:, 1], -LAMBDA1 * LAMBDA2 + d[:, 2]
        )
        worse += val > base
    print(f"perturbations not improving: {worse}/10")
    ok &= worse == 10
    _verdict(6, "predictor optimality", ok)


def test_criterion_7_moment_bound():
    specs = [
        _reference_spec(4),
        SarhSpec(
            eigenvalues1=np.array([0.4, 0.2, 0.1]),
            eigenvalues2=np.array([0.3, 0.2, 0.1]),
            innovation_variances=np.array([0.3, 0.1, 0.05]),
            time=TimeGrid(3),
            couple_l3=True,
        ),
        SarhSpec(
            eigenvalues1=np.array([0.25, 0.1]),
            eigenvalues2=np.array([0.35, 0.15]),
            innovation_variances=np.array([0.2, 0.1]),
            time=TimeGrid(5),
            couple_l3=False,
            eigenvalues3=np.array([0.1, 0.05]),
        ),
    ]
    ok = True
    for i, spec in enumerate(specs):
        second, bound, passed = moment_bound_check(spec, n_mc=1000, seed=i)
        print(f"spec {i}: E[Psi^2] = {second:.3f}, bound = {bound:.3f}")
        ok &= passed
    _verdict(7, "second-moment bound", ok)


def test_criterion_8_poisson_layer(tmp_path):
    spec = _reference_spec(4)
    fld = simulate(spec, SpatialGrid(50, 50), 64, seed=400)
    means = integrated_intensity(intensity(fld))
    cg = sample_counts(means, seed=41)
    total_mean = float(means.sum())
    diff = abs(float(cg.counts.sum()) - total_mean)
    stderr = np.sqrt(total_mean)
    print(f"count total {cg.counts.sum()}, mean total {total_mean:.1f}, "
          f"|diff|/stderr = {diff / stderr:.2f}")
    ok = diff <= 3.0 * stderr

    # byte-exact reproducibility under the fixed seed
    again = sample_counts(means, seed=41)
    ok &= bool(np.array_equal(cg.counts, again.counts))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    save_counts(cg, a)
    save_counts(again, b)
    ok &= a.read_bytes() == b.read_bytes()
    _verdict(8, "poisson layer", ok)


def test_criterion_9_pipeline_determinism(tmp_path, pool_maps):
    # 48x48 sites at depth 3: the field file spans two formatting blocks and
    # two parsing ranges, so the --threads 4 chain maps work on its workers
    config = {
        "grid": {"s1": 48, "s2": 48},
        "time": {"depth": 3, "j0": 1},
        "model": {"truncation": 5},
        "simulation": {"burn_in": 64, "seed": 3, "replications": 2},
        "validation": {"period_length": 2, "max_folds": 2},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    runner = CliRunner()

    def chain(out: Path, threads: int) -> dict[str, bytes]:
        base = ["--config", str(config_path), "--out", str(out), "--threads", str(threads)]
        for args in (
            ["simulate"],
            ["estimate", str(out / "field_000.csv")],
            ["predict", str(out / "field_000.csv"), str(out / "field_000_report.ndjson")],
            ["validate", str(out / "field_000.csv")],
            ["report", "--kind", "mse", str(out / "field_000_report.ndjson")],
        ):
            result = runner.invoke(cli_main, base + args)
            assert result.exit_code == 0, result.output
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    runs = [chain(tmp_path / name, threads) for name, threads in
            (("r1", 1), ("r2", 1))]
    pool_maps.clear()
    runs.append(chain(tmp_path / "r4", 4))
    forks = "fork" in multiprocessing.get_all_start_methods() and threading.active_count() == 1
    ok = runs[0] == runs[1] == runs[2] and bool(pool_maps) == forks
    print(f"files compared: {len(runs[0])}, maps on workers: {len(pool_maps)}")
    _verdict(9, "pipeline determinism", ok)


def test_criterion_10_loo_validation_sanity():
    # flat-variance stationary model: equal innovation variances over a
    # complete basis give a time-homogeneous error profile
    k = 64
    spec = SarhSpec(
        eigenvalues1=np.linspace(0.30, 0.05, k),
        eigenvalues2=np.linspace(0.50, 0.10, k),
        innovation_variances=np.full(k, 1.0 / k),
        time=TimeGrid(6),
        couple_l3=True,
    )
    fld = simulate(spec, SpatialGrid(12, 12), 64, seed=200)
    residual, _ = detrend(fld)
    sites = [(p, q) for p in (3, 6, 9) for q in (3, 6, 9)] + [(4, 8), (8, 4), (5, 5)]
    summary = loo_validate(
        residual, ThetaDomain(), j0=2, period_length=5, sites=sites
    )
    per = summary.period_errors()
    ratio = float(per.max() / per.min())
    print(f"periods: {per.size}, max/min: {ratio:.3f}, aloocve: {summary.aloocve:.4f}")
    ok = bool((per > 0).all()) and ratio < 2.0 and per.size >= 12
    _verdict(10, "loo validation sanity", ok)
