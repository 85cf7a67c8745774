"""The benchmark's workloads: seeded inputs, one fixed job each, checks.

Each workload has a `setup(seed, workdir)` that validates its config and
builds every generated input, and a `job(inputs, workdir, rep, span)`
that runs the fixed job once and returns an `Outcome`.  A job is split
into steps; `span(name)` times one step (and records it as a span when
tracing).  Checks that need more than a digest run only on the first
repetition: later repetitions must reproduce its digest exactly.

The library is called through module attributes (``sarh.simulate``, not
a name imported into this file), so the traced run sees every call.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import shutil
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from click.testing import CliRunner

from coxmra import cli, config, estimator, grids, sarh, wavelet

# the package re-exports the function `predict` under the module's name
predict = importlib.import_module("coxmra.predict")

# mc_study: the criterion-1 Monte Carlo design, REPLICATIONS per job
MC_SIDE = 50
MC_CROPS = (10, 30, 50)
MC_REPLICATIONS = 2
# loo_cross: the cross fit uses the criterion-9 model; LOO runs on a
# two-sample field so that all 121 folds of the 12x12 lattice fit in a
# run.  Both search the coupled box domain: in the uncoupled box some
# seeds give a cross pair that crawls for ~16k pattern steps (about 1 in
# 5 seeds at this size), which would make wall_s a property of the seed.
LOO_SIDE = 12
# cli_counts: raw-record file of scattered sites
RAW_SITES = 400
RAW_TIMES = 64


@dataclass
class Outcome:
    digest: str
    attempted: int
    failed: int = 0
    failures: list = field(default_factory=list)
    # first-repetition results: accuracy against truth and extra figures
    truth_mse: float = float("nan")
    extra: dict = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _error(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def _theta_table(report) -> np.ndarray:
    return np.array([e.theta for e in report.estimates], dtype=float)


def _check_thetas(out: Outcome, label: str, report, domain) -> None:
    th = _theta_table(report)
    if not np.all(np.isfinite(th)):
        out.fail(f"{label}: non-finite theta")
    elif not all(domain.contains(t) for t in th):
        out.fail(f"{label}: theta outside its domain")


def _truth_matrices(spec, j0: int) -> np.ndarray:
    """Wavelet-domain truth of the three operators, shape (3, n, n)."""
    phi = wavelet.normalized_eigenfunctions(spec.time, spec.truncation)
    return np.stack(
        [
            wavelet.operator_to_wavelet(lam, phi, spec.time, j0).matrix
            for lam in (spec.eigenvalues1, spec.eigenvalues2, spec.eigenvalues3)
        ]
    )


def _config(raw: dict) -> config.RunConfig:
    return config.RunConfig.model_validate(raw)


# ---------------------------------------------------------------------------
# mc_study


def setup_mc_study(seed: int, workdir: Path) -> dict:
    cfg = _config(
        {
            "grid": {"s1": MC_SIDE, "s2": MC_SIDE},
            "time": {"depth": 4, "j0": 1},
            "simulation": {"seed": seed, "replications": MC_REPLICATIONS},
        }
    )
    spec = cfg.sarh_spec()
    seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(MC_REPLICATIONS)]
    theta0 = np.diagonal(_truth_matrices(spec, cfg.time.j0), axis1=1, axis2=2).T
    return {
        "cfg": cfg,
        "spec": spec,
        "domain": cfg.theta_domain(),
        "seeds": seeds,
        "theta0": theta0,
        "digests": {"config+seeds": _sha((cfg.canonical_json() + json.dumps(seeds)).encode())},
    }


def job_mc_study(inp: dict, workdir: Path, rep: int, span) -> Outcome:
    cfg, spec, domain = inp["cfg"], inp["spec"], inp["domain"]
    out = Outcome("", attempted=0)
    digest = hashlib.sha256()
    sq = []
    for r, seed in enumerate(inp["seeds"]):
        with span("bench.simulate"):
            big = sarh.simulate(spec, cfg.spatial_grid(), cfg.simulation.burn_in, seed)
        for side in MC_CROPS:
            out.attempted += 1
            label = f"replication {r}, {side}x{side}"
            try:
                with span("bench.fit"):
                    sub = grids.FunctionalField(
                        grids.SpatialGrid(side, side), spec.time, big.values[:side, :side]
                    )
                    residual, _ = grids.detrend(sub)
                    report = estimator.estimate_all(
                        wavelet.field_dwt(residual, cfg.time.j0), domain
                    )
            except Exception as exc:  # noqa: BLE001 - counted, run goes on
                out.fail(f"{label}: {_error(exc)}")
                continue
            digest.update(_theta_table(report).tobytes())
            if rep == 0:
                _check_thetas(out, label, report, domain)
                sq.append((report.diagonal_thetas() - inp["theta0"]) ** 2)
    out.digest = digest.hexdigest()
    if sq:
        out.truth_mse = float(np.mean(sq))
    return out


# ---------------------------------------------------------------------------
# loo_cross


def setup_loo_cross(seed: int, workdir: Path) -> dict:
    fit_cfg = _config(
        {
            "grid": {"s1": LOO_SIDE, "s2": LOO_SIDE},
            "time": {"depth": 3, "j0": 1},
            "model": {"truncation": 5},
            "estimation": {"include_cross": True, "couple_l3": True},
            "simulation": {"seed": seed},
        }
    )
    loo_cfg = _config(
        {
            "grid": {"s1": LOO_SIDE, "s2": LOO_SIDE},
            "time": {"depth": 1, "j0": 0},
            "model": {"truncation": 2},
            "estimation": {"couple_l3": True},
            "simulation": {"seed": seed + 1},
            "validation": {"neighborhood_radius": 1, "period_length": 1},
        }
    )
    fields = {}
    for name, cfg in (("fit", fit_cfg), ("loo", loo_cfg)):
        fields[name] = sarh.simulate(
            cfg.sarh_spec(), cfg.spatial_grid(), cfg.simulation.burn_in, cfg.simulation.seed
        )
    spec = fit_cfg.sarh_spec()
    return {
        "fit_cfg": fit_cfg,
        "loo_cfg": loo_cfg,
        "fields": fields,
        "truth": _truth_matrices(spec, fit_cfg.time.j0),
        "digests": {
            "fit_config": _sha(fit_cfg.canonical_json().encode()),
            "loo_config": _sha(loo_cfg.canonical_json().encode()),
            "fit_field": _sha(fields["fit"].values.tobytes()),
            "loo_field": _sha(fields["loo"].values.tobytes()),
        },
    }


def job_loo_cross(inp: dict, workdir: Path, rep: int, span) -> Outcome:
    fit_cfg, loo_cfg = inp["fit_cfg"], inp["loo_cfg"]
    domain = fit_cfg.theta_domain()
    out = Outcome("", attempted=2)
    digest = hashlib.sha256()
    try:
        with span("bench.cross_fit"):
            residual, _ = grids.detrend(inp["fields"]["fit"])
            coeffs = wavelet.field_dwt(residual, fit_cfg.time.j0)
            report = estimator.estimate_all(coeffs, domain, include_cross=True)
        with span("bench.predict"):
            result = predict.predict(coeffs, report)
    except Exception as exc:  # noqa: BLE001 - counted, run goes on
        out.fail(f"cross fit / predict: {_error(exc)}")
        report = result = None
    if report is not None:
        th = _theta_table(report)
        digest.update(th.tobytes())
        digest.update(result.predicted.values.tobytes())
        if rep == 0:
            _check_thetas(out, "cross fit", report, domain)
            ops = np.stack([op.matrix for op in report.operators])
            if not np.array_equal(ops, ops.transpose(0, 2, 1)):
                out.fail("cross fit: theta_ab != theta_ba")
            if not np.all(np.isfinite(result.predicted.values)):
                out.fail("predict: non-finite prediction")
            out.truth_mse = float(np.mean((ops - inp["truth"]) ** 2))

    n_folds = (LOO_SIDE - 1) ** 2
    out.attempted += n_folds
    try:
        with span("bench.loo"):
            loo_residual, _ = grids.detrend(inp["fields"]["loo"])
            summary = predict.loo_validate(
                loo_residual,
                loo_cfg.theta_domain(),
                j0=loo_cfg.time.j0,
                neighborhood_radius=loo_cfg.validation.neighborhood_radius,
                period_length=loo_cfg.validation.period_length,
            )
    except Exception as exc:  # noqa: BLE001 - counted, run goes on
        out.failed += n_folds
        out.failures.append(f"loo_validate: {_error(exc)}")
        summary = None
    if summary is not None:
        mafe = np.array([f.mafe for f in summary.folds])
        digest.update(mafe.tobytes())
        if rep == 0:
            if len(summary.folds) != n_folds:
                out.fail(f"loo_validate: {len(summary.folds)} folds, expected {n_folds}")
            for f in summary.folds:
                if not (np.isfinite(f.mafe) and f.mafe > 0):
                    out.fail(f"loo fold {f.site}: error {f.mafe!r} is not > 0")
            out.extra["loo_aloocve"] = summary.aloocve
    out.digest = digest.hexdigest()
    return out


# ---------------------------------------------------------------------------
# cli_counts


def _mean_surface(x, y, t, phase) -> np.ndarray:
    """Smooth count intensity of the raw-record generator."""
    return np.exp(
        1.5
        + 0.6 * np.sin(2 * np.pi * (x + phase[0])) * np.cos(2 * np.pi * (y + phase[1]))
        + 0.4 * np.sin(2 * np.pi * (t + phase[2]))
    )


def setup_cli_counts(seed: int, workdir: Path) -> dict:
    raw_cfg = {
        "grid": {"s1": 200, "s2": 200},
        "time": {"depth": 4, "j0": 1},
        "simulation": {"seed": seed, "replications": 2},
        "counts": {"seed": seed + 1},
    }
    cfg = _config(raw_cfg)
    cfg_path = workdir / "config.json"
    cfg_path.write_text(json.dumps(raw_cfg, sort_keys=True))

    rng = np.random.default_rng(seed)
    phase = rng.uniform(0.0, 1.0, 3)
    xy = rng.uniform(0.0, 1.0, (RAW_SITES, 2))
    t = (np.arange(RAW_TIMES) + 0.5) / RAW_TIMES
    mu = _mean_surface(xy[:, :1], xy[:, 1:], t[None, :], phase)
    counts = rng.poisson(mu)
    raw_path = workdir / "raw_counts.csv"
    lines = ["site_id,x,y,time_index,count"]
    for i in range(RAW_SITES):
        x, y = repr(float(xy[i, 0])), repr(float(xy[i, 1]))
        lines.extend(f"s{i},{x},{y},{m},{counts[i, m]}" for m in range(RAW_TIMES))
    raw_path.write_text("\n".join(lines) + "\n")

    # truth of the ingested field: log1p of the generating mean at the
    # grid nodes, which span the sites' bounding box inclusively
    lo, hi = xy.min(axis=0), xy.max(axis=0)
    gx = np.linspace(lo[0], hi[0], cfg.grid.s1)[:, None, None]
    gy = np.linspace(lo[1], hi[1], cfg.grid.s2)[None, :, None]
    tm = cfg.time_grid().points[None, None, :]
    return {
        "cfg": cfg,
        "cfg_path": cfg_path,
        "raw_path": raw_path,
        "truth": np.log1p(_mean_surface(gx, gy, tm, phase)),
        "digests": {
            "config.json": _sha(cfg_path.read_bytes()),
            "raw_counts.csv": _sha(raw_path.read_bytes()),
        },
    }


def _read_csv_columns(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def job_cli_counts(inp: dict, workdir: Path, rep: int, span) -> Outcome:
    cfg = inp["cfg"]
    out_dir = workdir / f"rep{rep}"
    if out_dir.exists():
        shutil.rmtree(out_dir)
    base = ["--config", str(inp["cfg_path"]), "--out", str(out_dir), "--threads", "2"]
    field_file = out_dir / "field_000.csv"
    commands = (
        ("simulate", []),
        ("counts", [str(field_file)]),
        ("ingest", [str(inp["raw_path"])]),
    )
    out = Outcome("", attempted=len(commands))
    runner = CliRunner()
    for name, args in commands:
        with span(f"cli.{name}"):
            result = runner.invoke(cli.main, base + [name] + args)
        if result.exit_code != 0:
            out.fail(f"coxmra {name}: exit code {result.exit_code}: {result.output.strip()}")

    digest = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    out.digest = digest.hexdigest()

    counts_file = out_dir / "field_000_counts.csv"
    ingest_file = out_dir / "raw_counts_field.csv"
    if rep == 0 and counts_file.exists() and ingest_file.exists():
        cols = _read_csv_columns(counts_file)
        total, mean_total = cols[:, 2].sum(), cols[:, 3].sum()
        z = abs(total - mean_total) / np.sqrt(mean_total)
        out.extra["counts_z"] = float(z)
        if not z <= 3.0:
            out.fail(f"counts: total {total:.0f} is {z:.2f} standard errors from {mean_total:.1f}")
        cols = _read_csv_columns(ingest_file)
        values = np.full(inp["truth"].shape, np.nan)
        p, q, m = (cols[:, i].astype(int) for i in range(3))
        values[p, q, m] = cols[:, 3]
        if not np.all(np.isfinite(values)):
            out.fail("ingest: output field incomplete or non-finite")
        out.truth_mse = float(np.mean((values - inp["truth"]) ** 2))
    shutil.rmtree(out_dir)
    return out


WORKLOADS = {
    "mc_study": (setup_mc_study, job_mc_study),
    "loo_cross": (setup_loo_cross, job_loo_cross),
    "cli_counts": (setup_cli_counts, job_cli_counts),
}
