"""Golden digests of the pipeline's output bytes.

`tests/golden.json` holds the sha256 of every file that one small CLI
chain writes (ingest included, on a raw-count file of scattered sites),
once diagonal-only and once with `include_cross` (the fit in the
empirical eigenbasis), of the theta tables, predictions and fold
errors of reduced Monte Carlo and LOO designs, and of the lockstep
Newton search's thetas, contrasts and evaluations on two batches whose
rows end on facets, together with the numpy version it was written
under.  A change that alters any of these bytes fails here and names
every digest that moved.  A change meant to alter them rewrites the
file with

    PYTHONPATH=src python tests/test_golden.py

and states the drift it measured.  The lattices are small enough that no
reduction is long enough for the BLAS thread count to matter.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
from click.testing import CliRunner

from coxmra import estimate_all, loo_validate, simulate
from coxmra.cli import main
from coxmra.config import RunConfig
from coxmra.estimator import _estimate_rows
from coxmra.grids import FunctionalField, SpatialGrid, detrend
from coxmra.predict import predict
from coxmra.wavelet import field_dwt

from conftest import FACET_BATCHES, facet_batch

GOLDEN = Path(__file__).with_name("golden.json")

CHAIN_CONFIG = {
    "grid": {"s1": 9, "s2": 11},
    "time": {"depth": 2, "j0": 1},
    "model": {"truncation": 3},
    "simulation": {"burn_in": 32, "seed": 5, "replications": 2},
    "validation": {"period_length": 2, "max_folds": 6},
    "counts": {"seed": 3, "area_scale": 2.0},
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _raw_counts(path: Path) -> None:
    """Raw count records of 12 scattered sites over 6 time indices."""
    rng = np.random.default_rng(8)
    xy, counts = rng.uniform(0.0, 1.0, (12, 2)), rng.poisson(4.0, (12, 6))
    lines = ["site_id,x,y,time_index,count"]
    for i, (x, y) in enumerate(xy):
        lines.extend(f"s{i},{float(x)!r},{float(y)!r},{m},{c}" for m, c in enumerate(counts[i]))
    path.write_text("\n".join(lines) + "\n")


def _chain(workdir: Path, include_cross: bool) -> dict[str, str]:
    """Digests of every file simulate, estimate, predict, validate,
    counts, ingest and the three report kinds write into one output
    directory."""
    raw = {**CHAIN_CONFIG, "estimation": {"include_cross": include_cross}}
    config = workdir / "config.json"
    config.write_text(json.dumps(raw))
    _raw_counts(workdir / "raw.csv")
    out = workdir / "out"
    fields = [str(out / f"field_{i:03d}.csv") for i in range(2)]
    reports = [str(out / f"field_{i:03d}_report.ndjson") for i in range(2)]
    commands = [
        ["simulate"],
        ["estimate", fields[0]],
        ["estimate", fields[1]],
        ["predict", fields[0], reports[0]],
        ["validate", fields[0]],
        ["counts", fields[0]],
        ["ingest", str(workdir / "raw.csv")],
        ["report", "--kind", "mse", *reports],
        ["report", "--kind", "eigs", *reports],
        ["report", "--kind", "slice", "--at", "0.3", fields[1]],
    ]
    for args in commands:
        result = CliRunner().invoke(main, ["--config", str(config), "--out", str(out), *args])
        assert result.exit_code == 0, (args, result.output)
    return {p.name: _sha(p.read_bytes()) for p in sorted(out.iterdir())}


def _theta_table(report) -> bytes:
    return np.array([e.theta for e in report.estimates], dtype=float).tobytes()


def _mc_study() -> dict[str, str]:
    """Theta tables of one simulated 24 x 24 field cropped to 8, 16 and 24
    and box-fitted, as the Monte Carlo study fits its crops."""
    cfg = RunConfig.model_validate(
        {"grid": {"s1": 24, "s2": 24}, "time": {"depth": 4, "j0": 1}, "simulation": {"seed": 1}}
    )
    spec = cfg.sarh_spec()
    big = simulate(spec, cfg.spatial_grid(), cfg.simulation.burn_in, cfg.simulation.seed)
    out = {}
    for side in (8, 16, 24):
        sub = FunctionalField(SpatialGrid(side, side), spec.time, big.values[:side, :side])
        residual, _ = detrend(sub)
        report = estimate_all(field_dwt(residual, cfg.time.j0), cfg.theta_domain())
        out[f"theta_{side}x{side}"] = _sha(_theta_table(report))
    return out


def _loo_cross() -> dict[str, str]:
    """The `include_cross` fit and prediction of an 8 x 8 field, and the fold
    errors of every LOO fold of a 10 x 10 one, as the LOO workload runs
    them (10 is the smallest side every fold can train at radius 1)."""
    fit_cfg = RunConfig.model_validate({
        "grid": {"s1": 8, "s2": 8}, "time": {"depth": 3, "j0": 1}, "model": {"truncation": 5},
        "estimation": {"include_cross": True, "couple_l3": True}, "simulation": {"seed": 2},
    })
    loo_cfg = RunConfig.model_validate({
        "grid": {"s1": 10, "s2": 10}, "time": {"depth": 1, "j0": 0}, "model": {"truncation": 2},
        "estimation": {"couple_l3": True}, "simulation": {"seed": 3},
        "validation": {"neighborhood_radius": 1, "period_length": 1},
    })
    fit, loo = (
        simulate(cfg.sarh_spec(), cfg.spatial_grid(), cfg.simulation.burn_in, cfg.simulation.seed)
        for cfg in (fit_cfg, loo_cfg)
    )
    coeffs = field_dwt(detrend(fit)[0], fit_cfg.time.j0)
    report = estimate_all(coeffs, fit_cfg.theta_domain(), include_cross=True)
    summary = loo_validate(
        detrend(loo)[0], loo_cfg.theta_domain(), j0=loo_cfg.time.j0,
        neighborhood_radius=loo_cfg.validation.neighborhood_radius,
        period_length=loo_cfg.validation.period_length,
    )
    return {
        "theta": _sha(_theta_table(report)),
        "predicted": _sha(predict(coeffs, report).predicted.values.tobytes()),
        "mafe": _sha(np.array([f.mafe for f in summary.folds]).tobytes()),
    }


def _newton_facets() -> dict[str, str]:
    """The thetas, contrasts and Newton evaluations `_estimate_rows` gives
    the two `FACET_BATCHES` batches, whose rows mix free ones with ones
    ending on box faces, |theta|_1 facets and the coupled edge."""
    out = {}
    for (domain, truths, _), label in zip(FACET_BATCHES, ("uncoupled", "coupled")):
        thetas, values, evals, _ = _estimate_rows(facet_batch(domain, truths), domain)
        out[f"{label}_theta"] = _sha(thetas.tobytes())
        out[f"{label}_contrast"] = _sha(values.tobytes())
        out[f"{label}_evaluations"] = _sha(np.asarray(evals, dtype=np.int64).tobytes())
    return out


def pipeline_digests(workdir: Path) -> dict[str, str]:
    """Every golden digest, keyed `<source>/<name>`."""
    digests = {}
    for label, cross in (("chain_diagonal", False), ("chain_cross", True)):
        (workdir / label).mkdir()
        digests.update({f"{label}/{k}": v for k, v in _chain(workdir / label, cross).items()})
    for label, design in (("mc_study", _mc_study), ("loo_cross", _loo_cross), ("newton_facets", _newton_facets)):
        digests.update({f"{label}/{k}": v for k, v in design().items()})
    return digests


def test_pipeline_bytes_match_the_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert np.__version__ == golden["numpy"], (
        f"{GOLDEN.name} was written under numpy {golden['numpy']}, this is numpy {np.__version__}: "
        "the Poisson stream and the reductions may differ between versions.  Rewrite the file "
        "under this numpy from a commit whose outputs are known good and state the drift."
    )
    digests = pipeline_digests(tmp_path)
    expected = golden["digests"]
    changed = sorted(k for k in expected.keys() | digests.keys() if expected.get(k) != digests.get(k))
    assert changed == [], f"digests that differ from {GOLDEN.name}: {changed}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = pipeline_digests(Path(tmp))
    golden = {"numpy": np.__version__, "digests": digests}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
