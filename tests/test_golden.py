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

`tests/golden_values.json` holds, as shortest-repr floats, every row's
theta, contrast and eta moment of every fit these designs make, and the
ALOOCVE of each LOO run.  It bounds how far a change that moves bits may
move them: per row |d theta| <= 1e-6, a contrast no worse than the stored
one by 1e-12 of the row's eta moment, and the eta moment within 1e-12
relative; the ALOOCVE within 1e-9 relative.  A change that moves only
bits rewrites the digests, never the values.  A change meant to move an
optimum rewrites the values it moves, and only those, with

    PYTHONPATH=src python tests/test_golden.py --values NAME...

(each NAME a `<source>/<name>` key of the file) and says why; every other
entry keeps its bytes, and a NAME no design gives fails.

The tier-1 CI workflow pins numpy to the version `golden.json` was
written under, so the digest test does not fail on a numpy release.
"""

import hashlib
import json
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from coxmra import estimate_all, loo_validate, simulate
from coxmra.cli import main
from coxmra.config import RunConfig
from coxmra.estimator import _estimate_rows, load_report
from coxmra.grids import FunctionalField, SpatialGrid, detrend
from coxmra.predict import predict
from coxmra.wavelet import field_dwt

from conftest import FACET_BATCHES, facet_batch

GOLDEN = Path(__file__).with_name("golden.json")
VALUES = Path(__file__).with_name("golden_values.json")
WORKFLOW = Path(__file__).parents[1] / ".github" / "workflows" / "tier1.yml"
# the value gate: per row |d theta|, contrast rise and eta moment change
# relative to the eta moment; ALOOCVE change relative to the stored one
THETA_DRIFT, CONTRAST_RISE, MOMENT_DRIFT, ALOOCVE_DRIFT = 1e-6, 1e-12, 1e-12, 1e-9

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


def _fit_values(thetas, contrasts, moments) -> dict[str, list]:
    """One fit's rows: theta, contrast and eta moment each."""
    return {"theta": np.asarray(thetas, dtype=float).tolist(), "contrast": np.asarray(contrasts, dtype=float).tolist(),
            "eta_moment": np.asarray(moments, dtype=float).tolist()}


def _report_values(report) -> dict[str, list]:
    est = report.estimates
    return _fit_values([e.theta for e in est], [e.contrast for e in est], [e.eta_moment for e in est])


def _chain(workdir: Path, include_cross: bool) -> tuple[dict[str, str], dict]:
    """Digests of every file simulate, estimate, predict, validate,
    counts, ingest and the three report kinds write into one output
    directory, and the values of both estimate reports and of the
    validate run's ALOOCVE."""
    raw = {**CHAIN_CONFIG, "estimation": {"include_cross": include_cross}}
    workdir.mkdir()
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
    values = {Path(r).stem: _report_values(load_report(r)) for r in reports}
    mafe = np.loadtxt(out / "field_000_folds.csv", delimiter=",", skiprows=1, usecols=3, ndmin=1)
    values["aloocve"] = float(np.mean(mafe))
    return {p.name: _sha(p.read_bytes()) for p in sorted(out.iterdir())}, values


def _theta_table(report) -> bytes:
    return np.array([e.theta for e in report.estimates], dtype=float).tobytes()


def _mc_study() -> tuple[dict[str, str], dict]:
    """Theta tables of one simulated 24 x 24 field cropped to 8, 16 and 24
    and box-fitted, as the Monte Carlo study fits its crops."""
    cfg = RunConfig.model_validate(
        {"grid": {"s1": 24, "s2": 24}, "time": {"depth": 4, "j0": 1}, "simulation": {"seed": 1}}
    )
    spec = cfg.sarh_spec()
    big = simulate(spec, cfg.spatial_grid(), cfg.simulation.burn_in, cfg.simulation.seed)
    out, values = {}, {}
    for side in (8, 16, 24):
        sub = FunctionalField(SpatialGrid(side, side), spec.time, big.values[:side, :side])
        residual, _ = detrend(sub)
        report = estimate_all(field_dwt(residual, cfg.time.j0), cfg.theta_domain())
        out[f"theta_{side}x{side}"] = _sha(_theta_table(report))
        values[f"fit_{side}x{side}"] = _report_values(report)
    return out, values


def _loo_cross() -> tuple[dict[str, str], dict]:
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
    }, {"fit": _report_values(report), "aloocve": summary.aloocve}


def _newton_facets() -> tuple[dict[str, str], dict]:
    """The thetas, contrasts and Newton evaluations `_estimate_rows` gives
    the two `FACET_BATCHES` batches, whose rows mix free ones with ones
    ending on box faces, |theta|_1 facets and the coupled edge."""
    out, fits = {}, {}
    for (domain, truths, _), label in zip(FACET_BATCHES, ("uncoupled", "coupled")):
        thetas, values, evals, moments = _estimate_rows(facet_batch(domain, truths), domain)
        out[f"{label}_theta"] = _sha(thetas.tobytes())
        out[f"{label}_contrast"] = _sha(values.tobytes())
        out[f"{label}_evaluations"] = _sha(np.asarray(evals, dtype=np.int64).tobytes())
        fits[label] = _fit_values(thetas, values, moments)
    return out, fits


def pipeline_designs(workdir: Path) -> tuple[dict[str, str], dict]:
    """Every golden digest and every golden value (a fit's rows, or an
    ALOOCVE), each keyed `<source>/<name>`."""
    digests, values = {}, {}
    designs = [(label, lambda label=label, cross=cross: _chain(workdir / label, cross))
               for label, cross in (("chain_diagonal", False), ("chain_cross", True))]
    designs += [("mc_study", _mc_study), ("loo_cross", _loo_cross), ("newton_facets", _newton_facets)]
    for label, design in designs:
        design_digests, design_values = design()
        digests.update({f"{label}/{k}": v for k, v in design_digests.items()})
        values.update({f"{label}/{k}": v for k, v in design_values.items()})
    return digests, values


def test_pipeline_bytes_match_the_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert np.__version__ == golden["numpy"], (
        f"{GOLDEN.name} was written under numpy {golden['numpy']}, this is numpy {np.__version__}: "
        "the Poisson stream and the reductions may differ between versions.  Rewrite the file "
        "under this numpy from a commit whose outputs are known good and state the drift."
    )
    digests, _ = pipeline_designs(tmp_path)
    expected = golden["digests"]
    changed = sorted(k for k in expected.keys() | digests.keys() if expected.get(k) != digests.get(k))
    assert changed == [], f"digests that differ from {GOLDEN.name}: {changed}"


def _value_faults(name: str, stored, got) -> list[str]:
    """How one golden value moved past the gate, row by row."""
    if isinstance(stored, float):
        return [] if abs(got - stored) <= ALOOCVE_DRIFT * abs(stored) else [f"{name}: {got!r} against {stored!r}"]
    want, have = ({k: np.array(v, dtype=float) for k, v in fit.items()} for fit in (stored, got))
    if any(want[k].shape != have[k].shape for k in want):
        return [f"{name}: {len(have['contrast'])} rows, expected {len(want['contrast'])}"]
    moment = np.abs(want["eta_moment"])
    faults = {
        "theta moved": np.abs(have["theta"] - want["theta"]).max(axis=1) > THETA_DRIFT,
        "contrast worse": have["contrast"] > want["contrast"] + CONTRAST_RISE * moment,
        "eta moment moved": ~(np.abs(have["eta_moment"] - want["eta_moment"]) <= MOMENT_DRIFT * moment),
    }
    return [f"{name} row {r}: {fault}" for fault, rows in faults.items() for r in np.flatnonzero(rows)]


def test_fits_stay_within_the_golden_values(tmp_path):
    # bit drift is allowed, optimum drift is not: every row of every fit
    # stays within the gate of `golden_values.json`
    stored = json.loads(VALUES.read_text())["values"]
    _, values = pipeline_designs(tmp_path)
    assert sorted(values) == sorted(stored)
    faults = [fault for name in sorted(stored) for fault in _value_faults(name, stored[name], values[name])]
    assert faults == [], f"values past the gate of {VALUES.name}: {faults}"


def rewrite_values(text: str, values: dict, names) -> str:
    """`golden_values.json` text with the entries `names` set from
    `values` and every other entry, and the numpy version, left as they
    were; a name `values` lacks is a fault."""
    unknown = sorted(set(names) - values.keys())
    if unknown:
        raise KeyError(f"no design gives the values {unknown}")
    stored = json.loads(text)
    stored["values"].update({name: values[name] for name in names})
    return json.dumps(stored, indent=1, sort_keys=True) + "\n"


def test_values_rewrite_touches_only_the_named_entries():
    # every design's values moved, one name rewritten: that entry takes
    # the new values, and putting its stored values back gives the file's
    # bytes, so no other entry changed even in its float text
    text = VALUES.read_text()
    stored = json.loads(text)["values"]
    moved = {k: {f: [[-1.5]] for f in v} if isinstance(v, dict) else -1.5 for k, v in stored.items()}
    name = "mc_study/fit_8x8"
    rewritten = rewrite_values(text, moved, [name])
    assert json.loads(rewritten)["values"] == {**stored, name: moved[name]}
    assert rewrite_values(rewritten, stored, [name]) == text
    with pytest.raises(KeyError, match="mc_study/fit_9x9"):
        rewrite_values(text, moved, [name, "mc_study/fit_9x9"])


def test_ci_pins_the_golden_numpy():
    # the digests hold only under the numpy they were written with
    pins = re.findall(r"\bnumpy==([^\s\"']+)", WORKFLOW.read_text())
    assert pins == [json.loads(GOLDEN.read_text())["numpy"]]


if __name__ == "__main__":
    args = sys.argv[1:]
    if args[:1] == ["--values"] and len(args) == 1:
        sys.exit("--values needs the NAME of each entry to rewrite")
    with tempfile.TemporaryDirectory() as tmp:
        digests, values = pipeline_designs(Path(tmp))
    if args[:1] == ["--values"]:
        VALUES.write_text(rewrite_values(VALUES.read_text(), values, args[1:]))
        print(f"wrote {len(args) - 1} of {len(values)} values to {VALUES}")
    else:
        golden = {"numpy": np.__version__, "digests": digests}
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(digests)} digests to {GOLDEN}")
