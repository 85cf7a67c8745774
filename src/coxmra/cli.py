"""Command-line pipeline binding the library modules.

Every command is referentially transparent given (config, inputs, seed):
reruns produce byte-identical outputs.  `simulate`, `estimate` and
`validate` also write a manifest named after the command (see
`_write_manifest`) with the config digest, the files and the seeds used.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click
import numpy as np

from . import cox, estimator, grids, ingest, sarh, wavelet
from .predict import interior_sites, loo_validate, predict as predict_field, save_validation
from .config import RunConfig, load_config


def _fail(exc: Exception) -> None:
    payload = {"error": str(exc), "type": type(exc).__name__}
    click.echo(json.dumps(payload, sort_keys=True), err=True)
    sys.exit(1)


class _Pipeline(click.Group):
    """The single CLI error funnel: an exception from the group or any
    command prints one JSON line on stderr and exits 1.  click's own usage
    errors, exits and aborts (the last two are RuntimeErrors) pass through."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (click.ClickException, click.exceptions.Exit, click.Abort):
            raise
        except Exception as exc:  # noqa: BLE001 - single CLI error funnel
            _fail(exc)


def _write_manifest(out_dir: Path, stem: str, config: RunConfig, command: str, files, seeds) -> None:
    """One sorted-key JSON line in `<stem>_<command>_manifest.json`, or
    `<command>_manifest.json` for an empty stem."""
    manifest = {
        "command": command,
        "config_sha256": config.digest(),
        "files": sorted(str(f) for f in files),
        "seeds": list(seeds),
    }
    prefix = f"{stem}_" if stem else ""
    grids.write_ndjson(out_dir / f"{prefix}{command}_manifest.json", manifest, ())


@click.group(cls=_Pipeline)
@click.option("--config", "config_path", type=click.Path(exists=True), required=True)
@click.option("--seed", type=int, default=None, help="Override the configured seed.")
@click.option("--out", "out_dir", type=click.Path(), default=".", show_default=True)
@click.option("--threads", type=click.IntRange(min=1), default=1, show_default=True)
@click.pass_context
def main(ctx, config_path, seed, out_dir, threads):
    """Multiscale spatial curve-field modelling pipeline."""
    cfg = load_config(config_path)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ctx.obj = {
        "config": cfg,
        "seed": seed if seed is not None else cfg.simulation.seed,
        "out": out,
        "pool": ctx.with_resource(_ForkPool(threads)),
    }


class _ForkPool:
    """The run's one pool, which parses field files and formats
    field-sized CSV tables: `threads` worker processes, forked at the
    first `map` of more than one item and shut down when the run's context
    closes, whether the command returned or failed.  A map for one thread
    or of one item, like every map without fork or beside another thread
    (whose held locks a fork would copy), runs in the calling process.  So
    a command at one thread, or whose files are one block or one range
    each, starts no process and imports nothing of `multiprocessing`."""

    def __init__(self, threads: int):
        self.threads, self.executor, self.mapper = threads, None, None

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        if self.executor is not None:
            self.executor.shutdown()

    def map(self, fn, items):
        if self.threads < 2 or len(items) < 2:
            return map(fn, items)
        if self.mapper is None:
            import multiprocessing
            import threading
            from concurrent.futures import ProcessPoolExecutor

            self.mapper = map
            if "fork" in multiprocessing.get_all_start_methods() and threading.active_count() == 1:
                self.executor = ProcessPoolExecutor(self.threads, mp_context=multiprocessing.get_context("fork"))
                self.mapper = self.executor.map
        return self.mapper(fn, items)


@main.command()
@click.pass_obj
def simulate(obj):
    """Simulate curve fields; one file per replication plus a manifest."""
    cfg: RunConfig = obj["config"]
    spec = cfg.sarh_spec()
    grid = cfg.spatial_grid()
    reps = cfg.simulation.replications
    seeds = [obj["seed"] + i for i in range(reps)]
    files = [f"field_{i:03d}.csv" for i in range(reps)]
    for name, seed in zip(files, seeds):
        fld = sarh.simulate(spec, grid, cfg.simulation.burn_in, seed)
        grids.save_field(fld, obj["out"] / name, obj["pool"])
    _write_manifest(obj["out"], "", cfg, "simulate", files, seeds)


@main.command()
@click.argument("field_file", type=click.Path(exists=True))
@click.pass_obj
def estimate(obj, field_file):
    """Detrend, transform and fit the wavelet-domain parameters."""
    cfg: RunConfig = obj["config"]
    residual, mean = grids.detrend(grids.load_field(field_file, obj["pool"]))
    report = estimator.estimate_all(
        wavelet.field_dwt(residual, cfg.time.j0), cfg.theta_domain(),
        include_cross=cfg.estimation.include_cross,
    )
    stem = Path(field_file).stem
    report_path = obj["out"] / f"{stem}_report.ndjson"
    eig_path = obj["out"] / f"{stem}_eigenvalues.csv"
    mean_path = obj["out"] / f"{stem}_mean.csv"
    estimator.save_report(report, report_path)
    estimator.save_eigenvalue_table(report, eig_path)
    grids.write_csv(mean_path, ("t_index", "value"), [mean], origin=(0,), pool=obj["pool"])
    _write_manifest(
        obj["out"], stem, cfg, "estimate",
        [p.name for p in (report_path, eig_path, mean_path)], [],
    )


@main.command("predict")
@click.argument("field_file", type=click.Path(exists=True))
@click.argument("report_file", type=click.Path(exists=True))
@click.pass_obj
def predict_cmd(obj, field_file, report_file):
    """One-step plug-in prediction at every interior site."""
    cfg: RunConfig = obj["config"]
    out = obj["out"] / (Path(field_file).stem + "_predicted.csv")
    fld = grids.load_field(field_file, obj["pool"])
    report = estimator.load_report(report_file)
    residual, mean = grids.detrend(fld)
    result = predict_field(wavelet.field_dwt(residual, cfg.time.j0), report)
    # the predicted sites are exactly those from (1, 1) on
    grids.write_csv(
        out, ("p", "q", "t_index", "predicted", "residual"),
        [result.predicted.values[1:, 1:] + mean, result.residuals.values[1:, 1:]],
        origin=(1, 1, 0), pool=obj["pool"],
    )
    click.echo(str(out))


@main.command()
@click.argument("field_file", type=click.Path(exists=True))
@click.pass_obj
def validate(obj, field_file):
    """Leave-one-site-out validation with per-period error table."""
    cfg: RunConfig = obj["config"]
    fld = grids.load_field(field_file, obj["pool"])
    residual, _ = grids.detrend(fld)
    sites = None
    if cfg.validation.max_folds is not None:
        all_sites = interior_sites(fld.grid.s1, fld.grid.s2)
        idx = np.linspace(
            0, len(all_sites) - 1, min(cfg.validation.max_folds, len(all_sites))
        ).astype(int)
        sites = [all_sites[i] for i in idx]
    summary = loo_validate(
        residual,
        cfg.theta_domain(),
        j0=cfg.time.j0,
        neighborhood_radius=cfg.validation.neighborhood_radius,
        period_length=cfg.validation.period_length,
        include_cross=cfg.estimation.include_cross,
        sites=sites,
    )
    stem = Path(field_file).stem
    folds_path = obj["out"] / f"{stem}_folds.csv"
    periods_path = obj["out"] / f"{stem}_periods.csv"
    save_validation(summary, folds_path, periods_path)
    _write_manifest(
        obj["out"], stem, cfg, "validate",
        [folds_path.name, periods_path.name], [],
    )


@main.command()
@click.argument("field_file", type=click.Path(exists=True))
@click.pass_obj
def counts(obj, field_file):
    """Poisson counts from the integrated intensity of a log-field."""
    cfg: RunConfig = obj["config"]
    fld = grids.load_field(field_file, obj["pool"])
    inten = cox.intensity(fld)
    means = cox.integrated_intensity(inten) * cfg.counts.area_scale
    cg = cox.sample_counts(means, cfg.counts.seed)
    out = obj["out"] / (Path(field_file).stem + "_counts.csv")
    cox.save_counts(cg, out)
    click.echo(str(out))


@main.command("ingest")
@click.argument("raw_csv", type=click.Path(exists=True))
@click.pass_obj
def ingest_cmd(obj, raw_csv):
    """Interpolate raw count records onto the configured grid."""
    cfg: RunConfig = obj["config"]
    fld = ingest.ingest_counts(raw_csv, cfg.spatial_grid(), cfg.time.depth)
    out = obj["out"] / f"{Path(raw_csv).stem}_field.csv"
    grids.save_field(fld, out, obj["pool"])
    click.echo(str(out))


@main.command()
@click.option("--kind", type=click.Choice(["mse", "eigs", "slice"]), required=True)
@click.option("--at", "t_at", type=float, default=0.5, show_default=True,
              help="Time point for --kind slice.")
@click.argument("inputs", nargs=-1, type=click.Path(exists=True))
@click.pass_obj
def report(obj, kind, t_at, inputs):
    """Plot-ready CSV tables from earlier pipeline outputs."""
    cfg: RunConfig = obj["config"]
    if not inputs:
        raise ValueError("report requires at least one input file")
    if kind == "slice":
        _report_slice(obj, inputs[0], t_at)
    elif kind == "eigs":
        _report_eigs(obj, inputs)
    else:
        _report_mse(obj, cfg, inputs)


def _report_slice(obj, field_file, t_at: float):
    fld = grids.load_field(field_file, obj["pool"])
    m = int(np.argmin(np.abs(fld.time.points - t_at)))
    out = obj["out"] / (Path(field_file).stem + "_slice.csv")
    grids.write_csv(out, ("p", "q", "value"), [fld.values[:, :, m]], origin=(0, 0), pool=obj["pool"])
    click.echo(str(out))


def _report_eigs(obj, report_files):
    rows = []
    for rep_idx, rf in enumerate(report_files):
        rep = estimator.load_report(rf)
        for op_idx, lams in ((1, rep.eigenvalues1), (2, rep.eigenvalues2)):
            rows += [(rep_idx, op_idx, p, lam) for p, lam in enumerate(lams, start=1)]
    out = obj["out"] / "eigenvalue_samples.csv"
    grids.write_csv(out, ("replication", "operator", "p", "lambda_hat"), list(zip(*rows)), pool=obj["pool"])
    click.echo(str(out))


def _report_mse(obj, cfg: RunConfig, report_files):
    """Per-scale mean quadratic errors against the configured model."""
    spec = cfg.sarh_spec()
    j0 = cfg.time.j0
    phi = wavelet.normalized_eigenfunctions(cfg.time_grid(), spec.truncation)
    true_ops = [
        wavelet.operator_to_wavelet(lams, phi, cfg.time_grid(), j0)
        for lams in (spec.eigenvalues1, spec.eigenvalues2, spec.eigenvalues3)
    ]
    theta0 = np.stack([op.matrix.diagonal() for op in true_ops], axis=1)
    slices = wavelet.level_slices(j0, cfg.time.depth)
    by_n: dict[int, list[np.ndarray]] = {}
    for rf in report_files:
        rep = estimator.load_report(rf)
        if (rep.j0, rep.depth) != (j0, cfg.time.depth):
            raise ValueError(f"{rf}: layout does not match configuration")
        sq = (rep.diagonal_thetas() - theta0) ** 2
        by_n.setdefault(rep.n_sites, []).append(sq)
    ns = sorted(by_n)
    # one row per n: mean over replications, the level's nodes and the 3 operators
    mse = np.array([[np.mean(np.stack(by_n[n])[:, sl, :]) for sl in slices.values()] for n in ns])
    out = obj["out"] / "mse_by_scale.csv"
    labels = [f"{kind}_{level}" for kind, level in slices]
    grids.write_csv(out, ("n", *labels), [ns, *mse.T], pool=obj["pool"])
    click.echo(str(out))


if __name__ == "__main__":
    main()
