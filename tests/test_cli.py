import codecs
import concurrent.futures
import json
import multiprocessing
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import coxmra
from coxmra.cli import main
from coxmra.config import load_config
from coxmra.estimator import load_report
from coxmra.grids import detrend, load_field
from coxmra.predict import predict
from coxmra.wavelet import field_dwt, level_slices, normalized_eigenfunctions, operator_to_wavelet
from oracles import table_csv

BASE_CONFIG = {
    "grid": {"s1": 10, "s2": 10},
    "time": {"depth": 3, "j0": 1},
    "model": {"truncation": 5},
    "simulation": {"burn_in": 64, "seed": 7, "replications": 2},
    "validation": {"period_length": 2, "max_folds": 2},
}


@pytest.fixture
def workspace(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(BASE_CONFIG))
    return tmp_path, config


def _run(args, **kwargs):
    result = CliRunner().invoke(main, args, **kwargs)
    assert result.exit_code == 0, result.output
    return result


def test_simulate_writes_fields_and_manifest(workspace):
    tmp, config = workspace
    out = tmp / "out"
    _run(["--config", str(config), "--out", str(out), "simulate"])
    files = sorted(p.name for p in out.glob("field_*.csv"))
    assert files == ["field_000.csv", "field_001.csv"]
    manifest = json.loads((out / "simulate_manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["seeds"] == [7, 8]
    assert len(manifest["config_sha256"]) == 64


def test_module_entry_writes_what_the_group_writes(workspace):
    # `python -m coxmra.cli` runs the same command group as the console script
    tmp, config = workspace
    args = ["--config", str(config), "simulate"]
    run = subprocess.run([sys.executable, "-m", "coxmra.cli", "--out", str(tmp / "module"), *args],
                         env=_package_env(), capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    _run(["--out", str(tmp / "group"), *args])
    written = {p.name: p.read_bytes() for p in (tmp / "module").iterdir()}
    assert sorted(written) == ["field_000.csv", "field_001.csv", "simulate_manifest.json"]
    assert written == {p.name: p.read_bytes() for p in (tmp / "group").iterdir()}


def test_each_command_keeps_its_own_manifest(workspace):
    tmp, config = workspace
    out = tmp / "out"
    base = ["--config", str(config), "--out", str(out)]
    _run(base + ["simulate"])
    for i in range(2):
        _run(base + ["estimate", str(out / f"field_{i:03d}.csv")])
    _run(base + ["validate", str(out / "field_000.csv")])
    names = ["simulate_manifest.json", "field_000_estimate_manifest.json",
             "field_001_estimate_manifest.json", "field_000_validate_manifest.json"]
    assert sorted(p.name for p in out.glob("*manifest*")) == sorted(names)
    manifests = {}
    for name in names:
        text = (out / name).read_text()
        manifests[name] = json.loads(text)
        assert text == json.dumps(manifests[name], sort_keys=True) + "\n"  # one sorted-key line
    assert manifests["simulate_manifest.json"]["seeds"] == [7, 8]
    assert manifests["simulate_manifest.json"]["files"] == ["field_000.csv", "field_001.csv"]
    assert manifests["field_001_estimate_manifest.json"]["files"] == [
        "field_001_eigenvalues.csv", "field_001_mean.csv", "field_001_report.ndjson"]
    assert manifests["field_000_validate_manifest.json"]["command"] == "validate"


def test_simulate_deterministic_across_threads(workspace):
    tmp, config = workspace
    out1, out4 = tmp / "t1", tmp / "t4"
    _run(["--config", str(config), "--out", str(out1), "--threads", "1", "simulate"])
    _run(["--config", str(config), "--out", str(out4), "--threads", "4", "simulate"])
    for name in ("field_000.csv", "field_001.csv", "simulate_manifest.json"):
        assert (out1 / name).read_bytes() == (out4 / name).read_bytes()


def test_full_chain(workspace):
    tmp, config = workspace
    out = tmp / "out"
    _run(["--config", str(config), "--out", str(out), "simulate"])
    field = out / "field_000.csv"

    _run(["--config", str(config), "--out", str(out), "estimate", str(field)])
    report = out / "field_000_report.ndjson"
    assert report.exists()
    eigs = (out / "field_000_eigenvalues.csv").read_text().splitlines()
    assert eigs[0] == "p,lambda1_hat,lambda2_hat"
    assert (out / "field_000_mean.csv").read_text().startswith("t_index,value")
    fld, rep = load_field(field), load_report(report)
    residual, mean = detrend(fld)
    rows = [(p, a, b) for p, (a, b) in enumerate(zip(rep.eigenvalues1, rep.eigenvalues2), 1)]
    expected = table_csv(("p", "lambda1_hat", "lambda2_hat"), rows)
    assert (out / "field_000_eigenvalues.csv").read_bytes() == expected.encode()
    expected = table_csv(("t_index", "value"), enumerate(mean))
    assert (out / "field_000_mean.csv").read_bytes() == expected.encode()

    _run([
        "--config", str(config), "--out", str(out),
        "predict", str(field), str(report),
    ])
    pred = (out / "field_000_predicted.csv").read_text().splitlines()
    assert pred[0] == "p,q,t_index,predicted,residual"
    # only interior sites appear: 9 * 9 sites * 8 time points
    assert len(pred) == 1 + 81 * 8
    result = predict(field_dwt(residual, 1), rep)
    rows = [
        (p, q, m, result.predicted.values[p, q, m] + mean[m], result.residuals.values[p, q, m])
        for p, q in np.ndindex(fld.grid.s1, fld.grid.s2) if min(p, q) > 0
        for m in range(fld.time.n)
    ]
    expected = table_csv(("p", "q", "t_index", "predicted", "residual"), rows)
    assert (out / "field_000_predicted.csv").read_bytes() == expected.encode()

    _run(["--config", str(config), "--out", str(out), "validate", str(field)])
    folds = (out / "field_000_folds.csv").read_text().splitlines()
    assert folds[0] == "fold,site_p,site_q,mafe"
    assert len(folds) == 3  # max_folds = 2

    _run([
        "--config", str(config), "--out", str(out),
        "counts", str(field),
    ])
    counts = (out / "field_000_counts.csv").read_text().splitlines()
    assert counts[0] == "p,q,count,mean"
    assert len(counts) == 1 + 100


def test_report_kinds(workspace):
    tmp, config = workspace
    out = tmp / "out"
    _run(["--config", str(config), "--out", str(out), "simulate"])
    for i in range(2):
        _run([
            "--config", str(config), "--out", str(out),
            "estimate", str(out / f"field_{i:03d}.csv"),
        ])
    reports = [str(out / f"field_{i:03d}_report.ndjson") for i in range(2)]

    _run(["--config", str(config), "--out", str(out), "report", "--kind", "mse", *reports])
    mse = (out / "mse_by_scale.csv").read_text().splitlines()
    assert mse[0] == "n,scaling_1,detail_1,detail_2"
    assert mse[1].startswith("100,")
    cfg = load_config(config)
    spec, time = cfg.sarh_spec(), cfg.time_grid()
    phi = normalized_eigenfunctions(time, spec.truncation)
    lams = (spec.eigenvalues1, spec.eigenvalues2, spec.eigenvalues3)
    theta0 = np.stack([operator_to_wavelet(lam, phi, time, 1).matrix.diagonal() for lam in lams], 1)
    sq = np.stack([(load_report(r).diagonal_thetas() - theta0) ** 2 for r in reports])
    slices = level_slices(1, 3)
    expected = table_csv(
        ("n", *(f"{kind}_{level}" for kind, level in slices)),
        [(100, *(np.mean(sq[:, sl, :]) for sl in slices.values()))],
    )
    assert (out / "mse_by_scale.csv").read_bytes() == expected.encode()
    # reports of another layout than the configured one are refused
    other = tmp / "j0_2.json"
    other.write_text(json.dumps({**BASE_CONFIG, "time": {"depth": 3, "j0": 2}}))
    result = CliRunner().invoke(main, ["--config", str(other), "--out", str(out), "report", "--kind", "mse", *reports])
    assert result.exit_code == 1
    assert json.loads(result.stderr.strip().splitlines()[-1]) == {
        "error": f"{reports[0]}: layout does not match configuration", "type": "ValueError"}

    _run(["--config", str(config), "--out", str(out), "report", "--kind", "eigs", *reports])
    eigs = (out / "eigenvalue_samples.csv").read_text().splitlines()
    assert eigs[0] == "replication,operator,p,lambda_hat"
    rows = []
    for i, r in enumerate(reports):
        rep = load_report(r)
        for op, lam in ((1, rep.eigenvalues1), (2, rep.eigenvalues2)):
            rows += [(i, op, p, v) for p, v in enumerate(lam, 1)]
    expected = table_csv(("replication", "operator", "p", "lambda_hat"), rows)
    assert (out / "eigenvalue_samples.csv").read_bytes() == expected.encode()

    _run([
        "--config", str(config), "--out", str(out),
        "report", "--kind", "slice", "--at", "0.5", str(out / "field_000.csv"),
    ])
    assert (out / "field_000_slice.csv").read_text().startswith("p,q,value")
    values = load_field(out / "field_000.csv").values
    m = 3  # t = 7/16, the first of the two points nearest 0.5 on the 8-point grid
    rows = [(p, q, values[p, q, m]) for p, q in np.ndindex(values.shape[:2])]
    expected = table_csv(("p", "q", "value"), rows)
    assert (out / "field_000_slice.csv").read_bytes() == expected.encode()


def test_ingest_command(workspace):
    tmp, config = workspace
    raw = tmp / "raw.csv"
    _raw_counts(raw, np.random.default_rng(2))
    out = tmp / "out"
    _run(["--config", str(config), "--out", str(out), "ingest", str(raw)])
    field = out / "raw_field.csv"
    assert field.read_text().startswith("p,q,t_index,value")


def _raw_counts(path, rng, side=4, times=6, site="s"):
    lines = ["site_id,x,y,time_index,count"]
    for i in range(side):
        for j in range(side):
            lines += [f"{site}{i}{j},{i}.0,{j}.0,{t},{rng.poisson(5)}" for t in range(times)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# a locale whose preferred encoding is ASCII: no UTF-8 mode, and no
# coercion of the C locale to a UTF-8 one
C_LOCALE = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}


def _run_c_locale(*args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env={**_package_env(), **C_LOCALE}, capture_output=True,
                          text=True, timeout=120)


def _break_line_3(path):
    """`path` with a 0xff byte, never UTF-8, inside its third line."""
    lines = path.read_bytes().split(b"\n")
    lines[2] = lines[2][:1] + b"\xff" + lines[2][1:]
    path.write_bytes(b"\n".join(lines))


def test_readers_decode_utf8_under_the_c_locale(workspace):
    # under the C locale a site id outside ASCII ingests to the bytes it
    # ingests to here, and a byte that is not UTF-8, in a raw file given to
    # `ingest` or a field file given to `counts`, is a fault on its line
    # under either locale
    tmp, config = workspace
    encoding = _run_c_locale("-c", "import locale; print(locale.getpreferredencoding(False))")
    assert codecs.lookup(encoding.stdout.strip()).name == "ascii"
    raw = tmp / "raw.csv"
    _raw_counts(raw, np.random.default_rng(2), site="S\u00e3o")
    _run(["--config", str(config), "--out", str(tmp / "here"), "ingest", str(raw)])
    run = _run_c_locale("-m", "coxmra.cli", "--config", str(config), "--out", str(tmp / "c"), "ingest", str(raw))
    assert run.returncode == 0, run.stderr
    field = tmp / "c" / "raw_field.csv"
    assert field.read_bytes() == (tmp / "here" / "raw_field.csv").read_bytes()
    for path, command in ((raw, "ingest"), (field, "counts")):
        _break_line_3(path)
        fault = {"error": f"{path}: line 3: not UTF-8: byte 0xff", "type": "FieldFormatError"}
        run = _run_c_locale("-m", "coxmra.cli", "--config", str(config), "--out", str(tmp / "c"), command, str(path))
        result = CliRunner().invoke(main, ["--config", str(config), "--out", str(tmp / "here"), command, str(path)])
        for code, stderr in ((run.returncode, run.stderr), (result.exit_code, result.stderr)):
            assert code == 1 and json.loads(stderr.strip().splitlines()[-1]) == fault


def test_ingest_and_predict_identical_across_threads(tmp_path):
    # 48x48 sites at depth 4: the field and prediction tables span several
    # formatting blocks, and the field file several parsing ranges; counts,
    # estimate and validate load it through the pool
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        **BASE_CONFIG, "grid": {"s1": 48, "s2": 48}, "time": {"depth": 4, "j0": 1},
        "simulation": {"seed": 5, "replications": 1},
    }))
    raw = tmp_path / "raw.csv"
    _raw_counts(raw, np.random.default_rng(4), side=5, times=9)
    src = tmp_path / "src"
    _run(["--config", str(config), "--out", str(src), "simulate"])
    field = src / "field_000.csv"
    _run(["--config", str(config), "--out", str(src), "estimate", str(field)])
    report = src / "field_000_report.ndjson"
    outputs = []
    for threads in ("1", "3"):
        out = tmp_path / f"t{threads}"
        base = ["--config", str(config), "--out", str(out), "--threads", threads]
        for args in (["predict", str(field), str(report)], ["ingest", str(raw)], ["counts", str(field)],
                     ["estimate", str(field)], ["validate", str(field)]):
            _run(base + args)
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert sorted(outputs[0]) == [
        "field_000_counts.csv", "field_000_eigenvalues.csv", "field_000_estimate_manifest.json",
        "field_000_folds.csv", "field_000_mean.csv", "field_000_periods.csv", "field_000_predicted.csv",
        "field_000_report.ndjson", "field_000_validate_manifest.json", "raw_field.csv",
    ]
    assert outputs[0] == outputs[1]


def test_threads_leave_no_worker_processes(workspace, pool_maps):
    # 48x48 sites at depth 3: a field file spans two formatting blocks and
    # two parsing ranges, so every command below maps work on the workers
    tmp, config = workspace
    config.write_text(json.dumps({**BASE_CONFIG, "grid": {"s1": 48, "s2": 48}}))
    mapped = pool_maps
    forks = "fork" in multiprocessing.get_all_start_methods() and threading.active_count() == 1
    raw = tmp / "raw.csv"
    _raw_counts(raw, np.random.default_rng(2))
    out = tmp / "out"
    base = ["--config", str(config), "--out", str(out), "--threads", "2"]
    field, report = out / "field_000.csv", out / "field_000_report.ndjson"
    for args in (["simulate"], ["estimate", str(field)], ["predict", str(field), str(report)],
                 ["ingest", str(raw)], ["counts", str(field)], ["validate", str(field)],
                 ["report", "--kind", "slice", str(field)]):
        mapped.clear()
        _run(base + args)
        assert bool(mapped) == forks, args
        assert multiprocessing.active_children() == []
    # a directory in the way of an output file: simulate fails on its
    # second replication, after the first went through the workers
    bad = tmp / "bad"
    for name in ("field_001.csv", "field_000_predicted.csv", "raw_field.csv"):
        (bad / name).mkdir(parents=True)
    bad_base = ["--config", str(config), "--out", str(bad), "--threads", "2"]
    for args in (["simulate"], ["predict", str(field), str(report)], ["ingest", str(raw)]):
        mapped.clear()
        result = CliRunner().invoke(main, bad_base + args)
        assert result.exit_code == 1
        assert json.loads(result.stderr.strip().splitlines()[-1])["type"] == "IsADirectoryError"
        assert multiprocessing.active_children() == []
        if args == ["simulate"]:
            assert mapped == (["_format_rows"] if forks else [])
    assert (bad / "field_000.csv").read_bytes() == field.read_bytes()


def test_no_process_for_one_thread_or_beside_another_thread(workspace, monkeypatch):
    started = []

    def no_pool(*args, **kwargs):
        started.append(args)
        raise RuntimeError("no process pool expected")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    tmp, config = workspace
    # 48x48 sites at depth 3: each field file spans two formatting blocks
    big = tmp / "big.json"
    big.write_text(json.dumps({**BASE_CONFIG, "grid": {"s1": 48, "s2": 48}}))
    _run(["--config", str(big), "--out", str(tmp / "t1"), "--threads", "1", "simulate"])
    # a 10x10 field is one block: --threads 2 has nothing to map on a worker
    _run(["--config", str(config), "--out", str(tmp / "t0"), "--threads", "2", "simulate"])
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:  # fork copies only the calling thread
        _run(["--config", str(big), "--out", str(tmp / "t2"), "--threads", "2", "simulate"])
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive() and started == []
    # the stub is the one --threads 2 uses where it may fork
    if "fork" in multiprocessing.get_all_start_methods() and threading.active_count() == 1:
        result = CliRunner().invoke(main, ["--config", str(big), "--out", str(tmp / "t3"),
                                           "--threads", "2", "simulate"])
        assert result.exit_code == 1 and started == [(2,)]


def test_one_block_at_two_threads_imports_no_process_pool(workspace):
    # a 10x10, depth-3 field is one parsing range and one formatting block,
    # so `counts --threads 2` maps nothing on a worker and imports nothing
    # to start one
    tmp, config = workspace
    out = tmp / "out"
    _run(["--config", str(config), "--out", str(out), "simulate"])
    args = ["--config", str(config), "--out", str(out), "--threads", "2", "counts", str(out / "field_000.csv")]
    assert _modules_after_cli_import("multiprocessing", "concurrent", args=args) == []
    assert (out / "field_000_counts.csv").is_file()


def test_readme_documents_every_command():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    documented = set()
    for line in block.splitlines():
        if line.startswith("coxmra "):
            args = line.split()[1:]
            while args[0].startswith("--"):  # global options take one value
                args = args[2:]
            documented.add(args[0])
    assert documented == set(main.commands)


def test_bad_config_fails_with_json_error(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"grid": {"s1": 1, "s2": 10}, "time": {"depth": 3}}))
    result = CliRunner().invoke(main, ["--config", str(config), "simulate"])
    assert result.exit_code == 1
    payload = json.loads(result.stderr.strip().splitlines()[-1])
    assert payload["type"] == "ConfigError"
    assert "s1" in payload["error"]


def test_ndjson_field_fails_with_json_error(workspace):
    # the NDJSON field layout is gone; such a file fails at its header
    tmp, config = workspace
    field = tmp / "field.ndjson"
    sites = "".join(f'{{"curve": [0.0, 0.0], "p": {p}, "q": {q}}}\n' for p in range(2) for q in range(2))
    field.write_text('{"depth": 1, "s1": 2, "s2": 2}\n' + sites)
    result = CliRunner().invoke(main, ["--config", str(config), "--out", str(tmp / "out"),
                                       "estimate", str(field)])
    assert result.exit_code == 1
    payload = json.loads(result.stderr.strip().splitlines()[-1])
    assert payload["type"] == "FieldFormatError"
    assert f"{field}: line 1: unexpected header" in payload["error"]


def test_validate_names_an_untrainable_site_and_writes_nothing(tmp_path):
    # every fold of an 8 x 8 lattice at the default radius 1 is resolved
    # before the first fit; the failing one is named and no table is written
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**BASE_CONFIG, "grid": {"s1": 8, "s2": 8}, "validation": {"period_length": 2}}))
    out = tmp_path / "out"
    _run(["--config", str(config), "--out", str(out), "simulate"])
    before = sorted(out.iterdir())
    result = CliRunner().invoke(main, ["--config", str(config), "--out", str(out), "validate", str(out / "field_000.csv")])
    assert result.exit_code == 1
    payload = json.loads(result.stderr.strip().splitlines()[-1])
    assert "hold-out (3, 3) on the 8x8 lattice with radius 1: it trains at radius 0" in payload["error"]
    assert sorted(out.iterdir()) == before


def test_counts_names_a_mean_too_large_to_draw(tmp_path):
    # numpy's own "lam value too large" names no cell
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**BASE_CONFIG, "counts": {"area_scale": 1e20}}))
    out = tmp_path / "out"
    _run(["--config", str(config), "--out", str(out), "simulate"])
    result = CliRunner().invoke(main, ["--config", str(config), "--out", str(out), "counts", str(out / "field_000.csv")])
    assert result.exit_code == 1
    values = load_field(out / "field_000.csv").values
    means = np.exp(values).sum(axis=2) / values.shape[2] * 1e20
    cell = tuple(map(int, np.unravel_index(means.argmax(), means.shape)))
    assert json.loads(result.stderr.strip().splitlines()[-1]) == {
        "error": f"Poisson mean {means.max():.6g} at cell {cell} is too large to draw", "type": "ValueError"}
    assert not (out / "field_000_counts.csv").exists()


def test_missing_input_fails_cleanly(workspace):
    tmp, config = workspace
    result = CliRunner().invoke(
        main, ["--config", str(config), "estimate", str(tmp / "nope.csv")]
    )
    assert result.exit_code != 0


def _package_env() -> dict:
    """The environment of a fresh interpreter that imports this `coxmra`."""
    src = str(Path(coxmra.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def _modules_after_cli_import(*prefixes, args=()) -> list[str]:
    """Modules a fresh interpreter holds after `import coxmra.cli`, and
    after running the command line `args` if there is one, whose names
    start with one of `prefixes`."""
    code = ("import json, sys, coxmra.cli\n"
            f"if {list(args)!r}:\n    coxmra.cli.main({list(args)!r}, standalone_mode=False)\n"
            f"print(json.dumps(sorted(m for m in sys.modules if m.startswith({prefixes!r}))))")
    out = subprocess.run([sys.executable, "-c", code], env=_package_env(), capture_output=True, text=True,
                         check=True, timeout=60)
    return json.loads(out.stdout.splitlines()[-1])


def test_import_loads_no_scipy():
    # every CLI command starts a fresh interpreter, so import cost is paid
    # per command; the package must not pull scipy in
    assert _modules_after_cli_import("scipy") == []


def test_import_loads_no_pydantic():
    # the config loader is plain dataclasses; a schema library would cost
    # every command about 0.2 s of import
    assert _modules_after_cli_import("pydantic", "pydantic_core", "annotated_types") == []


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_rejected(workspace, threads):
    tmp, config = workspace
    result = CliRunner().invoke(main, ["--config", str(config), "--out", str(tmp / "out"),
                                       "--threads", threads, "simulate"])
    assert result.exit_code == 2
    assert "Invalid value for '--threads'" in result.output
    assert not (tmp / "out").exists()


def test_error_funnel_passes_click_exits(workspace):
    # a command's exception is one JSON line and exit 1; click's own
    # help exit and usage errors, raised inside the group, keep their codes
    tmp, config = workspace
    base = ["--config", str(config), "--out", str(tmp / "out")]
    result = CliRunner().invoke(main, base + ["report", "--kind", "eigs"])
    assert result.exit_code == 1
    assert json.loads(result.stderr.strip().splitlines()[-1]) == {
        "error": "report requires at least one input file", "type": "ValueError"}
    result = CliRunner().invoke(main, base + ["report", "--help"])
    assert result.exit_code == 0 and result.output.startswith("Usage:")
    result = CliRunner().invoke(main, base + ["report", "--kind", "nope"])
    assert result.exit_code == 2 and "Invalid value for '--kind'" in result.output


@pytest.mark.parametrize("command", ["estimate", "counts", "ingest"])
def test_bad_model_fails_at_load(tmp_path, command):
    # commands that never simulate still check the model section
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**BASE_CONFIG, "model": {"truncation": 11}}))
    data = tmp_path / "input.csv"
    data.write_text("unused\n")
    result = CliRunner().invoke(main, ["--config", str(config), "--out", str(tmp_path / "out"),
                                       command, str(data)])
    assert result.exit_code == 1
    payload = json.loads(result.stderr.strip().splitlines()[-1])
    assert payload["type"] == "ConfigError"
    assert payload["error"] == f"{config}: model: truncation 11 exceeds the 10 supplied eigenvalues"
    assert not (tmp_path / "out").exists()


def test_infinite_bound_fails_at_load(tmp_path):
    # an infinite bound once made the pattern search's step infinite, and estimate never returned
    config = tmp_path / "config.json"
    bounds = [[-float("inf"), 0.5], [-0.5, 0.5], [-0.5, 0.5]]
    config.write_text(json.dumps({**BASE_CONFIG, "estimation": {"bounds": bounds}}))
    data = tmp_path / "input.csv"
    data.write_text("unused\n")
    result = CliRunner().invoke(main, ["--config", str(config), "--out", str(tmp_path / "out"),
                                       "estimate", str(data)])
    assert result.exit_code == 1
    payload = json.loads(result.stderr.strip().splitlines()[-1])
    assert payload == {"error": f"{config}: estimation: interval (-inf, 0.5) has no finite width", "type": "ConfigError"}
    assert not (tmp_path / "out").exists()
