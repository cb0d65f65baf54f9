"""Tests for the scenario-runner CLI."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cvsim import cli, fock

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
BUNDLED = sorted(SCENARIO_DIR.glob("*.json"))


def scenario_file(tmp_path, name="scenario.json", **overrides):
    data = {
        "kind": "cipd-histogram",
        "seed": 5,
        "parameters": {"n_pulses": 200},
    }
    data.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(data, indent=1))
    return path


def test_list_prints_all_kinds(capsys):
    assert cli.main(["list"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 5
    kinds = {line.split(":")[0] for line in lines}
    assert kinds == {"dense-coding-spectrum", "dense-coding-phase-sweep",
                     "cubic-phase-run", "cipd-histogram", "cipd-resolution"}


def test_describe_lists_parameters(capsys):
    assert cli.main(["describe", "cipd-histogram"]) == 0
    out = capsys.readouterr().out
    for name in ("eta", "gain", "dark_rate", "readout_noise"):
        assert name in out


def test_describe_unknown_kind(capsys):
    assert cli.main(["describe", "not-a-kind"]) == 1
    err = capsys.readouterr().err
    assert "cipd-histogram" in err and "dense-coding-spectrum" in err


def test_usage_errors_exit_one(capsys):
    assert cli.main(["run"]) == 1  # missing positional
    assert cli.main(["frobnicate"]) == 1
    assert cli.main(["--help"]) == 0
    capsys.readouterr()


def test_one_parser_serves_every_call_in_a_process(tmp_path, capsys):
    # main builds its parser once per process; each call in a mixed sequence
    # returns the exit code and output that a freshly built parser gives
    spectrum = str(SCENARIO_DIR / "dense_coding_spectrum.json")
    calls = [["run", spectrum, "--output-dir", "{}/first"], ["describe", "cipd-histogram"],
             ["list"], ["frobnicate"], ["run", spectrum, "--output-dir", "{}/second"]]

    def run_all(base, fresh):
        results = []
        for argv in calls:
            if fresh:
                cli._parser.cache_clear()
            code = cli.main([arg.format(base) for arg in argv])
            out, err = capsys.readouterr()
            results.append((code, out.replace(str(base), "<base>"), err.replace(str(base), "<base>")))
        return results

    expected = run_all(tmp_path / "fresh", fresh=True)
    cli._parser.cache_clear()
    assert run_all(tmp_path / "reused", fresh=False) == expected
    assert cli._parser.cache_info().misses == 1
    assert [code for code, _, _ in expected] == [0, 0, 0, 1, 0]
    for name in ("first", "second"):
        assert ((tmp_path / "reused" / name / "manifest.json").read_bytes()
                == (tmp_path / "fresh" / name / "manifest.json").read_bytes())


@pytest.mark.parametrize("path", BUNDLED, ids=lambda p: p.stem)
def test_bundled_scenarios_run(path, tmp_path):
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--output-dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["artifacts"], "no artifacts listed"
    # the manifest lists every other file in the output directory
    assert ([entry["name"] for entry in manifest["artifacts"]]
            == sorted(p.name for p in out.iterdir() if p.name != "manifest.json"))
    for entry in manifest["artifacts"]:
        blob = (out / entry["name"]).read_bytes()
        assert len(blob) == entry["bytes"]
        assert hashlib.sha256(blob).hexdigest() == entry["sha256"]


@pytest.mark.parametrize("name", ["cipd_histogram.json", "cubic_phase_run.json"])
def test_rerun_is_byte_identical(name, tmp_path):
    src = SCENARIO_DIR / name
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", str(src), "--output-dir", str(a)]) == 0
    assert cli.main(["run", str(src), "--output-dir", str(b)]) == 0
    manifest_a = (a / "manifest.json").read_bytes()
    manifest_b = (b / "manifest.json").read_bytes()
    assert manifest_a == manifest_b
    for entry in json.loads(manifest_a)["artifacts"]:
        assert (a / entry["name"]).read_bytes() == (b / entry["name"]).read_bytes()


def test_different_seed_changes_artifacts(tmp_path):
    s1 = scenario_file(tmp_path, "s1.json", seed=5)
    s2 = scenario_file(tmp_path, "s2.json", seed=6)
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", str(s1), "--output-dir", str(a)]) == 0
    assert cli.main(["run", str(s2), "--output-dir", str(b)]) == 0
    assert (a / "records.csv").read_bytes() != (b / "records.csv").read_bytes()


def test_malformed_json_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "cipd-histogram",\n  "seed": }\n')
    out = tmp_path / "out"
    assert cli.main(["run", str(bad), "--output-dir", str(out)]) == 1
    assert "line 2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mutate, needle", [
    (dict(kind="unknown-kind"), "kind"),
    (dict(seed=None), "seed"),
    (dict(seed="5"), "seed"),
    (dict(seed=True), "seed"),
    (dict(parameters={"n_pulses": 200, "typo_field": 1}), "typo_field"),
    (dict(parameters={"eta": "high"}), "parameters.eta"),
    (dict(extra_top=1), "extra_top"),
    (dict(kind="dense-coding-spectrum", parameters={"n_bins": 0}), "n_bins"),
    (dict(kind="dense-coding-spectrum", parameters={"n_bins": -2}), "n_bins"),
    (dict(kind="dense-coding-spectrum", parameters={"n_bins": 1}), "n_bins"),
    (dict(kind="dense-coding-phase-sweep", parameters={"n_phases": 0}), "parameters.n_phases"),
    (dict(kind="dense-coding-phase-sweep", parameters={"n_phases": -1}), "parameters.n_phases"),
    (dict(kind="dense-coding-spectrum", parameters={"n_samples": -1}), "parameters.n_samples"),
    (dict(kind="dense-coding-spectrum", parameters={"n_samples": 1}), "parameters.n_samples"),
    (dict(kind="dense-coding-spectrum", parameters={"n_samples": 10**400}), "parameters.n_samples"),
    (dict(kind="dense-coding-spectrum", parameters={"f_lo_hz": 0.0}), "parameters.f_lo_hz"),
    (dict(kind="dense-coding-spectrum", parameters={"f_lo_hz": 2e6, "f_hi_hz": 1e6}),
     "parameters.f_hi_hz"),
    (dict(kind="dense-coding-spectrum", parameters={"f_lo_hz": 1e6, "f_hi_hz": 1e6}),
     "parameters.f_hi_hz"),
    (dict(kind="dense-coding-spectrum", parameters={"f_lo_hz": -1e308, "f_hi_hz": 1e308}),
     "parameters.f_lo_hz, parameters.f_hi_hz"),
    (dict(kind="dense-coding-spectrum",
          parameters={"am_frequency_hz": 1.2e6, "pm_frequency_hz": 1.2e6}),
     "parameters.am_frequency_hz, parameters.pm_frequency_hz"),
    (dict(kind="dense-coding-spectrum", parameters={"n_bins": 3}),
     "parameters.am_frequency_hz, parameters.pm_frequency_hz"),
    (dict(kind="cubic-phase-run", parameters={"squeezing_r": 20.0}), "squeezing_r"),
])
def test_config_errors_name_the_field(tmp_path, capsys, mutate, needle):
    path = scenario_file(tmp_path, **mutate)
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--output-dir", str(out)]) == 1
    assert needle in capsys.readouterr().err
    assert not out.exists(), "partial artifacts after config error"


@pytest.mark.parametrize("kind, params, needle", [
    ("dense-coding-spectrum", {"amplitude": float("nan")}, "parameters.amplitude"),
    ("dense-coding-spectrum", {"squeezing_r": float("inf")}, "parameters.squeezing_r"),
    ("cubic-phase-run", {"displacement_alpha": [0.5, float("-inf")]},
     "parameters.displacement_alpha"),
    ("cipd-histogram", {"integration_window": float("nan")}, "parameters.integration_window"),
    ("cipd-histogram", {"source_pmf": [0.5, float("nan"), 0.5]}, "parameters.source_pmf"),
    ("cipd-histogram", {"gain": 10 ** 400}, "parameters.gain"),
])
def test_non_finite_parameters_rejected(tmp_path, capsys, kind, params, needle):
    # json.dumps writes NaN / Infinity literals, which json.loads accepts
    path = scenario_file(tmp_path, kind=kind, parameters=params)
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--output-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert needle in err and "finite" in err
    assert not out.exists(), "artifacts written for a non-finite parameter"


@pytest.mark.parametrize("params", [{"gain": 1e12}, {"bin_width": 1e-9}])
def test_histogram_bin_cap_names_bin_width(tmp_path, capsys, params):
    # about 1e13 and 1e11 bins: refused by the cap, not left to the allocator
    path = scenario_file(tmp_path, parameters=dict(params, n_pulses=200))
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--output-dir", str(out)]) == 1
    assert "bin_width" in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_result_exits_one(tmp_path, capsys):
    # a finite amplitude whose tone power overflows to inf
    path = scenario_file(tmp_path, kind="dense-coding-spectrum",
                         parameters={"n_bins": 5, "amplitude": 1e200})
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--output-dir", str(out)]) == 1
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists(), "artifacts written for a non-finite result"


@pytest.mark.parametrize("params, needle", [
    ({"dim": 200}, "dim + qnd_pad"),  # refused before any dim^3 work
    ({"qnd_pad": -3}, "qnd_pad"),
    ({"grid_points": 1}, "grid_points"),
])
def test_gate_sizes_checked_up_front(tmp_path, capsys, params, needle):
    path = scenario_file(tmp_path, kind="cubic-phase-run", parameters=params)
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--output-dir", str(out)]) == 1
    assert needle in capsys.readouterr().err
    assert not out.exists()


def test_coarse_homodyne_grid_is_a_truncation(tmp_path, capsys):
    # 16 points over |x| <= 8.7: spacing 1.15, while phi_15 needs < 0.56
    path = scenario_file(tmp_path, kind="cubic-phase-run",
                         parameters={"dim": 16, "grid_points": 16})
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--output-dir", str(out), "--strict"]) == 2
    assert "grid of 16 points" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("params, needle", [
    ({"dim": 16, "correction_s": 50.0}, "squeeze s=50.0"),
    ({"grid_points": 3}, "grid of 3 points"),
])
def test_strict_escalates_every_run_in_a_process(tmp_path, capsys, params, needle):
    # the truncation checks run outside fock's caches, so a second run in the
    # same process warns and exits 2 like the first
    path = scenario_file(tmp_path, kind="cubic-phase-run", parameters=params)
    for name in ("first", "second"):
        out = tmp_path / name
        assert cli.main(["run", str(path), "--output-dir", str(out), "--strict"]) == 2
        assert needle in capsys.readouterr().err
        assert not out.exists()


def _clear_fock_caches():
    for cached in (fock._cached_hermite_table, fock._quadrature_eigh, fock._qnd_gram_defect,
                   fock._squeeze_unitary):
        cached.cache_clear()


def test_gate_runs_match_cold_caches(tmp_path):
    # each gate_run.json of a sequence run in one process is byte-identical to
    # the same scenario run with every fock cache emptied first
    sequence = [{"dim": 16}, {"dim": 32}, {"dim": 16}, {"dim": 16, "grid_points": 2048},
                {"dim": 16, "grid_points": 1024}, {"dim": 16, "homodyne_which": "target"},
                {"dim": 16, "qnd_pad": 0}, {"dim": 16, "correction_s": 0.0},
                {"dim": 16, "correction_s": -0.0}]

    def gate_json(name, params):
        path = scenario_file(tmp_path, f"{name}.json", kind="cubic-phase-run", seed=9,
                             parameters=params)
        assert cli.main(["run", str(path), "--output-dir", str(tmp_path / name)]) == 0
        return (tmp_path / name / "gate_run.json").read_bytes()

    warm = [gate_json(f"warm{i}", params) for i, params in enumerate(sequence)]
    for i, params in enumerate(sequence):
        _clear_fock_caches()
        assert gate_json(f"cold{i}", params) == warm[i], params


def test_interrupted_run_leaves_nothing(tmp_path, monkeypatch):
    # the interrupt falls between the two files of write_spectra: spectra.csv
    # is written, so a run writing into output_dir directly would leave it
    # behind without a manifest
    def interrupt(path, _payload):
        assert path.with_suffix(".csv").is_file()
        raise KeyboardInterrupt

    monkeypatch.setattr(cli.densecoding.artifacts, "write_json", interrupt)
    path = scenario_file(tmp_path, kind="dense-coding-spectrum", parameters={"n_bins": 5})
    out = tmp_path / "out"
    with pytest.raises(KeyboardInterrupt):
        cli.main(["run", str(path), "--output-dir", str(out)])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json"]


def test_missing_scenario_file(tmp_path, capsys):
    assert cli.main(["run", str(tmp_path / "nope.json")]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_undecodable_scenario_file(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"kind": "cipd-histogram", "seed": 5, "output_dir": "\xe9"}')
    assert cli.main(["run", str(path)]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_output_dir_collision_rejected(tmp_path, capsys):
    path = scenario_file(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    (out / "keep.txt").write_text("precious")
    assert cli.main(["run", str(path), "--output-dir", str(out)]) == 1
    assert "already exists" in capsys.readouterr().err
    assert (out / "keep.txt").read_text() == "precious"


def test_output_dir_not_creatable(tmp_path, capsys):
    path = scenario_file(tmp_path)
    assert cli.main(["run", str(path), "--output-dir", str(path / "out")]) == 1
    assert "cannot create output directory" in capsys.readouterr().err


def test_output_dir_required_somewhere(tmp_path, capsys):
    path = scenario_file(tmp_path)  # no output_dir field
    assert cli.main(["run", str(path)]) == 1
    assert "output_dir" in capsys.readouterr().err


def test_output_dir_from_scenario_field(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = scenario_file(tmp_path, output_dir="nested/run1")
    assert cli.main(["run", str(path)]) == 0
    assert (tmp_path / "nested" / "run1" / "manifest.json").exists()


def _truncating_scenario(tmp_path):
    # a displacement far too large for the cutoff provokes the truncation
    # warning inside the gate run
    data = {
        "kind": "cubic-phase-run",
        "seed": 3,
        "parameters": {"dim": 8, "displacement_alpha": [2.5, 0.0],
                       "post_select_n": 1},
    }
    path = tmp_path / "hot.json"
    path.write_text(json.dumps(data))
    return path


def test_truncation_logged_but_ok_by_default(tmp_path, capsys):
    path = _truncating_scenario(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--output-dir", str(out)]) == 0
    assert "warning:" in capsys.readouterr().err
    assert (out / "manifest.json").exists()


def test_strict_escalates_truncation(tmp_path, capsys):
    path = _truncating_scenario(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--output-dir", str(out), "--strict"]) == 2
    assert "strict" in capsys.readouterr().err
    assert not out.exists(), "strict failure must not leave artifacts"


def _python(*args):
    """Run a child Python that imports the same cvsim as this process,
    installed or not."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def test_console_entry_point():
    proc = _python("-m", "cvsim.cli", "list")
    assert proc.returncode == 0
    assert "cubic-phase-run" in proc.stdout
    assert proc.stderr == ""  # no runpy warning about cvsim.cli already imported


def test_cli_import_leaves_heavy_scipy_modules_unloaded():
    # importing the CLI pulls in none of scipy's heavy subpackages
    proc = _python("-c", "import sys, cvsim.cli; print(sorted(set(sys.modules) & "
                   "{'scipy.signal', 'scipy.ndimage', 'scipy.integrate'}))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("name, modules", [
    # the gate's diagnostics integrate on fock's trapezoid rule, not scipy's
    ("cubic_phase_run.json", ["scipy.integrate"]),
    # the detector smooths and picks peaks in numpy, not scipy
    ("cipd_histogram.json", ["scipy.ndimage", "scipy.signal"]),
], ids=["cubic_phase_run", "cipd_histogram"])
def test_run_leaves_scipy_modules_unloaded(name, modules, tmp_path):
    run = ["run", str(SCENARIO_DIR / name), "--output-dir", str(tmp_path / "out")]
    proc = _python("-c", f"import sys, cvsim.cli; code = cvsim.cli.main({run!r}); "
                   f"print(code, sorted(set(sys.modules) & {set(modules)!r}))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


def test_bundled_scenarios_run_without_scipy(tmp_path):
    # scipy is a test-side oracle only: with every `import scipy...` failing,
    # each bundled scenario still runs clean under --strict
    runs = [["run", str(path), "--output-dir", str(tmp_path / path.stem), "--strict"]
            for path in BUNDLED]
    proc = _python("-c", "import sys; sys.modules['scipy'] = None; import cvsim.cli; "
                   f"print([cvsim.cli.main(run) for run in {runs!r}])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == repr([0] * 5)
