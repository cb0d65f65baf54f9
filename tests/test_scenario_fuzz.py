"""Property test of the scenario boundary.

Any parameters a scenario file can hold -- well-typed, ill-typed, NaN or
+-Infinity, any subset of a kind's fields -- must end in exit 0 with finite
artifacts that match the manifest, or in exit 1/2 with no output directory
(nor any staging directory); `cli.main` must never raise, and an exit 1
names the refused `parameters.` field unless the failure is on the result
side.  A detector run
without readout noise must not report a negative charge.  Size- and scale-like fields are drawn small so
one example costs a few ms and a few MB; for the detector these include every
field that sets the charge range, and with it the histogram's bin count.
The fields of the detector, dense-coding-spectrum and cubic-phase-run kinds
come from their valid ranges in nine draws of ten, so most of their examples
run to the end; each example is tagged with its kind and exit code (see
`pytest --hypothesis-show-statistics`).
"""

import contextlib
import hashlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import event, given, settings
from hypothesis import strategies as st

from cvsim import cli


def floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False)


def positive(lo, hi):
    """In [lo, hi], or one of 0, -1, 1e-320, +-1e300 and 1e308: values at or past
    the ends of a scale-like field, which a run must refuse by name or carry
    through to finite artifacts."""
    return st.one_of(floats(lo, hi), st.sampled_from([0.0, -1.0, 1e-320, 1e300, -1e300, 1e308]))


def signed(lo, hi):
    """In [lo, hi], any finite double, or one of +-1e300 and +-1.7976931348623157e308:
    values past the cap of a field that may take either sign, out to the end of
    the float range."""
    ends = [-1.7976931348623157e308, -1e300, 1e300, 1.7976931348623157e308]
    return st.one_of(floats(lo, hi), st.floats(allow_nan=False, allow_infinity=False),
                     st.sampled_from(ends))


def mostly(valid, wide):
    """`valid` in nine draws of ten, else `wide` (which reaches invalid values)."""
    return st.integers(0, 9).flatmap(lambda k: wide if k == 9 else valid)


def detector_positive(lo, hi):
    """A detector field drawn mostly from [lo, hi], its valid range."""
    return mostly(floats(lo, hi), positive(lo, hi))


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf, 10 ** 400])
ILL_TYPED = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3), st.just({"x": 1}),
    st.lists(st.one_of(floats(-1, 1), NON_FINITE, st.text(max_size=1)), max_size=3))

WELL_TYPED = {
    # dense-coding-spectrum / dense-coding-phase-sweep; a valid band puts the
    # PM tone at or below f_lo and the AM tone at or above f_hi, so the two
    # never share a bin; a wide f_hi_hz one double above the default f_lo_hz
    # or an end of its valid range makes a band too narrow for its bins
    "n_bins": mostly(st.integers(2, 9), st.integers(-1, 9)),
    "f_lo_hz": mostly(floats(0.5e6, 1e6), floats(-1e6, 2e6)),
    "f_hi_hz": mostly(floats(1.5e6, 2.5e6), st.one_of(floats(-1e6, 3e6), st.sampled_from(
        [math.nextafter(f, math.inf) for f in (0.5e6, 0.8e6, 1e6)]))),
    # past the one |r| cap, 10, of the spectrum, the sweep and the gate
    "squeezing_r": mostly(floats(0.0, 0.2), floats(-11.0, 11.0)),
    "am_frequency_hz": mostly(floats(2.5e6, 3e6), floats(0.0, 3e6)),
    "pm_frequency_hz": mostly(floats(0.0, 0.5e6), floats(0.0, 3e6)),
    "amplitude": mostly(floats(-10.0, 10.0), signed(-10.0, 10.0)),
    "loss_eta": mostly(floats(0.0, 1.0), floats(-0.2, 1.2)),
    # a sampled spectrum costs the same at any n_samples; -2 and 1 are invalid
    "n_samples": mostly(st.one_of(st.just(0), st.integers(2, 10 ** 9)), st.integers(-2, 40)),
    "mirror_transmittance": mostly(floats(0.0, 0.9), floats(-0.1, 1.1)),
    "n_phases": st.integers(-1, 16),
    # cubic-phase-run; a valid draw also passes --strict: |alpha|^2 <= dim/4,
    # the resource and correction tails below 1e-10, a grid that resolves
    # phi_{dim-1}, and a count that the resource can produce; a wide pair of
    # equal parts has a modulus past the float range from 1.27e308
    "displacement_alpha": mostly(st.lists(floats(-1.0, 1.0), min_size=2, max_size=2),
                                 st.one_of(st.lists(st.one_of(positive(-2.0, 2.0),
                                                              signed(-2.0, 2.0)),
                                                    min_size=2, max_size=2),
                                           signed(-2.0, 2.0).map(lambda v: [v, v]))),
    "correction_s": mostly(floats(-0.05, 0.05), signed(-1.0, 1.0)),
    "coupling_g": mostly(floats(-3.0, 3.0), signed(-3.0, 3.0)),
    "gamma_target": floats(-1.0, 1.0),
    "dim": mostly(st.integers(8, 12), st.integers(4, 12)),
    "qnd_pad": mostly(st.one_of(st.none(), st.integers(0, 8)),
                      st.one_of(st.none(), st.integers(-2, 8))),
    "post_select_n": mostly(st.one_of(st.none(), st.integers(0, 2)),
                            st.one_of(st.none(), st.integers(-1, 13))),
    "homodyne_which": mostly(st.sampled_from(["ancilla", "target"]),
                             st.sampled_from(["ancilla", "target", "both"])),
    "grid_points": mostly(st.integers(32, 256), st.integers(-1, 256)),
    # cipd-histogram / cipd-resolution
    "eta": mostly(floats(0.0, 1.0), floats(-0.2, 1.2)),
    "gain": mostly(floats(1.0, 20.0), positive(0.5, 20.0)),
    "dark_rate": detector_positive(0.0, 5.0),
    "readout_noise": detector_positive(0.0, 30.0),
    "sample_rate": detector_positive(0.5, 50.0),
    "gain_dispersion": detector_positive(0.0, 3.0),
    "source_mean": detector_positive(0.0, 10.0),
    "source_pmf": st.one_of(
        st.none(), st.just([0.0, 1.0]),
        mostly(st.lists(floats(0.05, 1.0), min_size=1, max_size=6).map(
            lambda w: [v / math.fsum(w) for v in w]),
            st.lists(floats(0.0, 1.0), min_size=1, max_size=6))),
    "n_pulses": mostly(st.integers(1, 300), st.integers(-1, 300)),
    "bin_width": detector_positive(0.2, 5.0),
    "target_snr": floats(-1.0, 10.0),
    "drift_duration_s": floats(-1.0, 10.0),
    "drift_budget_e": st.one_of(st.none(), floats(-1.0, 10.0)),
}


@st.composite
def scenarios(draw):
    kind = draw(st.sampled_from(sorted(cli._KINDS)))
    chosen = draw(st.lists(st.sampled_from(list(cli._KINDS[kind].schema)), unique=True))
    params = {name: draw(WELL_TYPED[name]) for name in chosen}
    if chosen and draw(st.booleans()):
        params[draw(st.sampled_from(chosen))] = draw(st.one_of(ILL_TYPED, NON_FINITE))
    return kind, draw(st.integers(0, 2 ** 32)), params, draw(st.booleans())


def _reject_constant(name):
    raise AssertionError(f"non-finite JSON constant {name}")


def assert_finite(name, text):
    if name.endswith(".json"):
        json.loads(text, parse_constant=_reject_constant)
    else:
        for row in text.splitlines()[1:]:
            assert all(math.isfinite(float(cell)) for cell in row.split(",")), (name, row)


def run_scenario(tmp, kind, seed, params, strict=False):
    """cli.main on tmp/scenario.json with output to tmp/out: (exit code, out, stderr)."""
    path, out = Path(tmp) / "scenario.json", Path(tmp) / "out"
    # json.dumps writes NaN / Infinity literals, which json.loads accepts
    path.write_text(json.dumps({"kind": kind, "seed": seed, "parameters": params}))
    argv = ["run", str(path), "--output-dir", str(out)] + ["--strict"] * strict
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        return cli.main(argv), out, err.getvalue()


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(scenarios())
def test_any_scenario_ends_cleanly(scenario):
    with tempfile.TemporaryDirectory() as tmp:
        code, out, err = run_scenario(tmp, *scenario)
        event(f"{scenario[0]}: exit {code}")
        assert code in (0, 1, 2)
        left = sorted(p.name for p in Path(tmp).iterdir())
        if code == 1:
            assert "parameters." in err, err
        if code:
            assert left == ["scenario.json"], "files left by a failed run"
            return
        assert left == ["out", "scenario.json"]
        manifest = json.loads((out / "manifest.json").read_text())
        listed = [entry["name"] for entry in manifest["artifacts"]]
        assert sorted(listed) == sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
        for entry in manifest["artifacts"]:
            blob = (out / entry["name"]).read_bytes()
            assert len(blob) == entry["bytes"]
            assert hashlib.sha256(blob).hexdigest() == entry["sha256"]
            assert_finite(entry["name"], blob.decode())


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(st.fixed_dictionaries({}, optional={
    name: WELL_TYPED[name] for name in (
        "gain", "gain_dispersion", "source_mean", "source_pmf", "n_pulses", "dark_rate")}),
       st.integers(0, 2 ** 32))
def test_noiseless_detector_charges_are_nonnegative(params, seed):
    # without readout noise a charge is gain x electrons, negative only
    # where a drawn gain is
    params = dict(params, readout_noise=0.0, gain_dispersion=params.get("gain_dispersion", 1.0))
    with tempfile.TemporaryDirectory() as tmp:
        code, out, _ = run_scenario(tmp, "cipd-histogram", seed, params)
        if code == 0:
            rows = (out / "records.csv").read_text().splitlines()[1:]
            assert min(float(row.rsplit(",", 1)[1]) for row in rows) >= 0.0
