import cmath
import contextlib
import json
import math
import os
import re
from dataclasses import fields, replace
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinboson import experiments
from spinboson.cli import main
from spinboson.correlations import SIDES
from spinboson.experiments import (
    CLOSED_FORM_PARTITIONS,
    MEASURES,
    SERIES_MEASURES,
    SQUARE_SUM_PARTITIONS,
    SweepResult,
    agreement_audit,
    flat_classical_tail_audit,
    reservoir_transfer_audit,
    run_sweep,
    square_sum_audit,
)
from spinboson.io import (
    CSV_HEADER,
    FIGURE_CONFIGS,
    MAX_GRID,
    MAX_REFINE_ITERS,
    MAX_TIME_STEPS,
    PIPELINE_NAMES,
    RunConfig,
    _atomic_write,
    _m4_indices,
    emit_csv,
    emit_svg_plot,
    parse_config,
)
from spinboson.model import FAMILIES, PARTITION_ORDER, Scenario, SpectralDensity


def h2(x):
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def bell_doc(**overrides):
    doc = {
        "family": "two_exc",
        "alpha_re": 0.70710678,
        "beta_re": 0.70710678,
        "spectral": {"kind": "flat", "gamma": 1.0},
        "time_start": 0.0,
        "time_end": 2.0 * math.log(2.0),
        "time_steps": 3,
        "partitions": ["s1s2", "r1r2"],
        "pipeline": "both",
        "grid": 24,
        "refine_iters": 3,
    }
    doc.update(overrides)
    return doc


class TestParseConfig:
    def test_bell_flat(self):
        cfg = parse_config(json.dumps(bell_doc()))
        assert cfg.family == "two_exc"
        assert abs(abs(cfg.alpha) ** 2 + abs(cfg.beta) ** 2 - 1.0) < 1e-15
        assert cfg.spectral.kind == "flat"
        assert cfg.pipeline == "both"

    def test_defaults(self):
        cfg = parse_config(
            json.dumps(
                {
                    "family": "one_exc",
                    "alpha_re": 0.6,
                    "beta_re": 0.8,
                    "spectral": {"kind": "flat", "gamma": 2.0},
                }
            )
        )
        assert cfg.grid == 64
        assert cfg.refine_iters == 4
        assert cfg.pipeline == "both"
        assert len(cfg.partitions) == 6
        assert cfg.side == "second"

    def test_lorentz_figure_parameter(self):
        cfg = parse_config(
            json.dumps(
                {
                    "family": "two_exc",
                    "alpha_re": 0.70710678,
                    "beta_re": 0.70710678,
                    "spectral": {"kind": "lorentz", "W": math.sqrt(200.0), "lambda": 1.0},
                }
            )
        )
        assert abs(cfg.spectral.W / cfg.spectral.lam - math.sqrt(200.0)) < 1e-12

    def test_lopsided_weights(self):
        cfg = parse_config(
            json.dumps(
                bell_doc(alpha_re=0.316227766, beta_re=0.948683298)
            )
        )
        assert abs(abs(cfg.alpha) ** 2 - 0.1) < 1e-9
        assert abs(abs(cfg.beta) ** 2 - 0.9) < 1e-9

    def test_unknown_key_named(self):
        with pytest.raises(ValueError, match="made_up_key"):
            parse_config(json.dumps(bell_doc(made_up_key=1)))

    def test_unknown_spectral_key_named(self):
        doc = bell_doc()
        doc["spectral"] = {"kind": "flat", "gamma": 1.0, "cutoff": 3.0}
        with pytest.raises(ValueError, match="cutoff"):
            parse_config(json.dumps(doc))

    def test_norm_renormalised_or_rejected(self):
        near = bell_doc(alpha_re=0.7071067, beta_re=0.7071068)
        cfg = parse_config(json.dumps(near))
        assert abs(abs(cfg.alpha) ** 2 + abs(cfg.beta) ** 2 - 1.0) < 1e-15
        with pytest.raises(ValueError, match="norm"):
            parse_config(json.dumps(bell_doc(alpha_re=0.7, beta_re=0.7)))

    def test_field_constraints_named(self):
        with pytest.raises(ValueError, match="time_steps"):
            parse_config(json.dumps(bell_doc(time_steps=1)))
        with pytest.raises(ValueError, match="partition"):
            parse_config(json.dumps(bell_doc(partitions=["s1s9"])))
        with pytest.raises(ValueError, match="pipeline"):
            parse_config(json.dumps(bell_doc(pipeline="fastest")))
        with pytest.raises(ValueError, match="side"):
            parse_config(json.dumps(bell_doc(side="both")))
        with pytest.raises(ValueError, match="grid"):
            parse_config(json.dumps(bell_doc(grid=0)))

    def test_scenario_times_dimensionless(self):
        cfg = parse_config(json.dumps(bell_doc(time_end=2.0)))
        assert cfg.scenario().time_grid[-1] == 2.0 * cfg.spectral.gamma
        doc = bell_doc(time_end=2.0)
        doc["spectral"] = {"kind": "flat", "gamma": 3.0}
        cfg = parse_config(json.dumps(doc))
        assert cfg.scenario().time_grid[-1] == 6.0


class TestConfigHardening:
    # json parses the bare literals NaN and Infinity, so configs are
    # written as text here

    @staticmethod
    def with_literal(field, literal, spectral=False):
        doc = bell_doc()
        target = doc["spectral"] if spectral else doc
        target[field] = "@@"
        return json.dumps(doc).replace('"@@"', literal)

    def test_nan_weight_rejected(self):
        with pytest.raises(ValueError, match="alpha_re"):
            parse_config(self.with_literal("alpha_re", "NaN"))

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize(
        "spectral,field",
        [({"kind": "flat"}, "gamma"), ({"kind": "lorentz", "W": 2.0, "lambda": 1.0}, "W"),
         ({"kind": "lorentz", "W": 2.0, "lambda": 1.0}, "lambda")],
    )
    def test_non_finite_spectral_rejected(self, spectral, field, literal):
        doc = bell_doc(spectral=dict(spectral, **{field: "@@"}))
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            parse_config(json.dumps(doc).replace('"@@"', literal))

    def test_infinite_time_end_rejected(self):
        with pytest.raises(ValueError, match="time_end must be finite"):
            parse_config(self.with_literal("time_end", "Infinity"))

    @pytest.mark.parametrize("field,value", [("time_steps", 2.7), ("grid", 2.5), ("refine_iters", 1.5)])
    def test_non_integral_counts_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            parse_config(json.dumps(bell_doc(**{field: value})))

    def test_integral_float_count_accepted(self):
        assert parse_config(json.dumps(bell_doc(time_steps=3.0))).time_steps == 3

    def test_bool_count_rejected(self):
        with pytest.raises(ValueError, match="time_steps must be an integer, got True"):
            parse_config(json.dumps(bell_doc(time_steps=True)))

    @pytest.mark.parametrize(
        "field,value",
        [("time_steps", MAX_TIME_STEPS + 1), ("time_steps", 10**12), ("grid", MAX_GRID + 1),
         ("grid", 100_000), ("refine_iters", MAX_REFINE_ITERS + 1)],
    )
    def test_counts_bounded_above(self, field, value):
        # rejected while parsing, before anything is allocated
        with pytest.raises(ValueError, match=f"{field} is {value}; must be in"):
            parse_config(json.dumps(bell_doc(**{field: value})))

    def test_bounds_cover_documented_settings(self):
        assert MAX_TIME_STEPS >= 10_001 and MAX_GRID >= 128 and MAX_REFINE_ITERS >= 5

    def test_partitions_must_be_a_list(self):
        with pytest.raises(ValueError, match="partitions must be a list"):
            parse_config(json.dumps(bell_doc(partitions="s1s2")))

    @pytest.mark.parametrize("audits", [{"agreement": False}, {"agreement": True}, {}])
    def test_audits_key_rejected(self, audits):
        # every audit that applies runs; there are no toggles to set
        with pytest.raises(ValueError, match="unknown key 'audits'"):
            parse_config(json.dumps(bell_doc(audits=audits)))

    @pytest.mark.parametrize(
        "spectral,time_end,message",
        [
            # each input is finite; the grid gamma * t was [0, inf, inf] and ran
            ({"kind": "flat", "gamma": 1e300}, 1e10, "config: spectral.gamma * time_end is not finite"),
            # W / lambda = inf made amplitudes_lorentz fail with "math domain error"
            ({"kind": "lorentz", "W": 1e300, "lambda": 1e-300}, 5.0, "SpectralDensity: lorentz W / lambda is inf"),
            # W / lambda = 0 made amplitudes_lorentz reject its own argument
            ({"kind": "lorentz", "W": 1e-300, "lambda": 1e300}, 5.0, "SpectralDensity: lorentz W / lambda is 0.0"),
            ({"kind": "lorentz", "W": 1e200, "lambda": 1.0}, 5.0,
             "config: spectral W / lambda and time_end give a non-finite oscillation phase"),
        ],
        ids=["gamma_time_overflow", "ratio_overflow", "ratio_underflow", "phase_overflow"],
    )
    def test_overflowing_spectral_products_rejected(self, tmp_path, capsys, spectral, time_end, message):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(bell_doc(spectral=spectral, time_end=time_end)))
        assert main(["sweep", str(cfg_path), "--out", str(tmp_path)]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    def test_collapsed_time_grid_names_its_fields(self, tmp_path, capsys):
        # 101 steps between two floats 4 apart (two ulps) round to repeated times;
        # the model's own check used to report it without naming a field
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(bell_doc(time_start=1e16, time_end=1.0000000000000004e16, time_steps=101)))
        assert main(["sweep", str(cfg_path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "error: config: time_start, time_end and time_steps give a time grid that does not increase" in err
        assert not (tmp_path / "sweep.csv").exists()


# At least one invalid value per RunConfig field: a config-document
# override, the same value as a field, and a pattern of the message.  The
# document's other keys that name a field (pipeline) change that field too.
INVALID_FIELDS = [
    ("family", {"family": "three_exc"}, "three_exc", "family must be one of"),
    ("alpha", {"alpha_re": 2.0}, 2.0, "alpha/beta norm is"),
    ("beta", {"beta_re": 0.1}, 0.1, "alpha/beta norm is"),
    # gamma * time_end = 1.5e308 * 2 ln 2 overflows
    ("spectral", {"spectral": {"kind": "flat", "gamma": 1.5e308}},
     SpectralDensity("flat", gamma=1.5e308), r"spectral.gamma \* time_end is not finite"),
    ("time_start", {"time_start": -1.0}, -1.0, "time_start must be >= 0"),
    ("time_start", {"time_start": "0"}, "0", "time_start must be a number"),
    ("time_end", {"time_end": 0.0}, 0.0, "time_end must exceed time_start"),
    ("time_steps", {"time_steps": 1}, 1, "time_steps is 1; must be in"),
    ("partitions", {"partitions": []}, (), "partitions must not be empty"),
    ("partitions", {"partitions": ["s1s2", "s1s2"]}, ("s1s2", "s1s2"), "partitions must be unique"),
    ("partitions", {"partitions": ["s1s9"]}, ("s1s9",), "unknown partition 's1s9' in partitions"),
    ("partitions", {"partitions": "s1s2"}, "s1s2", "partitions must be a list or tuple"),
    # audit, which runs both pipelines, used to pass this config that sweep rejects
    ("partitions", {"pipeline": "closed", "partitions": ["s1s2", "s1r1"]}, ("s1s2", "s1r1"),
     "the closed-form pipeline covers partitions"),
    ("pipeline", {"pipeline": "fastest"}, "fastest", "pipeline must be one of"),
    ("grid", {"grid": 1}, 1, "grid is 1; must be in"),
    ("refine_iters", {"refine_iters": -1}, -1, "refine_iters is -1; must be in"),
    ("side", {"side": "both"}, "both", "side must be one of"),
    ("svg", {"svg": "yes"}, "yes", "svg must be a boolean"),
]


class TestOneValidator:
    """parse_config, RunConfig(...) and dataclasses.replace check fields alike."""

    valid = parse_config(json.dumps(bell_doc()))
    kwargs = dict(vars(valid))  # its fields by name

    def builds(self, doc, **changes):
        return (
            lambda: parse_config(json.dumps(bell_doc(**doc))),
            lambda: RunConfig(**{**self.kwargs, **changes}),
            lambda: replace(self.valid, **changes),
        )

    @pytest.mark.parametrize("field,doc,value,message", INVALID_FIELDS,
                             ids=[json.dumps(case[1]) for case in INVALID_FIELDS])
    def test_invalid_field_rejected_on_every_path(self, field, doc, value, message):
        changes = {key: doc[key] for key in doc.keys() & self.kwargs.keys()} | {field: value}
        for build in self.builds(doc, **changes):
            with pytest.raises(ValueError, match=message) as exc:
                build()
            assert str(exc.value).startswith("config: ") and field in str(exc.value)

    @pytest.mark.parametrize(
        "doc,kwargs,message",
        [
            ({"kind": "flat", "gamma": 1.0, "W": 5.0}, dict(kind="flat", gamma=1.0, W=5.0), "takes no W, got 5.0"),
            ({"kind": "flat", "gamma": 1.0, "lambda": 1.0}, dict(kind="flat", gamma=1.0, lam=1.0), "takes no lambda"),
            ({"kind": "lorentz", "W": 2.0, "lambda": 1.0, "gamma": 1.0},
             dict(kind="lorentz", W=2.0, lam=1.0, gamma=1.0), "takes no gamma"),
            ({"kind": "flat", "gamma": 1.0, "W": 0}, dict(kind="flat", gamma=1.0, W=0), "takes no W, got 0"),
            ({"kind": "flat", "gamma": True}, dict(kind="flat", gamma=True), "gamma .*got True"),
            ({"kind": "square", "gamma": 1.0}, dict(kind="square", gamma=1.0), "kind must be one of .*got 'square'"),
        ],
        ids=["flat_W", "flat_lambda", "lorentz_gamma", "flat_W_0", "bool_gamma", "unknown_kind"],
    )
    def test_spectral_fields_checked_on_every_path(self, doc, kwargs, message):
        # a spectrum built in code used to skip the rules that only parse_config applied
        for build in (
            lambda: parse_config(json.dumps(bell_doc(spectral=doc))),
            lambda: RunConfig(**{**self.kwargs, "spectral": SpectralDensity(**kwargs)}),
            lambda: replace(self.valid, spectral=replace(self.valid.spectral, **kwargs)),
        ):
            with pytest.raises(ValueError, match=message):
                build()

    @pytest.mark.parametrize("alpha,beta,field", [(True, False, "alpha"), (1.0, False, "beta")])
    def test_bool_weights_rejected(self, alpha, beta, field):
        # bool is an int to isinstance, so (True, False) passed as the unit pair (1, 0);
        # a document's true is rejected by the number check of alpha_re etc.
        for build in self.builds({}, alpha=alpha, beta=beta)[1:]:
            with pytest.raises(ValueError, match=f"^config: {field} must be a number, got (True|False)$"):
                build()

    @pytest.mark.parametrize(
        "changes",
        [dict(alpha=np.float32(0.6), beta=np.float32(0.8)), dict(alpha=np.int64(1), beta=np.int64(0)),
         dict(alpha=np.complex64(0.6), beta=np.float64(0.8)),
         dict(time_end=np.float32(2.0), time_steps=np.int64(5), grid=np.int32(16), refine_iters=np.float32(2.0))],
        ids=["float32_weights", "int64_weights", "complex64_weight", "numpy_times_and_counts"],
    )
    def test_numpy_scalar_fields_accepted(self, changes):
        # each was rejected as not a number or not an integer
        for build in self.builds({}, **changes)[1:]:
            cfg = build()
            for field, value in changes.items():
                assert getattr(cfg, field) == pytest.approx(complex(value), abs=1e-7)
            assert (type(cfg.alpha), type(cfg.time_end), type(cfg.time_steps)) == (complex, float, int)

    @pytest.mark.parametrize("alpha,beta", [(10**400, 0.0), (1.0, -(10**400))], ids=["alpha", "beta"])
    def test_huge_int_weights_rejected(self, alpha, beta):
        # math.sqrt(abs(weight) ** 2 + ...) raised OverflowError
        for build in self.builds({}, alpha=alpha, beta=beta)[1:]:
            with pytest.raises(ValueError, match="^config: alpha/beta norm is inf"):
                build()

    def test_cases_cover_every_field(self):
        assert {case[0] for case in INVALID_FIELDS} == {f.name for f in fields(RunConfig)}

    def test_time_order_checked_before_overflow(self):
        # gamma * time_end = 1e300 is finite, but gamma * time_start is not:
        # without the order check the grid would hold inf
        with np.errstate(over="ignore"):
            assert np.isinf(np.linspace(1e10, 1.0, 3) * 1e300).any()
        doc = {"spectral": {"kind": "flat", "gamma": 1e300}, "time_start": 1e10, "time_end": 1.0}
        changes = {"spectral": SpectralDensity("flat", gamma=1e300), "time_start": 1e10, "time_end": 1.0}
        for build in self.builds(doc, **changes):
            with pytest.raises(ValueError, match="time_end must exceed time_start"):
                build()


@st.composite
def valid_configs(draw):
    """Any valid RunConfig: both spectra and families, weights off unit norm by up to 9e-7."""
    theta = draw(st.floats(0.0, math.pi / 2))
    scale = 1.0 + draw(st.floats(-9e-7, 9e-7))
    alpha = cmath.rect(math.cos(theta) * scale, draw(st.floats(-math.pi, math.pi)))
    beta = cmath.rect(math.sin(theta) * scale, draw(st.floats(-math.pi, math.pi)))
    if draw(st.booleans()):
        spectral = SpectralDensity("flat", gamma=draw(st.floats(1e-3, 1e3)))
    else:
        spectral = SpectralDensity("lorentz", W=draw(st.floats(1e-2, 1e2)), lam=draw(st.floats(1e-3, 1e3)))
    time_start = draw(st.floats(0.0, 10.0))
    pipeline = draw(st.sampled_from(tuple(PIPELINE_NAMES)))
    return RunConfig(
        family=draw(st.sampled_from(FAMILIES)), alpha=alpha, beta=beta, spectral=spectral,
        time_start=time_start, time_end=time_start + draw(st.floats(1e-3, 10.0)),
        time_steps=draw(st.integers(2, 500)),
        partitions=draw(st.lists(st.sampled_from(CLOSED_FORM_PARTITIONS if pipeline == "closed" else PARTITION_ORDER),
                                 min_size=1, unique=True)),
        pipeline=pipeline, side=draw(st.sampled_from(SIDES)),
        svg=draw(st.booleans()),
        grid=draw(st.integers(2, MAX_GRID)), refine_iters=draw(st.integers(0, MAX_REFINE_ITERS)),
    )


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(valid_configs())
def test_checking_a_valid_config_again_changes_nothing(cfg):
    # RunConfig renormalises the weights once; doing it again must be a no-op
    assert replace(cfg) == cfg
    assert abs(abs(cfg.alpha) ** 2 + abs(cfg.beta) ** 2 - 1.0) < 1e-13


@pytest.fixture(scope="module")
def small_sweep():
    cfg = parse_config(json.dumps(bell_doc()))
    return run_sweep(
        cfg.scenario(), cfg.partitions, "both", grid=cfg.grid, refine_iters=cfg.refine_iters
    )


class TestEmitCsv:
    def test_row_count_and_header(self, small_sweep, tmp_path):
        path = emit_csv(small_sweep, tmp_path / "out.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        # 3 times x 2 partitions x 2 pipelines
        assert len(lines) == 1 + 12

    def test_initial_reservoir_row(self, small_sweep, tmp_path):
        path = emit_csv(small_sweep, tmp_path / "out.csv")
        for line in path.read_text().splitlines()[1:]:
            cells = line.split(",")
            if cells[0] == "0" and cells[1] == "r1r2":
                assert float(cells[4]) == 0.0
                assert float(cells[5]) == 0.0

    def test_half_life_value(self, small_sweep, tmp_path):
        # middle grid point sits at gamma t = ln 2 where xi^2 = 1/2
        path = emit_csv(small_sweep, tmp_path / "out.csv")
        expected = h2(0.25) - h2(0.5 * (1.0 + math.sqrt(0.5)))
        found = 0
        for line in path.read_text().splitlines()[1:]:
            cells = line.split(",")
            if cells[1] == "s1s2" and abs(float(cells[0]) - math.log(2.0)) < 1e-9:
                assert abs(float(cells[4]) - expected) < 1e-9
                assert abs(float(cells[5]) - expected) < 1e-9
                found += 1
        assert found == 2  # one row per pipeline

    def test_sorted_and_deterministic(self, small_sweep, tmp_path):
        p1 = emit_csv(small_sweep, tmp_path / "a.csv")
        p2 = emit_csv(small_sweep, tmp_path / "b.csv")
        assert p1.read_bytes() == p2.read_bytes()
        rows = [line.split(",") for line in p1.read_text().splitlines()[1:]]
        keys = [(float(r[0]), r[1], r[2]) for r in rows]
        assert keys == sorted(keys)

    def test_uses_lf_newlines(self, small_sweep, tmp_path):
        data = emit_csv(small_sweep, tmp_path / "o.csv").read_bytes()
        assert b"\r" not in data


class TestEmitSvg:
    def test_panels_present(self, small_sweep, tmp_path):
        path = emit_svg_plot(small_sweep, tmp_path / "p.svg")
        text = path.read_text()
        assert text.startswith("<svg")
        assert "s1s2" in text and "r1r2" in text
        assert "<path" in text
        assert "gamma*t" in text

    def test_single_point_markers_only(self, tmp_path):
        sc = Scenario("two_exc", 0.6, 0.8, SpectralDensity("flat", gamma=1.0), np.array([1.0]))
        res = run_sweep(sc, ("s1s2",), "closed_form")
        text = emit_svg_plot(res, tmp_path / "p.svg").read_text()
        assert "<path" not in text
        assert "<polygon" in text or "<rect" in text

    def test_empty_records_rejected(self, small_sweep, tmp_path):
        from spinboson.experiments import SweepResult

        empty = SweepResult(small_sweep.scenario, {}, "second")
        with pytest.raises(ValueError, match="empty"):
            emit_svg_plot(empty, tmp_path / "p.svg")

    def test_deterministic(self, small_sweep, tmp_path):
        a = emit_svg_plot(small_sweep, tmp_path / "a.svg")
        b = emit_svg_plot(small_sweep, tmp_path / "b.svg")
        assert a.read_bytes() == b.read_bytes()

    @staticmethod
    def panel_labels(partitions, tmp_path):
        sc = Scenario("two_exc", 0.6, 0.8, SpectralDensity("flat", gamma=1.0), np.linspace(0.0, 1.0, 3))
        res = run_sweep(sc, partitions, "brute_force", grid=4, refine_iters=0)
        # a panel's label is the one <text> element with no attribute past x and y
        text = emit_svg_plot(res, tmp_path / "p.svg").read_text()
        return re.findall(r'<text x="[\d.]+" y="[\d.]+">(\w+)</text>', text)

    def test_free_panel_slot_draws_a_later_partition(self, tmp_path):
        # the panels were s1s2, r1r2, s1r1 and s1r2 when the sweep had any of
        # them, so s2r2 went undrawn with three slots free
        assert self.panel_labels(("s1s2", "s2r2"), tmp_path) == ["s1s2", "s2r2"]

    def test_six_partitions_draw_the_first_four(self, tmp_path):
        labels = self.panel_labels(("s2r2", "s1r2", "s2r1", "r1r2", "s1r1", "s1s2"), tmp_path)
        assert labels == ["s1s2", "r1r2", "s1r1", "s1r2"] == list(PARTITION_ORDER[:4])


# Per-number formatters the emitters replaced, kept as the byte reference.
def reference_csv(result):
    pairs = sorted(result.values)
    lines = [CSV_HEADER]
    for i, t in enumerate(result.times()):
        for part, pipe in pairs:
            cells = [f"{result.series(part, pipe, m)[i]:.12g}" for m in SERIES_MEASURES]
            lines.append(",".join([f"{t:.12g}", part, pipe, *cells, result.side]))
    return "\n".join(lines) + "\n"


def reference_paths(result, measures):
    """The path data of every panel and measure, in emit_svg_plot's order."""
    times = result.times()
    tmin, span_t = float(times[0]), float(times[-1] - times[0]) or 1.0
    paths = []
    for i, part in enumerate(p for p in ("s1s2", "r1r2", "s1r1", "s1r2") if p in {k[0] for k in result.values}):
        x0, y0 = (70, 510)[i % 2], (50, 370)[i // 2]
        series = [result.series(part, result.main_pipeline(), m) for m in measures]
        ymax = max(0.0, *(float(v.max()) for v in series), 1e-12) * 1.08

        def sx(t):
            return x0 + (t - tmin) / span_t * 380

        def sy(v):
            return y0 + 250 - v / ymax * 250

        paths += ["M " + " L ".join(f"{sx(t):.2f} {sy(v):.2f}" for t, v in zip(times, vals)) for vals in series]
    return paths


# signed zero, the smallest subnormal, a tiny normal, an inexact sum, values
# past 2^53 and with a half at the 13th digit, and values that round up at
# the 12th digit, carrying into the next power of ten
AWKWARD = np.array([
    -0.0, 5e-324, 1e-300, 0.1 + 0.2, 1e16, 123456789012.5, 0.1234567890125,
    9.99999999999951e-05, 0.99999999999995, 2.0 / 3.0, 1.0,
])


def awkward_result(times, side="first"):
    """A hand-built sweep of closed_form and brute_force rows, cycling AWKWARD through every series."""
    keys = [("s1s2", "closed_form"), ("s1s2", "brute_force"), ("r1r2", "brute_force"), ("s1r2", "brute_force")]
    values = {
        pair: np.stack([np.resize(np.roll(AWKWARD, 3 * j + k), len(times)) for k in range(len(SERIES_MEASURES))])
        for j, pair in enumerate(keys)
    }
    sc = Scenario("two_exc", 0.6, 0.8, SpectralDensity("flat", gamma=1.0), np.asarray(times, dtype=float))
    return SweepResult(sc, values, side)


class TestEmitBytes:
    """The batched emitters write the bytes of the per-number formatters."""

    @pytest.mark.parametrize("times", [
        # more than one streamed chunk of grid times, awkward times included
        np.sort(np.concatenate([np.abs(AWKWARD[1:]), [0.0], np.linspace(2.0, 3.0, 1100)])),
        [0.1 + 0.2],
    ], ids=["chunks", "single_time"])
    def test_csv_matches_reference(self, times, tmp_path):
        res = awkward_result(times)
        data = emit_csv(res, tmp_path / "out.csv").read_bytes()
        assert data == reference_csv(res).encode()
        assert b",first\n" in data and b"closed_form" in data

    def test_svg_paths_match_reference(self, tmp_path):
        times = np.sort(np.concatenate([np.abs(AWKWARD[1:]), [0.0], np.linspace(2.0, 3.0, 1100)]))
        res = awkward_result(times)
        text = emit_svg_plot(res, tmp_path / "p.svg").read_text()
        paths = [line.split('"')[1] for line in text.splitlines() if line.startswith("<path ")]
        assert paths == reference_paths(res, ("quantum", "classical"))
        assert len(paths) == 6

    def test_svg_paths_at_the_threshold_match_reference(self, tmp_path):
        # 1,520 times, 4 per pixel column of a 380-pixel panel: every point is drawn
        times = np.sort(np.concatenate([np.abs(AWKWARD[1:]), [0.0], np.linspace(2.0, 3.0, 1509)]))
        res = awkward_result(times)
        text = emit_svg_plot(res, tmp_path / "p.svg").read_text()
        paths = [line.split('"')[1] for line in text.splitlines() if line.startswith("<path ")]
        assert paths == reference_paths(res, ("quantum", "classical"))
        assert len(times) == 1520

    @pytest.mark.parametrize("sweep", [
        lambda: awkward_result(np.sort(np.concatenate([np.abs(AWKWARD[1:]), [0.0], np.linspace(2.0, 3.0, 1510)]))),
        # closed_long's scenario in the benchmark
        lambda: run_sweep(Scenario("one_exc", 0.6, 0.8, SpectralDensity("lorentz", W=math.sqrt(200.0), lam=1.0),
                                   np.linspace(0.0, 2.0, 10_001)), ("s1s2", "r1r2"), "closed_form"),
    ], ids=["1521_times", "closed_lorentz_10001"])
    def test_long_svg_paths_draw_fewer_reference_points(self, sweep, tmp_path):
        # past 4 points per pixel column a path keeps at most 4 per column, among
        # them both ends of the series, all drawn as the reference draws them
        res = sweep()
        text = emit_svg_plot(res, tmp_path / "p.svg").read_text()
        drawn = [d.split(" L ") for d in re.findall(r'<path d="M ([^"]*)"', text)]
        want = [d.removeprefix("M ").split(" L ") for d in reference_paths(res, ("quantum", "classical"))]
        assert len(drawn) == len(want) >= 4
        for points, ref in zip(drawn, want):
            assert len(points) <= 4 * 380 < len(ref) == len(res.times())
            assert points[0] == ref[0] and points[-1] == ref[-1] and set(points) <= set(ref)

    @pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
    def test_file_mode_follows_umask(self, tmp_path, umask, mode):
        # the temp file used to be made by mkstemp, so every output was 0600
        old = os.umask(umask)
        try:
            path = emit_csv(awkward_result([0.0, 1.0]), tmp_path / "out.csv")
        finally:
            os.umask(old)
        assert path.stat().st_mode & 0o777 == mode

    def test_interrupted_write_keeps_old_file(self, tmp_path):
        target = tmp_path / "out.csv"
        target.write_bytes(b"old bytes\n")

        def chunks():
            yield "x" * 200_000  # past the file buffer, so the temp file is written
            raise RuntimeError("interrupted")

        with pytest.raises(RuntimeError, match="interrupted"):
            _atomic_write(target, chunks())
        assert target.read_bytes() == b"old bytes\n"
        assert not list(tmp_path.glob("*.tmp"))


@st.composite
def m4_series(draw):
    """Drawn x offsets of increasing times, values with ties, and a panel width in pixels."""
    pw, size = draw(st.integers(1, 8)), draw(st.integers(2, 100))
    times = np.cumsum(draw(st.lists(st.integers(1, 9), min_size=size, max_size=size)))
    vals = draw(st.lists(st.integers(0, 40), min_size=size, max_size=size))
    # the panel's time range need not be the series' own, as for an overlay
    lo, span = draw(st.floats(-0.5, 0.5)), draw(st.floats(0.5, 1.5))
    return (times - times[0] - lo * times[-1]) / (span * times[-1]) * pw, np.array(vals) / 8.0, pw


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(m4_series())
def test_m4_keeps_every_column_extreme(series):
    x, vals, pw = series
    keep = _m4_indices(x, vals, pw)
    assert np.all(np.diff(keep) > 0)
    if vals.size <= 4 * pw:
        assert keep.tolist() == list(range(vals.size))
        return
    assert keep[0] == 0 and keep[-1] == vals.size - 1
    col = np.clip(np.floor(x), 0, pw - 1)
    for c in np.unique(col):
        members = np.flatnonzero(col == c)
        kept = np.intersect1d(keep, members)
        assert kept.size <= 4 and members[0] in kept and members[-1] in kept
        assert vals[kept].min() == vals[members].min() and vals[kept].max() == vals[members].max()


class TestFigureConfigs:
    def test_four_reference_scenarios(self):
        assert len(FIGURE_CONFIGS) == 4
        kinds = {(c.family, c.spectral.kind) for c in FIGURE_CONFIGS.values()}
        assert kinds == {
            ("two_exc", "flat"), ("two_exc", "lorentz"),
            ("one_exc", "flat"), ("one_exc", "lorentz"),
        }
        for cfg in FIGURE_CONFIGS.values():
            assert abs(abs(cfg.alpha) ** 2 - 0.5) < 1e-12
            lop = replace(cfg, alpha=10.0**-0.5, beta=3.0 * 10.0**-0.5)
            assert abs(abs(lop.beta) ** 2 - 0.9) < 1e-9
            if cfg.spectral.kind == "lorentz":
                assert abs(cfg.spectral.W / cfg.spectral.lam - math.sqrt(200.0)) < 1e-12


def parser_commands() -> tuple:
    """The subcommands ``spinboson --help`` lists, in its order."""
    with contextlib.redirect_stdout(StringIO()) as out:
        try:
            main(["--help"])
        except SystemExit:
            pass
    return tuple(re.search(r"\{([a-z,]+)\}", out.getvalue()).group(1).split(","))


PARSER_COMMANDS = parser_commands()
README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
README_USAGE = README.split("## Command line", 1)[1].split("```")[1]


class TestCli:
    def test_sweep_roundtrip(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(bell_doc(svg=True)))
        rc = main(["sweep", str(cfg_path), "--out", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "sweep.csv").exists()
        assert (tmp_path / "out" / "sweep.svg").exists()

    def test_bad_config_exit_code_and_message(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(bell_doc(time_steps=0)))
        rc = main(["sweep", str(cfg_path)])
        assert rc == 2
        assert "time_steps" in capsys.readouterr().err

    def test_missing_file_exit_code(self, tmp_path, capsys):
        assert main(["sweep", str(tmp_path / "none.json")]) == 2

    def test_audit_passes_on_reference_scenario(self, tmp_path, capsys):
        doc = bell_doc(
            partitions=["s1s2", "r1r2", "s1r2", "s2r1"],
            time_end=3.0,
            time_steps=25,
            grid=16,
            refine_iters=2,
        )
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(doc))
        rc = main(["audit", str(cfg_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS closed_vs_brute" in out
        assert "PASS square_sum_quantum" in out
        assert "PASS flat_classical_tail" in out

    @pytest.mark.parametrize(
        "doc",
        [
            # flat: the partitions lack s2r1, and the two asymptotic audits follow
            bell_doc(partitions=["s1s2", "r1r2", "s1r1", "s1r2"], time_end=3.0, time_steps=25),
            # Lorentzian: four lines, no asymptotic audits
            bell_doc(family="one_exc", alpha_re=0.6, beta_re=0.8, partitions=["r1r2", "s2r2", "s1s2"],
                     spectral={"kind": "lorentz", "W": math.sqrt(200.0), "lambda": 1.0}, time_steps=25),
        ],
        ids=["flat", "lorentz"],
    )
    def test_audit_makes_one_sweep_and_prints_the_two_sweep_lines(self, tmp_path, capsys, monkeypatch, doc):
        # the audit used to run a both-pipeline sweep of the config's partitions and
        # a brute-force sweep of the four square-sum pairs; one sweep of the union
        # must print the same lines, margins included
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(doc))
        cfg = parse_config(cfg_path.read_text())
        outcomes = [agreement_audit(run_sweep(**cfg.sweep_args()))]
        pairs = run_sweep(**replace(cfg, pipeline="brute", partitions=SQUARE_SUM_PARTITIONS).sweep_args())
        outcomes += [square_sum_audit(pairs, measure) for measure in MEASURES]
        if cfg.spectral.kind == "flat":
            beta2 = abs(cfg.beta) ** 2
            outcomes.append(flat_classical_tail_audit(beta2))
            outcomes.append(reservoir_transfer_audit(cfg.family, abs(cfg.alpha) ** 2, beta2))
        expected = "".join(f"{'PASS' if a.passed else 'FAIL'} {a.name} margin={a.margin:.3e}\n" for a in outcomes)

        calls = []

        def counted(scenario, partitions, *args):
            calls.append(partitions)
            return run_sweep(scenario, partitions, *args)

        monkeypatch.setattr(experiments, "run_sweep", counted)
        rc = main(["audit", str(cfg_path)])
        assert capsys.readouterr().out == expected
        assert rc == 0
        assert len(calls) == 1 and set(calls[0]) == set(cfg.partitions) | set(SQUARE_SUM_PARTITIONS)
        assert len(expected.splitlines()) == (6 if cfg.spectral.kind == "flat" else 4)

    @pytest.mark.parametrize(
        "argv",
        [[command, flag, value] for command in PARSER_COMMANDS
         for flag, value in (("--grid", "8"), ("--refine", "1"), ("--side", "first"), ("--pipeline", "brute"))]
        + [["audit", "--out", "out"]],
        ids=lambda argv: " ".join(argv[:2]),
    )
    def test_only_out_is_a_flag(self, tmp_path, monkeypatch, capsys, argv):
        # every run setting comes from the config file, and audit writes no files
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.json").write_text(json.dumps(bell_doc(grid=8, refine_iters=1)))
        config = [] if argv[0] == "figures" else ["run.json"]
        with pytest.raises(SystemExit) as exc:
            main(argv[:1] + config + argv[1:])
        assert exc.value.code == 2
        assert "unrecognized arguments: " + " ".join(argv[1:]) in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

    def test_out_defaults_to_the_current_directory(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.json").write_text(json.dumps(bell_doc(grid=8, refine_iters=1, svg=True)))
        assert main(["sweep", "run.json"]) == 0
        assert capsys.readouterr().out.split() == ["sweep.csv", "sweep.svg"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json", "sweep.csv", "sweep.svg"]

    def test_out_dir_key_rejected(self, tmp_path, capsys):
        # --out is the one way to say where files go
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(bell_doc(out_dir=str(tmp_path / "elsewhere"))))
        assert main(["sweep", str(cfg_path), "--out", str(tmp_path)]) == 2
        assert "error: config: unknown key 'out_dir'" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

    def test_sweep_takes_pipeline_and_side(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(bell_doc(grid=8, refine_iters=1, pipeline="brute", side="first")))
        assert main(["sweep", str(cfg_path), "--out", str(tmp_path)]) == 0
        text = (tmp_path / "sweep.csv").read_text()
        assert "closed_form" not in text
        assert ",first" in text

    def test_figures_fast_settings(self, tmp_path):
        rc = main(["figures", "--out", str(tmp_path / "figs")])
        assert rc == 0
        names = sorted(p.name for p in (tmp_path / "figs").iterdir())
        assert len(names) == 8
        assert sum(n.endswith(".csv") for n in names) == 4
        assert sum(n.endswith(".svg") for n in names) == 4
        # each figure overlays the second weight family: triangle markers
        svg = (tmp_path / "figs" / "flat_two_excitation.svg").read_text()
        for part in ("s1s2", "r1r2", "s1r1", "s1r2"):
            assert part in svg
        assert "overlay" in svg

    def test_readme_usage_names_only_the_parser_commands(self):
        assert [line.split()[1] for line in README_USAGE.splitlines() if line.strip()] == list(PARSER_COMMANDS)

    @pytest.mark.parametrize("command", PARSER_COMMANDS)
    def test_readme_usage_lists_the_parser_flags(self, capsys, command):
        usage = [line for line in README_USAGE.splitlines() if line.split()[:2] == ["spinboson", command]]
        assert len(usage) == 1, f"README has {len(usage)} usage lines for {command}"
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        parser_flags = set(re.findall(r"--[a-z-]+", capsys.readouterr().out)) - {"--help"}
        assert set(re.findall(r"--[a-z-]+", usage[0].split("#")[0])) == parser_flags

    def test_module_entry_point(self, tmp_path):
        import subprocess
        import sys

        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(bell_doc(grid=8, refine_iters=1)))
        proc = subprocess.run(
            [sys.executable, "-m", "spinboson", "sweep", str(cfg_path), "--out", str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert (tmp_path / "sweep.csv").exists()
