import json
import math

import numpy as np
import pytest

from spinboson.cli import main
from spinboson.experiments import run_sweep
from spinboson.io import (
    CSV_HEADER,
    FIGURE_CONFIGS,
    MAX_GRID,
    MAX_REFINE_ITERS,
    MAX_TIME_STEPS,
    emit_csv,
    emit_svg_plot,
    figure_config,
    parse_config,
    serialize_config,
)
from spinboson.model import Scenario, SpectralDensity


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
        doc = bell_doc()
        doc["audits"] = {"everything": True}
        with pytest.raises(ValueError, match="everything"):
            parse_config(json.dumps(doc))

    def test_round_trip(self):
        for doc in (
            bell_doc(),
            bell_doc(
                spectral={"kind": "lorentz", "W": 3.5, "lambda": 0.7},
                side="first",
                pipeline="brute",
                svg=True,
                out_dir="results",
            ),
        ):
            cfg = parse_config(json.dumps(doc))
            assert parse_config(serialize_config(cfg)) == cfg

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

    def test_audit_toggles_must_be_booleans(self):
        # a truthy string such as "no" used to switch the audit on
        doc = bell_doc(audits={"agreement": "no"})
        with pytest.raises(ValueError, match="audits.agreement must be a boolean"):
            parse_config(json.dumps(doc))

    @pytest.mark.parametrize(
        "spectral,time_end,message",
        [
            # each input is finite; the grid gamma * t was [0, inf, inf] and ran
            ({"kind": "flat", "gamma": 1e300}, 1e10, "spectral.gamma * time_end is not finite"),
            # W / lambda = inf made amplitudes_lorentz fail with "math domain error"
            ({"kind": "lorentz", "W": 1e300, "lambda": 1e-300}, 5.0, "spectral W / lambda is inf"),
            # W / lambda = 0 made amplitudes_lorentz reject its own argument
            ({"kind": "lorentz", "W": 1e-300, "lambda": 1e300}, 5.0, "spectral W / lambda is 0.0"),
            ({"kind": "lorentz", "W": 1e200, "lambda": 1.0}, 5.0,
             "spectral W / lambda and time_end give a non-finite oscillation phase"),
        ],
        ids=["gamma_time_overflow", "ratio_overflow", "ratio_underflow", "phase_overflow"],
    )
    def test_overflowing_spectral_products_rejected(self, tmp_path, capsys, spectral, time_end, message):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(bell_doc(spectral=spectral, time_end=time_end)))
        assert main(["sweep", str(cfg_path), "--out", str(tmp_path)]) == 2
        assert f"error: config: {message}" in capsys.readouterr().err
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

    @pytest.mark.parametrize(
        "flags,field", [(["--grid", str(MAX_GRID + 1)], "grid"), (["--grid", "1"], "grid"),
                        (["--refine", "-1"], "refine_iters"), (["--refine", "99"], "refine_iters")],
    )
    def test_cli_overrides_checked(self, tmp_path, capsys, flags, field):
        # small enough that even an unchecked run would end quickly
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(bell_doc()))
        assert main(["sweep", str(cfg_path), "--out", str(tmp_path)] + flags) == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()


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
        path = emit_svg_plot(small_sweep, ("quantum", "classical"), tmp_path / "p.svg")
        text = path.read_text()
        assert text.startswith("<svg")
        assert "s1s2" in text and "r1r2" in text
        assert "<path" in text
        assert "gamma*t" in text

    def test_single_point_markers_only(self, tmp_path):
        sc = Scenario("two_exc", 0.6, 0.8, SpectralDensity("flat", gamma=1.0), np.array([1.0]))
        res = run_sweep(sc, ("s1s2",), "closed_form")
        text = emit_svg_plot(res, ("quantum", "classical"), tmp_path / "p.svg").read_text()
        assert "<path" not in text
        assert "<polygon" in text or "<rect" in text

    def test_empty_records_rejected(self, small_sweep, tmp_path):
        from spinboson.experiments import SweepResult

        empty = SweepResult(small_sweep.scenario, {}, "second")
        with pytest.raises(ValueError, match="empty"):
            emit_svg_plot(empty, ("quantum",), tmp_path / "p.svg")

    def test_deterministic(self, small_sweep, tmp_path):
        a = emit_svg_plot(small_sweep, ("quantum", "classical"), tmp_path / "a.svg")
        b = emit_svg_plot(small_sweep, ("quantum", "classical"), tmp_path / "b.svg")
        assert a.read_bytes() == b.read_bytes()


class TestFigureConfigs:
    def test_four_reference_scenarios(self):
        assert len(FIGURE_CONFIGS) == 4
        kinds = {(c["family"], c["spectral"]["kind"]) for c in FIGURE_CONFIGS.values()}
        assert kinds == {
            ("two_exc", "flat"), ("two_exc", "lorentz"),
            ("one_exc", "flat"), ("one_exc", "lorentz"),
        }
        for name in FIGURE_CONFIGS:
            cfg = figure_config(name)
            assert abs(abs(cfg.alpha) ** 2 - 0.5) < 1e-12
            lop = figure_config(name, weights=(10.0**-0.5, 3.0 * 10.0**-0.5))
            assert abs(abs(lop.beta) ** 2 - 0.9) < 1e-9
            if cfg.spectral.kind == "lorentz":
                assert abs(cfg.spectral.W / cfg.spectral.lam - math.sqrt(200.0)) < 1e-12

    def test_unknown_figure(self):
        with pytest.raises(ValueError, match="figure"):
            figure_config("flat_three_excitation")


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

    def test_oracle_writes_bruteforce_only(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(bell_doc()))
        rc = main(["oracle", str(cfg_path), "--out", str(tmp_path), "--grid", "12", "--refine", "2"])
        assert rc == 0
        text = (tmp_path / "oracle.csv").read_text()
        assert "closed_form" not in text
        assert "brute_force" in text

    def test_flag_overrides(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(bell_doc(side="second")))
        rc = main(
            ["oracle", str(cfg_path), "--out", str(tmp_path), "--grid", "8", "--refine", "1", "--side", "first"]
        )
        assert rc == 0
        assert ",first" in (tmp_path / "oracle.csv").read_text()

    def test_figures_fast_settings(self, tmp_path):
        rc = main(["figures", "--out", str(tmp_path / "figs"), "--grid", "8", "--refine", "1"])
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
