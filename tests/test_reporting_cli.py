"""Tests for repro.experiments.reporting and the frapp CLI."""

import contextlib
import hashlib
import io
import math
import re
from pathlib import Path

import pytest

from repro.experiments.cli import build_parser, main
from repro.experiments.reporting import (
    render_figure_panels,
    render_schema_table,
    render_series_table,
)

DATA_DIR = Path(__file__).parent / "data"

#: sha256 of ``frapp all``'s stdout at paper scale, copied from
#: ``PAPER_STDOUT_SHA256`` in perfbench/run.py (the benchmark's check).
PAPER_STDOUT_SHA256 = (
    "f2d0bbd6dd52c3940ba82ef67587569b31f435662a00780d7227bc7d6c9262ba"
)


class TestSeriesTable:
    def test_alignment_and_content(self):
        series = {"DET-GD": {1: 10.0, 2: 20.5}, "MASK": {1: 5.0, 2: 1e6}}
        text = render_series_table(series)
        lines = text.splitlines()
        assert lines[0].split() == ["length", "1", "2"]
        assert "DET-GD" in text and "MASK" in text
        assert "1.00e+06" in text

    def test_nan_rendered_as_dash(self):
        text = render_series_table({"a": {1: math.nan}})
        assert text.splitlines()[-1].endswith("-")

    def test_missing_column_rendered_as_dash(self):
        text = render_series_table({"a": {1: 1.0}, "b": {2: 2.0}})
        assert "-" in text.splitlines()[-1]

    def test_inf(self):
        text = render_series_table({"a": {1: float("inf")}})
        assert "inf" in text

    def test_float_columns(self):
        text = render_series_table({"a": {0.5: 1.0}}, x_label="alpha")
        assert "0.50" in text


class TestSchemaTable:
    def test_contents(self):
        text = render_schema_table([("age", ("(15-35]", "> 75"))])
        assert "age" in text and "(15-35]" in text


class TestFigurePanels:
    def test_panel_headers(self):
        panels = {"rho": {"DET-GD": {1: 1.0}}, "sigma_minus": {"DET-GD": {1: 0.0}}}
        text = render_figure_panels(panels)
        assert "[rho]" in text and "[sigma_minus]" in text


class TestCli:
    def test_parser_choices(self):
        parser = build_parser()
        args = parser.parse_args(["table1"])
        assert args.experiment == "table1"
        with pytest.raises(SystemExit):
            parser.parse_args(["fig9"])

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "native-country" in out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        assert "INCFAM20" in capsys.readouterr().out

    def test_fig4(self, capsys):
        assert main(["fig4"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4(a)" in out and "Figure 4(b)" in out
        assert "112.1" in out

    def test_table3_quick(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.05")
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "CENSUS (measured)" in out and "HEALTH (paper)" in out

    def test_fig1_quick(self, capsys):
        assert main(["fig1", "--records", "3000", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "[rho]" in out and "DET-GD" in out

    def test_sweep_gamma_quick(self, capsys):
        assert main(["sweep-gamma", "--records", "3000", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "vs gamma" in out and "sigma_minus" in out

    def test_fig3_quick(self, capsys):
        assert main(["fig3", "--records", "3000", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3(a)" in out and "rho2_minus" in out

    #: Bad inputs each experiment subcommand meets as a typed FrappError.
    BAD_INPUTS = (
        ["all", "--jobs", "0"],
        ["table3", "--min-support", "2"],
        ["fig1", "--gamma", "0.5"],
        ["fig1", "--workers", "0"],
        ["fig1", "--workers", "2", "--chunk-size", "0"],
        ["fig1", "--records", "0"],
        ["fig1", "--records", "-3"],
    )

    @pytest.mark.parametrize("argv", BAD_INPUTS, ids=" ".join)
    def test_bad_input_is_reported_in_one_line(self, argv, capsys):
        with pytest.raises(SystemExit) as exited:
            main([*argv, "--no-cache"])
        message = exited.value.code
        assert isinstance(message, str)
        assert message.startswith(f"frapp {argv[0]}: ")
        assert "\n" not in message
        assert capsys.readouterr().out == ""


class TestCliCache:
    @pytest.fixture(autouse=True)
    def cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_SCALE", "0.05")
        return tmp_path / "cache"

    def test_cold_then_warm_byte_identical(self, capsys):
        argv = ["fig1", "--records", "3000", "--seed", "1"]
        assert main(argv) == 0
        cold = capsys.readouterr()
        assert "0 hit(s)" in cold.err and "4 mechanism run(s)" in cold.err
        assert main(argv) == 0
        warm = capsys.readouterr()
        assert warm.out == cold.out, "warm run must be byte-identical"
        assert "0 computed (0 mechanism run(s))" in warm.err

    def test_no_cache_bypasses_store(self, capsys, cache_dir):
        argv = ["table3", "--no-cache"]
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert "store: disabled" in err
        assert not (cache_dir / "objects").exists()

    def test_force_recomputes(self, capsys):
        argv = ["table3"]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--force"]) == 0
        assert "0 hit(s), 2 computed" in capsys.readouterr().err

    def test_cache_ls_rm_gc(self, capsys):
        assert main(["cache", "ls"]) == 0
        assert "empty" in capsys.readouterr().out
        assert main(["table3"]) == 0
        capsys.readouterr()
        assert main(["cache", "ls"]) == 0
        out = capsys.readouterr().out
        assert "exact:CENSUS" in out and "exact:HEALTH" in out
        assert main(["cache", "gc"]) == 0
        assert "removed 0" in capsys.readouterr().out
        assert main(["cache", "rm", "all"]) == 0
        assert "removed 2" in capsys.readouterr().out

    def test_cache_rm_needs_operand(self):
        with pytest.raises(SystemExit):
            main(["cache", "rm"])

    def test_cache_unknown_op(self):
        with pytest.raises(SystemExit):
            main(["cache", "frobnicate"])

    def test_stray_operands_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig4", "stray"])

    def test_jobs_flag_parses(self, capsys):
        assert main(["table3", "--jobs", "2"]) == 0
        assert "2 computed" in capsys.readouterr().err


def _frapp(*argv):
    """Run the CLI in-process; returns ``(stdout, stderr)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(list(argv)) == 0
    return out.getvalue(), err.getvalue()


class TestFrappAllLayouts:
    """``frapp all`` (at ``REPRO_SCALE=0.1``) prints the same bytes warm
    and over a pool of jobs."""

    @pytest.fixture(scope="class")
    def serial(self, tmp_path_factory):
        cache = tmp_path_factory.mktemp("serial") / "cache"
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv("REPRO_SCALE", "0.1")
            stdout, summary = _frapp("all", "--cache-dir", str(cache))
            assert "0 hit(s)" in summary
            yield cache, stdout

    def test_warm_run_computes_nothing(self, serial):
        cache, cold = serial
        warm, summary = _frapp("all", "--cache-dir", str(cache))
        assert warm == cold
        pattern = r"(\d+) hit\(s\), 0 computed \(0 mechanism run\(s\)\)"
        hits = re.search(pattern, summary)
        assert hits and int(hits.group(1)) > 0, summary

    def test_jobs_print_the_serial_stdout(self, serial, tmp_path):
        pooled, summary = _frapp(
            "all", "--jobs", "4", "--cache-dir", str(tmp_path)
        )
        assert "0 hit(s)" in summary
        assert pooled == serial[1]


class TestGoldenStdout:
    """Byte-identical CLI output across the Mechanism-registry refactor.

    The fixtures under tests/data/ were captured from ``main`` *before*
    mechanisms were routed through the registry (same command lines);
    the four paper mechanisms must reproduce them byte for byte.
    """

    @pytest.mark.parametrize(
        "experiment, fixture",
        [("fig1", "golden_fig1.txt"), ("fig2", "golden_fig2.txt")],
    )
    def test_figures_byte_identical(self, capsys, experiment, fixture, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert (
            main([experiment, "--records", "4000", "--seed", "11", "--no-cache"]) == 0
        )
        out = capsys.readouterr().out
        golden = (DATA_DIR / fixture).read_text()
        assert out == golden

    @pytest.mark.slow
    def test_paper_scale_all_byte_identical(self, capsys, monkeypatch, tmp_path):
        """A cold ``frapp all`` at paper scale (Tables 1-3, Figures 1-4).

        The fixture was captured while the MASK and C&P estimators still
        scanned the bit matrix per candidate.
        """
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        golden = (DATA_DIR / "golden_all.txt").read_bytes()
        assert hashlib.sha256(golden).hexdigest() == PAPER_STDOUT_SHA256
        assert main(["all", "--cache-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().out.encode() == golden


class TestPrivacyCommand:
    def test_paper_lineup(self, capsys):
        assert main(["privacy"]) == 0
        out = capsys.readouterr().out
        assert "Privacy accountant" in out
        assert "[CENSUS]" in out and "[HEALTH]" in out
        for name in ("DET-GD", "RAN-GD", "MASK", "C&P"):
            assert name in out
        # All four paper mechanisms admit the paper requirement.
        assert "NO" not in out
        assert "determinable breach" in out  # RAN-GD's posterior range

    def test_composite_spec_reports_product_bound(self, capsys):
        spec = (
            '{"name":"composite","params":{"parts":['
            '{"name":"det-gd","n_attributes":4,"params":{"gamma":19.0}},'
            '{"name":"warner","n_attributes":1,"params":{"p":0.95}},'
            '{"name":"warner","n_attributes":1,"params":{"p":0.95}}]}}'
        )
        assert main(["privacy", spec]) == 0
        out = capsys.readouterr().out
        assert "DET-GD+WARNER+WARNER" in out
        assert "product of 19 x 19 x 19" in out
        assert "6859" in out  # 19^3: gamma multiplies across attributes

    def test_rejects_malformed_spec(self):
        with pytest.raises(SystemExit):
            main(["privacy", "{not json"])

    def test_rejects_unknown_and_unbuildable_specs(self, capsys):
        with pytest.raises(SystemExit, match="unknown mechanism"):
            main(["privacy", '{"name":"nope","params":{}}'])
        with pytest.raises(SystemExit, match="not a mechanism spec"):
            main(["privacy", "[1, 2]"])
        with pytest.raises(SystemExit, match="single binary attribute"):
            main(["privacy", '{"name":"warner","params":{"p":0.9}}'])
        # Factory-signature mismatches (typoed / missing parameters)
        # exit cleanly too, not as raw TypeError tracebacks.
        with pytest.raises(SystemExit, match="unexpected keyword"):
            main(["privacy", '{"name":"det-gd","params":{"gama":19}}'])
        with pytest.raises(SystemExit, match="missing 1 required"):
            main(["privacy", '{"name":"additive-noise","params":{}}'])

    def test_options_may_follow_spec_operands(self, capsys):
        """Intermixed parsing: flags and JSON operands in either order."""
        spec = '{"name":"composite","params":{"parts":[' \
            '{"name":"det-gd","n_attributes":4,"params":{"gamma":19.0}},' \
            '{"name":"warner","n_attributes":1,"params":{"p":0.95}},' \
            '{"name":"warner","n_attributes":1,"params":{"p":0.95}}]}}'
        assert main(["privacy", "--gamma", "19", spec]) == 0
        assert "DET-GD+WARNER+WARNER" in capsys.readouterr().out

    def test_render_privacy_table_admits_column(self):
        from repro.core.privacy import PrivacyRequirement
        from repro.experiments.reporting import render_privacy_table
        from repro.mechanisms import PrivacyStatement

        statements = [
            PrivacyStatement(
                mechanism="DET-GD",
                spec={"name": "det-gd", "params": {"gamma": 19.0}},
                amplification=19.0,
                rho1=0.05,
                rho2=0.5,
            ),
            PrivacyStatement(
                mechanism="LEAKY",
                spec={"name": "leaky", "params": {}},
                amplification=float("inf"),
                rho1=0.05,
                rho2=1.0,
            ),
        ]
        text = render_privacy_table(
            statements, requirement=PrivacyRequirement(0.05, 0.50)
        )
        lines = text.splitlines()
        assert "admits" in lines[0]
        assert "cond" in lines[0]
        assert "yes" in text and "NO" in text
        # Unbounded amplification renders as the finite-width marker,
        # never as raw inf/nan (satellite: frapp privacy output hygiene).
        assert "unbounded" in text
        assert "inf" not in text and "nan" not in text

    def test_render_privacy_table_nan_bound_renders_dash(self):
        from repro.experiments.reporting import render_privacy_table
        from repro.mechanisms import PrivacyStatement

        statements = [
            PrivacyStatement(
                mechanism="ODD",
                spec={"name": "odd", "params": {}},
                amplification=float("nan"),
                rho1=0.05,
                rho2=float("nan"),
            ),
        ]
        text = render_privacy_table(statements)
        assert "nan" not in text and "inf" not in text

    def test_cli_additive_noise_prints_unbounded_marker(self, capsys):
        """`frapp privacy` on an unbounded mechanism never shows raw inf."""
        spec = '{"name":"additive-noise","params":{"scale":1.0}}'
        assert main(["privacy", spec]) == 0
        out = capsys.readouterr().out
        assert "ADD-NOISE" in out
        assert "unbounded" in out
        table = out.split("ADD-NOISE", 1)[1]
        assert "inf" not in table and "nan" not in table


class TestServeCommand:
    def test_config_takes_the_default_spec_and_only_the_set_flags(
        self, monkeypatch, tmp_path
    ):
        import repro.service
        from repro.experiments.config import PAPER_GAMMA
        from repro.service import ServiceConfig

        configs = []

        async def capture(config, **kwargs):
            configs.append(config)

        monkeypatch.setattr(repro.service, "run_server", capture)
        argv = ["serve", "--data-dir", str(tmp_path), "--max-batch", "64"]
        assert main(argv) == 0
        [config] = configs
        assert config.mechanism == {
            "name": "det-gd",
            "params": {"gamma": PAPER_GAMMA},
        }
        assert config.max_batch == 64
        defaults = ServiceConfig(schema=config.schema, data_dir=str(tmp_path))
        for name in ("max_latency", "max_inflight", "max_queued_rows",
                     "drain_deadline"):
            assert getattr(config, name) == getattr(defaults, name)


class TestMechanismRowOrder:
    def test_order_mechanism_rows_uses_registry_metadata(self):
        from repro.experiments.reporting import order_mechanism_rows

        shuffled = {"MASK": 1, "DET-GD": 2, "C&P": 3, "RAN-GD": 4, "custom": 5}
        assert list(order_mechanism_rows(shuffled)) == [
            "DET-GD",
            "RAN-GD",
            "MASK",
            "C&P",
            "custom",
        ]


class TestPrivacyGammaTolerance:
    def test_cli_gamma_19_keeps_admits_column(self, capsys):
        """`--gamma 19` (the value the header displays) must produce the
        same admits column as the float-exact PAPER_GAMMA default."""
        assert main(["privacy"]) == 0
        default_out = capsys.readouterr().out
        assert main(["privacy", "--gamma", "19"]) == 0
        explicit_out = capsys.readouterr().out
        assert default_out == explicit_out
        assert "admits" in explicit_out


class TestUnifiedKnobs:
    """The shared execution-knob parent parser and its golden help."""

    def test_help_matches_golden(self, monkeypatch):
        import pathlib

        monkeypatch.setenv("COLUMNS", "80")
        golden = pathlib.Path(__file__).parent / "data" / "frapp_help.txt"
        assert build_parser().format_help() == golden.read_text(), (
            "frapp --help drifted; regenerate tests/data/frapp_help.txt with "
            "COLUMNS=80 python -c \"from repro.experiments.cli import "
            "build_parser; print(build_parser().format_help(), end='')\" "
            "if the change is intentional"
        )

    #: Spellings the execution group no longer takes: the five old
    #: aliases, the four removed knobs and the two claim-board options.
    REMOVED_SPELLINGS = (
        ("--num-workers", "3"),
        ("--chunksize", "128"),
        ("--counting-backend", "loops"),
        ("--dispatch-mode", "shm"),
        ("--n-jobs", "2"),
        ("--count-backend", "native"),
        ("--backend", "int64"),
        ("--solver", "portfolio"),
        ("--dispatch", "shm"),
        ("--claim-dir", "claims"),
        ("--lease", "60"),
    )

    @pytest.mark.parametrize(("spelling", "value"), REMOVED_SPELLINGS)
    def test_removed_spelling_exits(self, spelling, value, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["table1", spelling, value])
        assert exited.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_aliases_hidden_from_help(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        text = build_parser().format_help()
        for spelling, _ in self.REMOVED_SPELLINGS:
            assert spelling not in text

    def test_canonical_spellings_still_parse(self):
        args = build_parser().parse_args(
            ["fig1", "--workers", "2", "--chunk-size", "64", "--jobs", "3"]
        )
        assert (args.workers, args.chunk_size, args.jobs) == (2, 64, 3)
