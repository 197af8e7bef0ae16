"""Tests for the command line interface."""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import build_parser, main


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    """Point the persistent artifact cache at a per-test directory."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "compress"])
        assert args.benchmark == "compress"
        assert args.level == "data_dependence"
        assert args.pus == 4
        assert not args.in_order

    def test_figure5_options(self):
        args = build_parser().parse_args(
            ["figure5", "--benchmarks", "compress,go", "--pus", "8",
             "--scale", "0.2"]
        )
        assert args.benchmarks == "compress,go"
        assert args.pus == 8
        assert args.scale == 0.2
        assert args.jobs == 0  # auto: one worker per CPU
        assert not args.no_cache
        assert args.json == ""

    def test_harness_flags(self):
        args = build_parser().parse_args(
            ["table1", "--jobs", "3", "--no-cache", "--json", "out.json"]
        )
        assert args.jobs == 3
        assert args.no_cache
        assert args.json == "out.json"

    def test_cache_subcommand(self):
        assert build_parser().parse_args(["cache", "stats"]).action == "stats"
        assert build_parser().parse_args(["cache", "clear"]).action == "clear"
        assert build_parser().parse_args(
            ["cache", "doctor"]).action == "doctor"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "bogus"])

    def test_resume_flag(self):
        args = build_parser().parse_args(["table1", "--resume"])
        assert args.resume
        assert not build_parser().parse_args(["table1"]).resume

    def test_verify_options(self):
        args = build_parser().parse_args(
            ["verify", "compress", "tomcatv", "--faults", "50",
             "--seed", "7", "--scale", "0.2"]
        )
        assert args.benchmarks == ["compress", "tomcatv"]
        assert args.faults == 50
        assert args.seed == 7
        assert not args.all

    def test_trace_options(self):
        args = build_parser().parse_args(
            ["trace", "compress", "--level", "control_flow",
             "--engine", "reference", "-o", "out.json"]
        )
        assert args.benchmark == "compress"
        assert args.level == "control_flow"
        assert args.engine == "reference"
        assert args.output == "out.json"
        assert not args.no_engine_events
        assert build_parser().parse_args(
            ["trace", "compress"]).output == "trace.json"

    @pytest.mark.parametrize("command", [
        ["run", "compress"],
        ["figure5"],
        ["verify", "compress"],
        ["trace", "compress"],
        ["profile-sim", "compress"],
    ], ids=lambda c: c[0])
    def test_engine_choices_reject_batched(self, command):
        args = build_parser().parse_args(command + ["--engine", "reference"])
        assert args.engine == "reference"
        for engine in ("batched", "warp"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(command + ["--engine", engine])

    def test_fuzz_has_no_engine_flag(self):
        """fast and reference always run; there is no engine to add."""
        assert not hasattr(
            build_parser().parse_args(["fuzz", "--budget", "1"]),
            "extra_engines",
        )
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["fuzz", "--budget", "1", "--engine", "reference"]
            )

    @pytest.mark.parametrize(
        "command", ["serve", "chaos", "submit", "jobs", "fetch"]
    )
    def test_service_commands_are_gone(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_report_options(self):
        args = build_parser().parse_args(
            ["report", "a.json", "b.json", "--tolerance", "0.1"]
        )
        assert args.a == "a.json"
        assert args.b == "b.json"
        assert args.tolerance == 0.1
        with pytest.raises(SystemExit):
            build_parser().parse_args(["report", "only-one"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "compress" in out and "tomcatv" in out
        assert "int" in out and "fp" in out
        # static code counts are part of the listing
        header, first = out.splitlines()[:2]
        for column in ("funcs", "blocks", "insts"):
            assert column in header
        assert any(token.isdigit() for token in first.split())

    def test_run(self, capsys):
        assert main(
            ["run", "compress", "--level", "control_flow",
             "--scale", "0.1", "--pus", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "IPC" in out
        assert "window span" in out
        assert "2 PUs" in out

    def test_run_in_order(self, capsys):
        assert main(["run", "compress", "--scale", "0.1", "--in-order"]) == 0
        assert "in-order" in capsys.readouterr().out

    def test_run_reference_engine_output_matches_fast(self, capsys):
        assert main(
            ["run", "compress", "--scale", "0.1", "--engine", "reference"]
        ) == 0
        reference = capsys.readouterr().out
        assert main(["run", "compress", "--scale", "0.1"]) == 0
        assert reference == capsys.readouterr().out

    def test_figure5(self, capsys):
        assert main(
            ["figure5", "--benchmarks", "compress", "--pus", "4",
             "--scale", "0.1"]
        ) == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out and "basic_block" in out

    def test_table1(self, capsys):
        assert main(
            ["table1", "--benchmarks", "compress", "--scale", "0.1"]
        ) == 0
        out = capsys.readouterr().out
        assert "#dyn" in out and "compress" in out

    def test_breakdown(self, capsys):
        assert main(
            ["breakdown", "--benchmarks", "compress", "--scale", "0.1"]
        ) == 0
        out = capsys.readouterr().out
        assert "useful" in out

    def test_centralized(self, capsys):
        assert main(
            ["centralized", "--benchmarks", "compress", "--scale", "0.1",
             "--pus", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "break-even" in out

    def test_figure5_json_output(self, capsys, tmp_path):
        path = tmp_path / "fig5.json"
        assert main(
            ["figure5", "--benchmarks", "compress", "--pus", "4",
             "--scale", "0.1", "--json", str(path)]
        ) == 0
        payload = json.loads(path.read_text())
        assert payload["command"] == "figure5"
        assert payload["scale"] == 0.1
        # one benchmark x 4 levels x (4 PUs, ooo + in-order)
        assert len(payload["records"]) == 8
        assert {r["level"] for r in payload["records"]} == {
            "basic_block", "control_flow", "data_dependence", "task_size"
        }

    def test_warm_cache_second_run_is_all_hits(self, capsys, tmp_path):
        from repro.experiments import clear_cache
        from repro.harness import read_ledger

        argv = ["table1", "--benchmarks", "compress", "--scale", "0.1"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        clear_cache()  # in-memory compilations gone: disk cache only
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        entries = read_ledger(tmp_path / "cache" / "ledger.jsonl")
        assert [e["cache"] for e in entries[-3:]] == ["hit"] * 3

    def test_no_cache_bypasses_artifacts(self, capsys, tmp_path):
        assert main(
            ["table1", "--benchmarks", "compress", "--scale", "0.1",
             "--no-cache"]
        ) == 0
        assert not (tmp_path / "cache" / "records").exists()

    def test_cache_stats_and_clear(self, capsys):
        assert main(
            ["table1", "--benchmarks", "compress", "--scale", "0.1"]
        ) == 0
        capsys.readouterr()
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "cache root" in out and "records    : 3" in out
        assert main(["cache", "clear"]) == 0
        assert "cleared" in capsys.readouterr().out
        assert main(["cache", "stats"]) == 0
        assert "records    : 0" in capsys.readouterr().out

    def test_verify_clean_workload(self, capsys):
        assert main(
            ["verify", "compress", "--scale", "0.1", "--levels",
             "control_flow,task_size", "--faults", "5", "--seed", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "OK" in out
        assert "verified 2 cell(s): 2 ok, 0 diverged" in out

    def test_verify_without_benchmarks_exits(self):
        with pytest.raises(SystemExit, match="--all"):
            main(["verify"])

    def test_cache_doctor(self, capsys):
        assert main(
            ["table1", "--benchmarks", "compress", "--scale", "0.1"]
        ) == 0
        capsys.readouterr()
        assert main(["cache", "doctor"]) == 0
        out = capsys.readouterr().out
        assert "checked" in out and "quarantined: 0" in out

    def test_resume_second_run_skips_completed(self, capsys, tmp_path):
        from repro.experiments import clear_cache
        from repro.harness import read_ledger

        argv = ["table1", "--benchmarks", "compress", "--scale", "0.1"]
        assert main(argv) == 0
        clear_cache()
        assert main(argv + ["--resume"]) == 0
        entries = read_ledger(tmp_path / "cache" / "ledger.jsonl")
        assert [e["cache"] for e in entries[-3:]] == ["resume"] * 3

    def test_unknown_benchmark_raises(self):
        with pytest.raises(SystemExit):
            main(["run", "nonexistent", "--scale", "0.1"])

    def test_trace_writes_valid_chrome_trace(self, capsys, tmp_path):
        from repro.telemetry import validate_chrome_trace_file

        path = tmp_path / "trace.json"
        assert main(
            ["trace", "compress", "--scale", "0.1", "-o", str(path)]
        ) == 0
        out = capsys.readouterr().out
        assert "lifecycle event" in out and "perfetto" in out.lower()
        validate_chrome_trace_file(path)  # must not raise
        payload = json.loads(path.read_text())
        assert payload["otherData"]["n_pus"] == 4

    def test_report_ok_and_drift_exit_codes(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(
            ["figure5", "--benchmarks", "li", "--pus", "4",
             "--scale", "0.1", "--json", str(a)]
        ) == 0
        capsys.readouterr()
        payload = json.loads(a.read_text())
        b.write_text(json.dumps(payload))
        assert main(["report", str(a), str(b)]) == 0
        assert "0 drifted" in capsys.readouterr().out
        payload["records"][0]["cycles"] += 1
        b.write_text(json.dumps(payload))
        with pytest.raises(SystemExit, match="DRIFT"):
            main(["report", str(a), str(b)])

    def test_report_rejects_unreadable_input(self):
        with pytest.raises(SystemExit, match="repro report"):
            main(["report", "no-such-file.json", "also-missing.json"])


class TestCacheAndListCLI:
    def test_cache_prune_parser(self):
        args = build_parser().parse_args(
            ["cache", "prune", "--max-bytes", "1024"]
        )
        assert args.action == "prune"
        assert args.max_bytes == 1024

    def test_cache_prune_requires_max_bytes(self):
        with pytest.raises(SystemExit, match="max-bytes"):
            main(["cache", "prune"])

    def test_cache_prune_rejects_negative(self):
        with pytest.raises(SystemExit, match="max-bytes"):
            main(["cache", "prune", "--max-bytes", "-5"])

    def test_cache_prune_evicts(self, capsys, tmp_path):
        assert main(
            ["figure5", "--benchmarks", "compress", "--scale", "0.1",
             "--jobs", "1"]
        ) == 0
        capsys.readouterr()
        assert main(["cache", "prune", "--max-bytes", "0"]) == 0
        out = capsys.readouterr().out
        assert "removed" in out and "kept" in out
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "records    : 0" in out

    def test_list_json(self, capsys):
        assert main(["list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        names = {bm["name"] for bm in payload["benchmarks"]}
        assert "compress" in names and "tomcatv" in names
        sample = payload["benchmarks"][0]
        for key in ("suite", "functions", "blocks", "instructions",
                    "description"):
            assert key in sample

    def test_list_json_synth(self, capsys):
        assert main(["list", "--synth", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        names = {p["name"] for p in payload["presets"]}
        assert "default" in names
        sample = payload["presets"][0]
        assert "region_weights" in sample


#: (argv, the bad value, a valid choice the error line must name)
_BAD_INPUT = [
    (["run", "nosuch"], "nosuch", "compress"),
    (["trace", "nosuch"], "nosuch", "compress"),
    (["profile-sim", "nosuch"], "nosuch", "compress"),
    (["verify", "nosuch"], "nosuch", "compress"),
    (["figure5", "--benchmarks", "compress,nosuch"], "nosuch", "compress"),
    (["scaling", "--benchmarks", "nosuch"], "nosuch", "compress"),
    (["tune", "nosuch"], "nosuch", "compress"),
    (["verify", "compress", "--levels", "bogus"], "bogus", "basic_block"),
    (["run", "compress", "--scale", "0"], "'0'", "> 0"),
    (["run", "compress", "--scale", "-1"], "'-1'", "> 0"),
    (["table1", "--pus", "0"], "'0'", ">= 1"),
    (["bench", "--engines", "warp"], "warp", "fast, reference"),
]


class TestBadInput:
    """Bad arguments exit 2 at parse time, before any cell runs."""

    @pytest.mark.parametrize(
        "argv, bad, valid", _BAD_INPUT,
        ids=["-".join(case[0]) for case in _BAD_INPUT],
    )
    def test_rejected_before_any_work(self, argv, bad, valid, capsys,
                                      monkeypatch):
        import repro.cli as cli

        def no_work(args):
            raise AssertionError("a command ran on bad input")

        monkeypatch.setattr(
            cli, "_COMMANDS", {name: no_work for name in cli._COMMANDS}
        )
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        [error] = [
            line for line in capsys.readouterr().err.splitlines()
            if "error:" in line
        ]
        assert bad in error and valid in error

    def test_synth_benchmark_names_still_parse(self):
        args = build_parser().parse_args(["run", "synth:loops:7"])
        assert args.benchmark == "synth:loops:7"

    def test_figure5_keeps_both_pu_counts_by_default(self):
        assert build_parser().parse_args(["figure5"]).pus == 0


def test_closed_stdout_exits_without_traceback():
    """``repro list | head`` must not print a BrokenPipeError traceback:
    the child writes into a pipe whose read end is already closed."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH", "")) if p
    )
    try:
        result = subprocess.run(
            [sys.executable, "-m", "repro", "list"],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env=env, timeout=120,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
    finally:
        os.close(write_end)
    assert result.stderr == ""
    assert result.returncode == 1
