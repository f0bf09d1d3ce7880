"""CLI tests (invoking main() in-process)."""

from functools import partial
from pathlib import Path

import pytest

from repro.analysis import Report, run_fig5
from repro.analysis.registry import ARTIFACTS, Artifact
from repro.cli import asm as asm_cli
from repro.cli import experiments as exp_cli
from repro.cli import run as run_cli

HELLO = """
_start:
    li a0, 1
    la a1, msg
    li a2, 3
    li a7, 64
    ecall
    li a0, 5
    li a7, 94
    ecall
.data
msg: .asciz "hi\\n"
"""


@pytest.fixture
def hello_file(tmp_path):
    path = tmp_path / "hello.s"
    path.write_text(HELLO)
    return str(path)


class TestRunCli:
    def test_runs_and_propagates_exit_code(self, hello_file, capsys):
        rc = run_cli.main([hello_file, "--slaves", "2"])
        out = capsys.readouterr()
        assert rc == 5
        assert out.out == "hi\n"
        assert "ms virtual" in out.err

    def test_qemu_mode(self, hello_file, capsys):
        rc = run_cli.main([hello_file, "--qemu"])
        assert rc == 5
        assert capsys.readouterr().out == "hi\n"

    def test_stats_flag(self, hello_file, capsys):
        run_cli.main([hello_file, "--stats"])
        assert "page requests" in capsys.readouterr().err

    def test_trace_flag(self, hello_file, capsys):
        run_cli.main([hello_file, "--trace", "--trace-limit", "10"])
        err = capsys.readouterr().err
        assert "[syscall" in err or "[page" in err

    def test_optimization_flags_accepted(self, hello_file):
        assert run_cli.main(
            [hello_file, "--forwarding", "--splitting", "--scheduler", "hint"]
        ) == 5

    def test_checkpoint_flags_accepted(self, hello_file):
        assert run_cli.main(
            [
                hello_file, "--slaves", "2",
                "--rpc-timeout-ns", "2000000", "--evacuation",
                "--checkpoint-interval-ns", "50000",
            ]
        ) == 5

    def test_stdin_file(self, tmp_path, capsys):
        src = tmp_path / "cat.s"
        src.write_text(
            """
            _start:
                li a0, 0
                la a1, buf
                li a2, 4
                li a7, 63
                ecall
                li a0, 1
                la a1, buf
                li a2, 4
                li a7, 64
                ecall
                li a0, 0
                li a7, 94
                ecall
            .data
            buf: .space 8
            """
        )
        data = tmp_path / "in.txt"
        data.write_bytes(b"wxyz")
        rc = run_cli.main([str(src), "--stdin", str(data)])
        assert rc == 0
        assert capsys.readouterr().out == "wxyz"

    def test_time_scale_flag(self, hello_file):
        assert run_cli.main([hello_file, "--time-scale", "100"]) == 5


class TestAsmCli:
    def test_listing(self, hello_file, capsys):
        assert asm_cli.main([hello_file]) == 0
        out = capsys.readouterr().out
        assert "entry: 0x10000" in out
        assert ".text" in out and ".data" in out
        assert "msg" in out
        assert "ecall" in out

    def test_symbols_only(self, hello_file, capsys):
        asm_cli.main([hello_file, "--symbols"])
        out = capsys.readouterr().out
        assert "_start" in out
        assert "ecall" not in out

    def test_output_file(self, hello_file, tmp_path, capsys):
        out_path = tmp_path / "hello.lst"
        asm_cli.main([hello_file, "-o", str(out_path)])
        assert "disassembly" in out_path.read_text()
        assert capsys.readouterr().out == ""


RESULTS_DIR = Path(__file__).resolve().parent.parent / "benchmarks" / "results"


class TestExperimentsCli:
    def test_registry_covers_every_artifact(self):
        committed = {p.stem for p in RESULTS_DIR.glob("*.txt")}
        committed |= {p.stem for p in RESULTS_DIR.glob("BENCH_*.json")}
        assert len(committed) == 25
        produced = set(ARTIFACTS)
        produced |= {a.bench for a in ARTIFACTS.values() if a.bench}
        assert produced == committed

    def test_small_fig5_run(self, capsys, monkeypatch, tmp_path):
        # shrink fig5 so the CLI test is quick
        monkeypatch.setitem(
            ARTIFACTS, "fig5_scalability",
            Artifact(partial(run_fig5, n_threads=4, terms=50, reps=1,
                             slave_counts=(1, 2))),
        )
        assert exp_cli.main(["fig5", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Fig. 5" in out
        # The file is named after the committed artifact, not the CLI name.
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fig5_scalability.txt"]
        assert (tmp_path / "fig5_scalability.txt").read_text().startswith("Fig. 5")

    def test_group_writes_each_artifact_and_its_bench_json(
        self, capsys, monkeypatch, tmp_path
    ):
        def fake(stem):
            return lambda: Report(f"table {stem}", [{"x": 1}], {}, {"stem": stem})

        monkeypatch.setitem(ARTIFACTS, "fig7_blackscholes",
                            Artifact(fake("fig7_blackscholes")))
        monkeypatch.setitem(ARTIFACTS, "fig7_swaptions",
                            Artifact(fake("fig7_swaptions"), "BENCH_fake"))
        assert exp_cli.main(["fig7", "--out", str(tmp_path)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "BENCH_fake.json", "fig7_blackscholes.txt", "fig7_swaptions.txt",
        ]
        assert (tmp_path / "fig7_swaptions.txt").read_text() == "table fig7_swaptions\n"
        assert '"stem": "fig7_swaptions"' in (tmp_path / "BENCH_fake.json").read_text()
        assert "table fig7_blackscholes" in capsys.readouterr().out
