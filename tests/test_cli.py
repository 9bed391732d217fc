import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import williamson
from williamson import __version__, cli
from williamson.cli import COUNTERS, DomainError, RunConfig, main, run_enumeration, smallest_prime_divisor
from williamson.equivalence import dedupe
from williamson.oracle import brute_force_enumerate
from williamson.satgen import build_instance, encode_product_theorem, export_dimacs
from williamson.seqcore import format_block, read_quadruples

from helpers import class_key, solve_without_callback


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_smallest_prime_divisor():
    assert smallest_prime_divisor(6) == 2
    assert smallest_prime_divisor(9) == 3
    assert smallest_prime_divisor(35) == 5


def test_order_one_has_no_prime_divisor(capsys):
    code, out, err = run_cli(capsys, "enumerate", "-n", "1")
    assert code == 1 and "no prime divisor" in err


class TestRunConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            RunConfig(n=0)

    def test_epsilon_is_no_option(self, capsys):
        # the PSD slack is fixed (seqcore.psd_bound): argparse rejects the option
        with pytest.raises(SystemExit) as exit_info:
            main(["enumerate", "-n", "6", "--epsilon", "0.1"])
        assert exit_info.value.code == 2
        assert "--epsilon" in capsys.readouterr().err

    def test_no_callback_is_no_option(self, capsys):
        # the driver always solves with the PSD callback
        with pytest.raises(SystemExit) as exit_info:
            main(["enumerate", "-n", "6", "--no-callback"])
        assert exit_info.value.code == 2
        assert "--no-callback" in capsys.readouterr().err

    def test_dump_cnf_needs_out_dir(self, capsys):
        with pytest.raises(DomainError, match="--out"):
            RunConfig(n=6, dump_cnf=True)
        code, out, err = run_cli(capsys, "enumerate", "-n", "6", "--dump-cnf")
        assert code == 1 and "--dump-cnf" in err

    @pytest.mark.parametrize("workers", [0, -3])
    def test_worker_count_below_one(self, workers):
        with pytest.raises(DomainError, match="-j"):
            RunConfig(n=6, workers=workers)

    def test_bad_worker_count_exit_code(self, capsys):
        code, out, err = run_cli(capsys, "enumerate", "--order", "6", "-j", "0")
        assert code == 1 and "-j" in err

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one(self, budget):
        with pytest.raises(DomainError, match="--budget-bytes"):
            RunConfig(n=6, matcher_budget_bytes=budget)

    def test_budget_below_one_exit_code(self, capsys):
        code, out, err = run_cli(capsys, "enumerate", "--order", "6", "--budget-bytes", "0")
        assert code == 1 and "--budget-bytes" in err and out == ""


class TestEnumerate:
    def test_unsupported_order_is_domain_error(self, capsys):
        code, out, err = run_cli(capsys, "enumerate", "--order", "25")
        assert code == 1
        assert "unsupported" in err

    def test_n2_summary_line(self, capsys):
        code, out, err = run_cli(capsys, "enumerate", "--order", "2")
        assert code == 0
        assert "inequivalent=1" in out

    def test_python_dash_m(self, tmp_path):
        # the package runs as a module, loading cli once: running williamson.cli
        # that way printed a RuntimeWarning on every run
        src = str(Path(williamson.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-W", "default", "-m", "williamson", "enumerate", "-n", "12",
             "-o", str(tmp_path / "run")],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert "inequivalent=3" in proc.stdout
        assert (tmp_path / "run" / "solutions.txt").exists()

    def test_outputs_written(self, tmp_path, capsys):
        out_dir = str(tmp_path / "run")
        code, out, err = run_cli(capsys, "enumerate", "--order", "6", "--out", out_dir, "--dump-cnf")
        assert code == 0
        assert os.path.exists(os.path.join(out_dir, "solutions.txt"))
        assert os.path.exists(os.path.join(out_dir, "canonical.txt"))
        summary = open(os.path.join(out_dir, "summary.tsv")).read().splitlines()
        assert summary[0].split("\t") == ["n", "seconds", "instances", "solutions", "inequivalent"]
        row = summary[1].split("\t")
        assert row[0] == "6" and row[4] == "1"
        stats = open(os.path.join(out_dir, "stats.tsv")).read().splitlines()
        assert len(stats) == 1 + int(row[2])
        cnfs = os.listdir(os.path.join(out_dir, "instances"))
        assert len(cnfs) == int(row[2]) and all(f.endswith(".cnf") for f in cnfs)
        tasks, _ = cli._generate_instances(RunConfig(n=6))
        for iid, rows in tasks:
            dumped = open(os.path.join(out_dir, "instances", f"{iid}.cnf")).read()
            assert dumped == export_dimacs(build_instance(rows, 6))

    def test_odd_order_cnf_dumps_hold_product_clauses(self, tmp_path):
        out_dir = tmp_path / "run"
        run_enumeration(RunConfig(n=9, out_dir=str(out_dir), dump_cnf=True))
        tasks, _ = cli._generate_instances(RunConfig(n=9))
        assert sorted(os.listdir(out_dir / "instances")) == sorted(f"{iid}.cnf" for iid, _ in tasks)
        for iid, rows in tasks:
            dumped = (out_dir / "instances" / f"{iid}.cnf").read_text()
            expected = build_instance(rows, 9)
            assert dumped == export_dimacs(expected)
            product = [" ".join(map(str, c)) + " 0" for c in encode_product_theorem(9)]
            assert dumped.splitlines()[-len(product):] == product

    def test_determinism(self, tmp_path):
        a = run_enumeration(RunConfig(n=9, out_dir=str(tmp_path / "a")))
        b = run_enumeration(RunConfig(n=9, out_dir=str(tmp_path / "b")))
        assert [class_key(q) for q in a.canonical] == [class_key(q) for q in b.canonical]
        assert open(tmp_path / "a" / "canonical.txt").read() == open(tmp_path / "b" / "canonical.txt").read()

    def test_resume_from_checkpoint(self, tmp_path):
        out_dir = str(tmp_path / "run")
        first = run_enumeration(RunConfig(n=9, out_dir=out_dir))
        assert first.solved_this_run == first.instance_count > 0

        # simulate killed runs: cut the checkpoint at line ends and mid-line
        ckpt = os.path.join(out_dir, "checkpoint.jsonl")
        data = open(ckpt, "rb").read()
        line_ends = [i + 1 for i, byte in enumerate(data) if byte == ord("\n")]
        cuts = set(line_ends[:-1]) | {e - 1 for e in line_ends}
        cuts |= set(random.Random(9).sample(range(1, len(data)), 6))
        for cut in sorted(cuts):
            open(ckpt, "wb").write(data[:cut])
            for name in ("solutions.txt", "canonical.txt", "summary.tsv", "stats.tsv"):
                os.unlink(os.path.join(out_dir, name))

            second = run_enumeration(RunConfig(n=9, out_dir=out_dir))
            complete = max(data[:cut].count(b"\n") - 1, 0)  # line 1 is the header
            assert second.solved_this_run == first.instance_count - complete, cut
            assert second.inequivalent_count == first.inequivalent_count
            assert len(second.solutions) == len(first.solutions)
            with open(ckpt, "rb") as f:
                header, *records = f.read().splitlines()
            assert header == data.split(b"\n")[0]
            ids = [json.loads(line)["id"] for line in records]
            assert sorted(ids) == sorted(s["id"] for s in first.instance_stats)

    def test_resume_rejects_another_version(self, tmp_path, monkeypatch):
        out_dir = str(tmp_path / "run")
        run_enumeration(RunConfig(n=6, out_dir=out_dir))
        monkeypatch.setattr(cli, "__version__", "0.0.0")
        with pytest.raises(DomainError, match="written with version="):
            run_enumeration(RunConfig(n=6, out_dir=out_dir))

    @pytest.mark.parametrize("old", [
        # 0.2.0 headers also held epsilon and the callback setting
        {"n": 12, "epsilon": 0.01, "callback": True, "version": "0.2.0"},
        {"n": 12, "epsilon": 0.01, "callback": False, "version": "0.2.0"},
        # 0.3.0 counters come from a search that stored callback clauses unanalysed
        {"n": 12, "version": "0.3.0"},
        # 0.4.0 counters come from a search of every model, not one per E3 orbit
        {"n": 12, "version": "0.4.0"},
    ], ids=["0.2.0-callback", "0.2.0-no-callback", "0.3.0", "0.4.0"])
    def test_resume_rejects_old_version_checkpoint(self, tmp_path, old):
        out_dir = tmp_path / "run"
        run_enumeration(RunConfig(n=12, out_dir=str(out_dir)))
        ckpt = out_dir / "checkpoint.jsonl"
        header, rest = ckpt.read_text().split("\n", 1)
        assert json.loads(header) == {"header": {"n": 12, "version": __version__}}
        ckpt.write_text(json.dumps({"header": old}) + "\n" + rest)
        with pytest.raises(DomainError, match=f"written with version='{old['version']}'"):
            run_enumeration(RunConfig(n=12, out_dir=str(out_dir)))

    def test_resume_rejects_checkpoint_without_header(self, tmp_path):
        out_dir = str(tmp_path / "run")
        run_enumeration(RunConfig(n=9, out_dir=out_dir))
        ckpt = os.path.join(out_dir, "checkpoint.jsonl")
        lines = open(ckpt).read().splitlines(keepends=True)
        open(ckpt, "w").write("".join(lines[1:]))
        with pytest.raises(DomainError, match="no header record"):
            run_enumeration(RunConfig(n=9, out_dir=out_dir))

    def test_resume_rejects_unreadable_inner_line(self, tmp_path):
        out_dir = str(tmp_path / "run")
        run_enumeration(RunConfig(n=9, out_dir=out_dir))
        ckpt = os.path.join(out_dir, "checkpoint.jsonl")
        lines = open(ckpt).read().splitlines()
        assert len(lines) >= 2
        lines[0] = lines[0][:-5]
        open(ckpt, "w").write("\n".join(lines) + "\n")
        with pytest.raises(DomainError, match="line 1 "):
            run_enumeration(RunConfig(n=9, out_dir=out_dir))

    @pytest.mark.parametrize("lineno,text", [
        (2, "[1, 2]"),
        (1, "[1]"),
        (2, '{"solutions": [], "stats": {}}'),
        (2, '{"id": "x", "stats": {}}'),
        (1, '{"header": [1]}'),
    ])
    def test_resume_rejects_non_record_line(self, tmp_path, capsys, lineno, text):
        out_dir = str(tmp_path / "run")
        run_enumeration(RunConfig(n=6, out_dir=out_dir))
        ckpt = os.path.join(out_dir, "checkpoint.jsonl")
        lines = open(ckpt).read().splitlines()
        assert len(lines) >= 2
        lines[lineno - 1] = text
        open(ckpt, "w").write("\n".join(lines) + "\n")
        assert main(["enumerate", "-n", "6", "-o", out_dir]) == 1
        assert f"line {lineno} " in capsys.readouterr().err

    @pytest.mark.parametrize("field,value", [
        ("stats", {}),
        ("stats", {"decisions": 1, "conflicts": 1, "propagations": 1, "callback_clauses": 1, "solutions": "1"}),
        ("stats", {"decisions": 1, "conflicts": 1, "propagations": 1, "callback_clauses": 1, "solutions": True}),
        ("solutions", [[[1, 1], [1], [1], [1]]]),
        ("solutions", [[[1, 1, 1, 1, 1]] * 3]),
        ("solutions", [[[1, 1, 1, 1, 0]] * 4]),
        ("solutions", [[[1, 1, 1, 1, 1.0]] * 4]),
        ("solutions", [[1, 1, 1, 1]]),
    ], ids=["stats-empty", "stats-string", "stats-bool", "short-rows", "three-rows",
            "zero-entry", "float-entry", "flat-solution"])
    def test_resume_rejects_malformed_record(self, tmp_path, capsys, field, value):
        # caught while loading, naming the line, not as a KeyError or a bare
        # sequence error after the remaining instances are solved
        out_dir = str(tmp_path / "run")
        run_enumeration(RunConfig(n=9, out_dir=out_dir))
        ckpt = os.path.join(out_dir, "checkpoint.jsonl")
        lines = open(ckpt).read().splitlines()
        rec = json.loads(lines[1])
        rec[field] = value
        lines[1] = json.dumps(rec)
        open(ckpt, "w").write("\n".join(lines) + "\n")
        assert main(["enumerate", "-n", "9", "-o", out_dir]) == 1
        assert "checkpoint.jsonl: line 2 " in capsys.readouterr().err

    # task ids and the discard log of `_generate_instances`, as the seed's matcher and
    # dedupe produced them; the instance set feeds every checkpoint
    @pytest.mark.parametrize("n,tasks,discarded,digest", [
        (12, 3, 4, "0f2d2d7d99f62b0c"),
        (18, 22, 294, "93b5cd5374979dfd"),
        (27, 172, 1316, "c14604a97db1846d"),
        (28, 45, 789, "0e5dcba5c590b6e7"),
    ])
    def test_instance_set_pinned(self, n, tasks, discarded, digest):
        got, log = cli._generate_instances(RunConfig(n=n))
        assert (len(got), len(log)) == (tasks, discarded)
        assert hashlib.sha1(json.dumps([got, log]).encode()).hexdigest()[:16] == digest

    # run_enumeration totals under the fixed decision rule (lowest unassigned
    # variable, saved phase, no restarts), each callback clause analysed to
    # its 1UIP clause, and at even n one model searched per E3 orbit; a
    # solver change that moves the search on purpose updates these and says so
    @pytest.mark.parametrize("n,totals", [
        (9, (44, 18, 305, 13, 15)),
        (12, (36, 7, 204, 21, 128)),
        (18, (454, 47, 2387, 360, 584)),
    ])
    def test_search_counters_pinned(self, n, totals):
        report = run_enumeration(RunConfig(n=n))
        assert tuple(report.total(k) for k in COUNTERS) == totals

    # the same totals with the callback off, solving the driver's instances
    # through the library: models are then filtered by exact verification
    # after the search, so solutions exceed verified
    @pytest.mark.parametrize("n,totals", [
        (9, (65, 35, 418, 0, 33, 15)),
        (12, (90, 45, 351, 0, 768, 128)),
    ])
    def test_search_counters_pinned_without_callback(self, n, totals):
        got, _ = solve_without_callback(n)
        assert tuple(got[k] for k in COUNTERS + ("verified",)) == totals

    def test_unverified_model_with_callback_raises(self, monkeypatch):
        monkeypatch.setattr(cli, "verify_williamson", lambda q: False)
        with pytest.raises(RuntimeError, match=r"instance [0-9a-f]{16}"):
            run_enumeration(RunConfig(n=9))

    def test_elapsed_ignores_wall_clock_steps(self, monkeypatch):
        # a wall clock stepped back by a second on every read must not reach the timing
        clock = iter(range(10**6, 0, -1))
        monkeypatch.setattr(cli.time, "time", lambda: float(next(clock)))
        assert run_enumeration(RunConfig(n=6)).elapsed >= 0

    def test_parallel_workers_match_serial(self, tmp_path):
        serial = run_enumeration(RunConfig(n=12, workers=1))
        parallel = run_enumeration(RunConfig(n=12, workers=2))
        assert {class_key(q) for q in serial.canonical} == {
            class_key(q) for q in parallel.canonical
        }
        assert len(serial.solutions) == len(parallel.solutions)

    def test_oracle_equivalence_via_cli_paths(self):
        report = run_enumeration(RunConfig(n=3))
        oracle_classes = dedupe(brute_force_enumerate(3))
        assert {class_key(q) for q in report.canonical} == {
            class_key(q) for q in oracle_classes
        }


class TestVerify:
    def test_good_and_corrupted_blocks(self, tmp_path, capsys):
        q = dedupe(brute_force_enumerate(3))[0]
        good = format_block(q.members)
        lines = good.splitlines()
        corrupted = "\n".join(lines[:3] + [("-" if lines[3][0] == "+" else "+") + lines[3][1:]])
        path = tmp_path / "seqs.txt"
        path.write_text(good + "\n\n" + corrupted + "\n")
        code, out, err = run_cli(capsys, "verify", str(path))
        assert code == 1  # one bad block
        assert "block 1\torder 3\tWILLIAMSON" in out
        assert "block 2\torder 3\tNOT-WILLIAMSON" in out

    def test_all_ones_order_one(self, tmp_path, capsys):
        path = tmp_path / "one.txt"
        path.write_text("+\n+\n+\n+\n")
        code, out, err = run_cli(capsys, "verify", str(path))
        assert code == 0 and "WILLIAMSON" in out

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("+x\n")
        code, out, err = run_cli(capsys, "verify", str(path))
        assert code == 1 and "line 1" in err

    def test_mixed_orders_name_the_block(self, tmp_path, capsys):
        path = tmp_path / "mixed.txt"
        path.write_text("+\n+\n+\n+\n\n+++\n+++\n+++\n+++++\n")
        code, out, err = run_cli(capsys, "verify", str(path))
        assert code == 1 and out == ""
        assert err == "error: block 2: members must have equal order\n"

    @pytest.mark.parametrize("text", ["", "\n  \n"], ids=["empty", "blank"])
    def test_file_without_blocks_fails(self, tmp_path, capsys, text):
        path = tmp_path / "empty.txt"
        path.write_text(text)
        code, out, err = run_cli(capsys, "verify", str(path))
        assert code == 1 and out == ""
        assert err == f"error: {path} holds no quadruple blocks\n"


class TestOtherCommands:
    def test_decompose(self, capsys):
        code, out, err = run_cli(capsys, "decompose", "2")
        assert code == 0 and out.strip() == "0 0 2 2"

    def test_canonicalize_idempotent(self, tmp_path, capsys):
        qs = brute_force_enumerate(2)[:5]
        path = tmp_path / "qs.txt"
        with open(path, "w") as f:
            from williamson.seqcore import write_blocks

            write_blocks(f, (q.members for q in qs))
        code, first, err = run_cli(capsys, "canonicalize", str(path))
        assert code == 0
        path2 = tmp_path / "canon.txt"
        path2.write_text(first)
        code, second, err = run_cli(capsys, "canonicalize", str(path2))
        assert second == first

    def test_canonicalize_reads_stdin(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "qs.txt"
        path.write_text("\n\n".join(format_block(q.members) for q in brute_force_enumerate(4)) + "\n")
        code, from_file, err = run_cli(capsys, "canonicalize", str(path))
        assert code == 0 and from_file
        with open(path) as f:
            monkeypatch.setattr(sys, "stdin", f)
            code, from_stdin, err = run_cli(capsys, "canonicalize")
        assert code == 0 and from_stdin == from_file

    def test_canonicalize_into_closed_pipe(self, tmp_path):
        # `williamson canonicalize big.txt | head -n 1`: the reader closes the
        # pipe after one line, which ends the command quietly with status 0
        text = "\n\n".join(format_block(q.members) for q in run_enumeration(RunConfig(n=10)).canonical)
        path = tmp_path / "big.txt"
        path.write_text("\n\n".join([text] * 3000) + "\n")
        src = str(Path(williamson.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.Popen([sys.executable, "-m", "williamson", "canonicalize", str(path)],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 0, err
        assert err == b"" and len(first.strip()) == 10

    @pytest.mark.parametrize("command", ["verify", "canonicalize", "double", "extract8", "hadamard"])
    def test_missing_file_exit_code(self, tmp_path, capsys, command):
        code, out, err = run_cli(capsys, command, str(tmp_path / "missing.txt"))
        assert code == 1 and err.startswith("error:")

    def test_oracle_matches_enumerate(self, capsys):
        code, out, err = run_cli(capsys, "oracle", "--order", "3")
        assert code == 0
        header = out.splitlines()[0]
        assert "inequivalent=1" in header
        blocks = read_quadruples(out.splitlines()[1:])
        report = run_enumeration(RunConfig(n=3))
        assert {class_key(q) for q in blocks} == {class_key(q) for q in report.canonical}

    def test_oracle_budget_error(self, capsys):
        code, out, err = run_cli(capsys, "oracle", "--order", "14")
        assert code == 1 and "budget" in err

    def test_double_cli(self, tmp_path, capsys):
        q = dedupe(brute_force_enumerate(3))[0]
        path = tmp_path / "q3.txt"
        path.write_text(format_block(q.members) + "\n")
        code, out, err = run_cli(capsys, "double", str(path))
        assert code == 0
        doubled = read_quadruples(out.splitlines())
        assert doubled[0].order == 6

    def test_extract8_cli(self, tmp_path, capsys):
        q = dedupe(brute_force_enumerate(6))[0]
        path = tmp_path / "q6.txt"
        path.write_text(format_block(q.members) + "\n")
        code, out, err = run_cli(capsys, "extract8", str(path))
        assert code == 0
        lines = [l for l in out.splitlines() if l.strip()]
        assert len(lines) == 8 and all(len(l) == 3 for l in lines)

    def test_hadamard_cli(self, tmp_path, capsys):
        q = dedupe(brute_force_enumerate(2))[0]
        path = tmp_path / "q2.txt"
        path.write_text(format_block(q.members) + "\n")
        code, out, err = run_cli(capsys, "hadamard", str(path), "--print-matrix")
        assert code == 0 and "hadamard order 8" in out
        rows = [l for l in out.splitlines() if set(l) <= {"+", "-"} and l]
        assert len(rows) == 8

    def test_stats_command(self, tmp_path, capsys):
        out_dir = str(tmp_path / "run")
        report = run_enumeration(RunConfig(n=9, out_dir=out_dir))
        code, out, err = run_cli(capsys, "stats", out_dir)
        assert code == 0
        assert out.startswith("n\tseconds") and "total_conflicts=" in out
        totals = dict(f.split("=") for f in out.splitlines()[-1].split("\t"))
        assert list(totals) == [f"total_{k}" for k in COUNTERS]
        assert int(totals["total_propagations"]) == report.total("propagations") > 0
        assert int(totals["total_solutions"]) == len(report.solutions) > 0
        header = (Path(out_dir) / "stats.tsv").read_text().split("\n", 1)[0]
        assert header.split("\t") == ["instance", *COUNTERS]

    def test_stats_without_counter_column(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        run_enumeration(RunConfig(n=6, out_dir=str(out_dir)))
        stats = (out_dir / "stats.tsv").read_text().splitlines()
        (out_dir / "stats.tsv").write_text("".join(l.rsplit("\t", 1)[0] + "\n" for l in stats))
        code, out, err = run_cli(capsys, "stats", str(out_dir))
        assert code == 1 and "'solutions'" in err

    def test_stats_reads_older_verified_column(self, tmp_path, capsys):
        # a stats.tsv written before the verified column was dropped: the
        # extra column is ignored
        out_dir = tmp_path / "run"
        run_enumeration(RunConfig(n=9, out_dir=str(out_dir)))
        code, current, err = run_cli(capsys, "stats", str(out_dir))
        stats = (out_dir / "stats.tsv").read_text().splitlines()
        older = [stats[0] + "\tverified"] + [l + "\t" + l.rsplit("\t", 1)[1] for l in stats[1:]]
        (out_dir / "stats.tsv").write_text("\n".join(older) + "\n")
        code, out, err = run_cli(capsys, "stats", str(out_dir))
        assert code == 0 and out == current
        assert "total_rejected" not in out

    @pytest.mark.parametrize("cut", [
        lambda fields: fields[:3],
        lambda fields: fields[:1] + ["x"] + fields[2:],
    ], ids=["three-columns", "non-integer"])
    def test_stats_rejects_bad_row(self, tmp_path, capsys, cut):
        out_dir = tmp_path / "run"
        run_enumeration(RunConfig(n=6, out_dir=str(out_dir)))
        lines = (out_dir / "stats.tsv").read_text().splitlines()
        lines[1] = "\t".join(cut(lines[1].split("\t")))
        (out_dir / "stats.tsv").write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(capsys, "stats", str(out_dir))
        assert code == 1 and "stats.tsv: line 2 " in err

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate"])  # missing --order
        assert exc.value.code == 2

    def test_checkpoint_format_is_json_lines(self, tmp_path):
        out_dir = str(tmp_path / "run")
        run_enumeration(RunConfig(n=6, out_dir=out_dir))
        with open(os.path.join(out_dir, "checkpoint.jsonl")) as f:
            header, *records = [json.loads(line) for line in f]
        assert header == {"header": {"n": 6, "version": __version__}}
        assert records
        for rec in records:
            assert set(rec) == {"id", "solutions", "stats"}
