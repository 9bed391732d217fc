"""Driver and command line interface.

The enumerate command runs the full pipeline for one order n divisible by 2
or 3: rowsum decompositions, PSD-filtered candidates, compression lists,
pair-sum matching, instance deduplication, and SAT uncompression, always with
the programmatic PSD callback; for even n the solver searches one model per
E3 orbit and returns each with its images.  One SAT instance is one task in a
worker pool; results are checkpointed per instance so a killed run can resume.
Every found quadruple is verified exactly before counting, and one that fails
aborts the run.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field

from . import __version__, constructions, equivalence, oracle, satgen, seqcore
from .diophantine import decompose_four_squares
from .pipeline import DEFAULT_BUDGET_BYTES, build_compression_lists, generate_candidates, match_compressions
from .progsat import CdclSolver, WilliamsonCallback
from .seqcore import Quadruple, SymmetricSequence, verify_williamson


class DomainError(Exception):
    pass


def smallest_prime_divisor(n: int) -> int:
    for p in range(2, n + 1):
        if n % p == 0:
            return p
    raise DomainError(f"{n} has no prime divisor")


@dataclass
class RunConfig:
    n: int
    workers: int = 1
    out_dir: str = None
    matcher_budget_bytes: int = DEFAULT_BUDGET_BYTES
    dump_cnf: bool = False

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("order must be positive")
        if self.dump_cnf and not self.out_dir:
            raise DomainError("--dump-cnf needs a run directory (--out)")
        if self.matcher_budget_bytes < 1:
            raise DomainError(f"matcher budget (--budget-bytes) must be >= 1, got {self.matcher_budget_bytes}")
        if not isinstance(self.workers, int) or self.workers < 1:
            raise DomainError(f"workers (-j) must be an integer >= 1, got {self.workers!r}")


@dataclass
class EnumerationReport:
    n: int
    instance_count: int
    solutions: list
    canonical: list
    elapsed: float
    instance_stats: list = field(default_factory=list)
    solved_this_run: int = 0
    discarded_instances: int = 0

    @property
    def inequivalent_count(self) -> int:
        return len(self.canonical)

    def total(self, stat: str) -> int:
        return sum(s[stat] for s in self.instance_stats)


# the solver counters of one instance, as checkpoint records and stats.tsv hold them
COUNTERS = ("decisions", "conflicts", "propagations", "callback_clauses", "solutions")


def _instance_id(rows) -> str:
    return hashlib.sha1(json.dumps(rows).encode()).hexdigest()[:16]


def _solve_task(args):
    instance_id, rows, n = args
    inst = satgen.build_instance(rows, n)
    solver = CdclSolver(inst.num_vars, inst.clauses, WilliamsonCallback(inst.var_map))
    models = solver.solve_all(inst.images)
    solutions = [[list(x.free) for x in inst.var_map.decode(model)] for model in models]
    stats = {k: len(models) if k == "solutions" else getattr(solver.stats, k) for k in COUNTERS}
    return instance_id, solutions, stats


def _generate_instances(cfg: RunConfig):
    n = cfg.n
    m = smallest_prime_divisor(n)
    if m not in (2, 3):
        raise DomainError(f"order {n} unsupported: smallest prime divisor is {m}")
    if cfg.out_dir:
        os.makedirs(cfg.out_dir, exist_ok=True)
    decs = decompose_four_squares(n)
    candidates = generate_candidates(n, decs)
    matched = []
    for dec in decs:
        lists = build_compression_lists(candidates, dec, m)
        matched.extend(match_compressions(lists, n, budget_bytes=cfg.matcher_budget_bytes))
    kept, discarded = satgen.dedupe_instances(matched, n)
    kept_rows = [mc.rows.tolist() for mc in kept]
    kept_ids = [_instance_id(rows) for rows in kept_rows]
    discard_log = [(_instance_id(mc.rows.tolist()), kept_ids[kept_idx]) for mc, kept_idx in discarded]
    return sorted(zip(kept_ids, kept_rows)), discard_log


def _load_checkpoint(path: str, header: dict) -> dict:
    """Instance id -> (solutions, stats) from checkpoint.jsonl.

    The first record is the header the file was started with, n and the
    package version; it must equal ``header``.  A run killed mid-write leaves
    a torn last line (no newline, or no JSON): it is dropped, and the file
    truncated to the end of the last complete record so the next record
    starts a line of its own.  An unreadable line before the last is an
    error, and so is a complete line that is not a record: JSON other than an
    object with a string ``id``, ``solutions`` each of four rows of n//2+1
    entries ±1, and ``stats`` holding the `COUNTERS` as ints (a header object
    on line 1).
    """
    free = header["n"] // 2 + 1

    def is_record(rec) -> bool:
        if not (isinstance(rec, dict) and isinstance(rec.get("id"), str)):
            return False
        sols, stats = rec.get("solutions"), rec.get("stats")
        return (isinstance(stats, dict) and all(type(stats.get(k)) is int for k in COUNTERS)
                and isinstance(sols, list)
                and all(isinstance(sol, list) and len(sol) == 4 for sol in sols)
                and all(isinstance(row, list) and len(row) == free
                        and all(type(v) is int and v in (-1, 1) for v in row)
                        for sol in sols for row in sol))

    done, end, offset = {}, 0, 0
    with open(path, "rb+") as f:
        lines = f.read().split(b"\n")
        for lineno, line in enumerate(lines, start=1):
            offset += len(line) + 1
            if not line.strip():
                continue
            try:
                rec = json.loads(line) if lineno < len(lines) else None
            except ValueError:
                rec = None
            if rec is None:
                if any(rest.strip() for rest in lines[lineno:]):
                    raise DomainError(f"{path}: line {lineno} is not a checkpoint record")
                break
            if end:
                if not is_record(rec):
                    raise DomainError(f"{path}: line {lineno} is not a checkpoint record (a string id, "
                                      f"solutions of four rows of {free} ±1 entries, integer stats "
                                      f"{', '.join(COUNTERS)})")
                done[rec["id"]] = (rec["solutions"], rec["stats"])
            else:  # the first record
                old = rec.get("header") if isinstance(rec, dict) else None
                if not isinstance(old, dict):
                    raise DomainError(f"{path}: line {lineno} holds no header record "
                                      "(n, version); it cannot be resumed")
                for key, value in header.items():
                    if old.get(key) != value:
                        raise DomainError(f"{path} was written with {key}={old.get(key)!r}; "
                                          f"this run has {key}={value!r}")
            end = offset
        f.truncate(end)
    return done


def run_enumeration(cfg: RunConfig) -> EnumerationReport:
    start = time.perf_counter()
    n = cfg.n
    tasks, discarded = _generate_instances(cfg)

    out_dir = cfg.out_dir
    checkpoint_path = None
    done = {}
    # what the results depend on: a resume must have the same
    header = {"n": n, "version": __version__}
    if out_dir:
        checkpoint_path = os.path.join(out_dir, "checkpoint.jsonl")
        if os.path.exists(checkpoint_path):
            done = _load_checkpoint(checkpoint_path, header)
        with open(os.path.join(out_dir, "instances_discarded.log"), "w") as f:
            for discarded_id, kept_id in discarded:
                f.write(f"{discarded_id}\tkept={kept_id}\n")

    pending = [(iid, rows, n) for iid, rows in tasks if iid not in done]
    ckpt = open(checkpoint_path, "a") if checkpoint_path else None
    if ckpt and ckpt.tell() == 0:
        ckpt.write(json.dumps({"header": header}) + "\n")
        ckpt.flush()

    def record(iid, solutions, stats):
        done[iid] = (solutions, stats)
        if ckpt:
            ckpt.write(json.dumps({"id": iid, "solutions": solutions, "stats": stats}) + "\n")
            ckpt.flush()

    pool = None
    try:
        if cfg.workers > 1 and len(pending) > 1:
            import multiprocessing  # here, not at the top: only a pool needs it

            pool = multiprocessing.Pool(cfg.workers)
        for iid, solutions, stats in (pool.imap_unordered if pool else map)(_solve_task, pending):
            record(iid, solutions, stats)
    finally:
        if pool:
            pool.terminate()
        if ckpt:
            ckpt.close()

    # The callback passes a model only if its summed PSD stays below 4n + eps
    # at every frequency.  The PSD sums average exactly 4n, so each PAF sum is
    # within 2 eps of its target; as eps = EPSILON_DEFAULT < 1/2 these integers
    # hit it exactly and a model that fails the exact check is a defect, not a
    # filter hit.
    solutions = []
    instance_stats = []
    for iid, rows in tasks:
        sols, stats = done[iid]
        stats = dict(stats)
        stats["id"] = iid
        for free_rows in sols:
            q = Quadruple(*(SymmetricSequence.from_free(n, fr) for fr in free_rows))
            if not verify_williamson(q):
                raise RuntimeError(f"instance {iid}: the solver returned a model "
                                   "that is not a Williamson quadruple")
            solutions.append(q)
        instance_stats.append(stats)

    solutions.sort(key=lambda q: tuple(x.entries for x in q.members))
    canonical = equivalence.dedupe(solutions)
    elapsed = time.perf_counter() - start

    report = EnumerationReport(
        n=n,
        instance_count=len(tasks),
        solutions=solutions,
        canonical=canonical,
        elapsed=elapsed,
        instance_stats=instance_stats,
        solved_this_run=len(pending),
        discarded_instances=len(discarded),
    )
    if out_dir:
        _write_run_outputs(cfg, report, tasks)
    return report


def _write_run_outputs(cfg: RunConfig, report: EnumerationReport, tasks) -> None:
    out_dir = cfg.out_dir
    with open(os.path.join(out_dir, "solutions.txt"), "w") as f:
        seqcore.write_blocks(f, (q.members for q in report.solutions))
    with open(os.path.join(out_dir, "canonical.txt"), "w") as f:
        seqcore.write_blocks(f, (q.members for q in report.canonical))
    with open(os.path.join(out_dir, "summary.tsv"), "w") as f:
        f.write("n\tseconds\tinstances\tsolutions\tinequivalent\n")
        f.write(
            f"{report.n}\t{report.elapsed:.2f}\t{report.instance_count}\t"
            f"{len(report.solutions)}\t{report.inequivalent_count}\n"
        )
    with open(os.path.join(out_dir, "stats.tsv"), "w") as f:
        f.write("\t".join(("instance",) + COUNTERS) + "\n")
        for s in report.instance_stats:
            f.write("\t".join([s["id"]] + [str(s[k]) for k in COUNTERS]) + "\n")
    if cfg.dump_cnf:
        cnf_dir = os.path.join(out_dir, "instances")
        os.makedirs(cnf_dir, exist_ok=True)
        for iid, rows in tasks:
            with open(os.path.join(cnf_dir, f"{iid}.cnf"), "w") as f:
                f.write(satgen.export_dimacs(satgen.build_instance(rows, cfg.n)))


# -- subcommands -------------------------------------------------------------


def _read_quadruples(path) -> list:
    """The quadruple blocks of the file at path, or of stdin when path is None."""
    if path is None:
        return seqcore.read_quadruples(sys.stdin)
    with open(path) as f:
        return seqcore.read_quadruples(f)


def cmd_enumerate(args) -> int:
    cfg = RunConfig(
        n=args.order,
        workers=args.workers,
        out_dir=args.out,
        matcher_budget_bytes=args.budget_bytes,
        dump_cnf=args.dump_cnf,
    )
    report = run_enumeration(cfg)
    print(
        f"n={report.n}\tinstances={report.instance_count}\t"
        f"solutions={len(report.solutions)}\tinequivalent={report.inequivalent_count}\t"
        f"seconds={report.elapsed:.2f}"
    )
    return 0


def cmd_verify(args) -> int:
    quadruples = _read_quadruples(args.file)
    if not quadruples:
        raise DomainError(f"{args.file} holds no quadruple blocks")
    ok = True
    for i, q in enumerate(quadruples, start=1):
        verdict = verify_williamson(q)
        ok = ok and verdict
        print(f"block {i}\torder {q.order}\t{'WILLIAMSON' if verdict else 'NOT-WILLIAMSON'}")
    return 0 if ok else 1


def cmd_decompose(args) -> int:
    for dec in decompose_four_squares(args.order):
        print(" ".join(str(v) for v in dec))
    return 0


def cmd_canonicalize(args) -> int:
    canon = [equivalence.canonical_form(q) for q in _read_quadruples(args.file)]
    seqcore.write_blocks(sys.stdout, (q.members for q in canon))
    return 0


def cmd_oracle(args) -> int:
    qs = oracle.brute_force_enumerate(args.order)
    classes = equivalence.dedupe(qs)
    print(f"n={args.order}\tquadruples={len(qs)}\tinequivalent={len(classes)}")
    for q in classes:
        print()
        print(seqcore.format_block(q.members))
    return 0


def cmd_double(args) -> int:
    doubled = [constructions.double(q) for q in _read_quadruples(args.file)]
    seqcore.write_blocks(sys.stdout, (q.members for q in doubled))
    return 0


def cmd_extract8(args) -> int:
    octs = [constructions.extract_eight_williamson(q) for q in _read_quadruples(args.file)]
    seqcore.write_blocks(sys.stdout, octs)
    return 0


def cmd_hadamard(args) -> int:
    for i, q in enumerate(_read_quadruples(args.file), start=1):
        h = constructions.assemble_hadamard(q)
        print(f"block {i}\thadamard order {len(h)}\tverified")
        if args.print_matrix:
            for row in h:
                print("".join("+" if v == 1 else "-" for v in row))
    return 0


def cmd_stats(args) -> int:
    path = os.path.join(args.rundir, "summary.tsv")
    with open(path) as f:
        sys.stdout.write(f.read())
    stats_path = os.path.join(args.rundir, "stats.tsv")
    if os.path.exists(stats_path):
        totals = dict.fromkeys(COUNTERS, 0)
        with open(stats_path) as f:
            header = f.readline().strip().split("\t")
            missing = [k for k in totals if k not in header]
            if missing:
                raise DomainError(f"{stats_path} has no column {missing[0]!r}; rerun to rewrite it")
            for lineno, line in enumerate(f, start=2):
                row = dict(zip(header, line.strip().split("\t")))
                try:
                    values = [int(row[k]) for k in totals]
                except (KeyError, ValueError):
                    raise DomainError(f"{stats_path}: line {lineno} needs integer fields "
                                      f"{', '.join(totals)}") from None
                for k, v in zip(totals, values):
                    totals[k] += v
        print("\t".join(f"total_{k}={v}" for k, v in totals.items()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="williamson",
        description="Exhaustive enumeration of Williamson sequences of orders divisible by 2 or 3",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="run the full pipeline for one order")
    p.add_argument("--order", "-n", type=int, required=True)
    p.add_argument("--workers", "-j", type=int, default=1)
    p.add_argument("--out", "-o", default=None, help="run directory (enables checkpointing)")
    p.add_argument("--budget-bytes", type=int, default=DEFAULT_BUDGET_BYTES,
                   help="bytes of key records the matcher holds for one join; more are joined "
                        "in hash partitions, each generating the pairs again")
    p.add_argument("--dump-cnf", action="store_true", help="write instances/*.cnf DIMACS dumps")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify", help="verify quadruple blocks in a file")
    p.add_argument("file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("decompose", help="print rowsum decompositions of 4n")
    p.add_argument("order", type=int)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("canonicalize", help="print canonical forms of quadruple blocks")
    p.add_argument("file", nargs="?", default=None)
    p.set_defaults(func=cmd_canonicalize)

    p = sub.add_parser("oracle", help="brute-force enumeration for small orders")
    p.add_argument("--order", "-n", type=int, required=True)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("double", help="double odd-order Williamson quadruples")
    p.add_argument("file")
    p.set_defaults(func=cmd_double)

    p = sub.add_parser("extract8", help="extract 8-Williamson sequences from order-2n quadruples")
    p.add_argument("file")
    p.set_defaults(func=cmd_extract8)

    p = sub.add_parser("hadamard", help="assemble and verify Hadamard matrices")
    p.add_argument("file")
    p.add_argument("--print-matrix", action="store_true")
    p.set_defaults(func=cmd_hadamard)

    p = sub.add_parser("stats", help="print the summary of a run directory")
    p.add_argument("rundir")
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed reader shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader took what it wanted (`| head`): not an error; stdout goes
        # to devnull so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (DomainError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
