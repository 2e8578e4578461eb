"""Command-line front end: statistics, evaluations, tables, verification.

Output is deterministic: byte-identical across runs and across worker
counts.  Exit codes: 0 success, 1 identity violation, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import itertools
import os
import sys
from math import factorial

from . import engine, identities, perm
from .qpoly import QPoly, Truncation, canonical_json, schur_principal_jt
from .tableaux import StandardTableau, hook_length_count, partition, partitions, standard_tableaux


def parse_partition_arg(text: str) -> tuple[int, ...]:
    try:
        return partition(int(x) for x in text.split(","))
    except ValueError as err:
        raise ValueError(f"bad partition {text!r}: {err}") from err


def parse_perm_token(token: str) -> tuple[int, ...]:
    if "," in token:
        word = [int(x) for x in token.split(",")]
    else:
        word = [int(ch) for ch in token]
    return perm.perm(word)


def parse_perms_arg(text: str) -> tuple[tuple[int, ...], ...]:
    """Comma-separated digit strings, or semicolon-separated comma lists."""
    if not text:
        return ()
    if ";" in text:
        tokens = text.split(";")
        if not tokens[-1]:
            tokens.pop()
    else:
        tokens = text.split(",")
    return tuple(parse_perm_token(tok) for tok in tokens)


def parse_set_arg(text: str) -> frozenset[int]:
    if not text:
        return frozenset()
    return frozenset(int(x) for x in text.split(","))


def parse_tableau_arg(text: str) -> StandardTableau:
    rows = [[int(x) for x in row.split(",")] for row in text.split("/")]
    return StandardTableau(rows)


def _format_seq(seq: tuple[int, ...]) -> str:
    if len(seq) == 1:
        return str(seq[0])
    if all(0 <= x <= 9 for x in seq):
        return "".join(str(x) for x in seq)
    return "(" + ",".join(str(x) for x in seq) + ")"


def _format_perm(word: tuple[int, ...]) -> str:
    if len(word) <= 9:
        return "".join(str(v) for v in word)
    return ",".join(str(v) for v in word)


def _format_set(values) -> str:
    return "{" + ",".join(str(v) for v in sorted(values)) + "}"


def _open_output(path: str | None):
    """The -o file, opened before any work is done, or a stand-in when there is none."""
    try:
        return open(path, "w", encoding="utf-8", newline="") if path else contextlib.nullcontext()
    except OSError as err:
        raise ValueError(f"cannot write {path}: {err.strerror}") from err


def _emit(text: str, out) -> None:
    if out is not None:
        out.write(text)
    sys.stdout.write(text)


def cmd_stat(args, out) -> int:
    shape = parse_partition_arg(args.shape)
    sigmas = parse_perms_arg(args.perms)
    if args.tableau:
        T = parse_tableau_arg(args.tableau)
        if T.shape != shape:
            raise ValueError(f"tableau shape {T.shape} does not match {shape}")
    else:
        candidates = standard_tableaux(shape)
        if len(candidates) != 1:
            raise ValueError(
                f"shape {args.shape} has {len(candidates)} standard tableaux; "
                "pass --tableau to pick one"
            )
        T = candidates[0]
    n = T.n
    R = T.descent_set()
    steps = [
        {"sigma": list(sigma), "descents": positions, "comaj": sum(n - i for i in positions),
         "chain": [list(s) for s in S]}
        for sigma, (positions, S) in zip(
            (*sigmas, perm.identity(n)), engine.chain_steps(R, n, sigmas)
        )
    ]
    components = [step["comaj"] for step in steps]
    weight = engine.seq_weight(steps[-1]["chain"], len(steps))
    if args.format == "json":
        obj = {
            "shape": list(shape),
            "tableau": [list(r) for r in T.rows],
            "descent_set": sorted(R),
            "steps": steps,
            "components": components,
            "weight": list(weight),
            "total": sum(components),
        }
        _emit(canonical_json(obj) + "\n", out)
        return 0
    lines = [
        f"shape: {','.join(str(p) for p in shape)}",
        "tableau rows (bottom to top): " + " / ".join(
            ",".join(str(v) for v in row) for row in T.rows
        ),
        f"descent set R: {_format_set(R)}",
    ]
    for idx, step in enumerate(steps, start=1):
        lines.append(
            f"step {idx}: sigma = {_format_perm(step['sigma'])}  "
            f"descents = {_format_set(step['descents'])}  comaj = {step['comaj']}"
        )
        lines.append(
            f"  Z^{idx} = (" + ", ".join(_format_seq(s) for s in step["chain"]) + ")"
        )
    lines.append(
        "weight: " + " ".join(f"q{i + 1}^{e}" for i, e in enumerate(weight))
    )
    lines.append(f"total: {sum(components)}")
    _emit("\n".join(lines) + "\n", out)
    return 0


def _poly_csv(poly: QPoly) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([f"e{i + 1}" for i in range(poly.k)] + ["c"])
    for e, c in poly.graded_items():
        writer.writerow(list(e) + [str(c)])
    return buf.getvalue()


def cmd_evaluate(args, out) -> int:
    if args.target == "schur":
        lam = parse_partition_arg(args.lambda_)
        n = sum(lam)
        poly = identities.schur_comaj_polynomial(lam, args.k)
    elif args.target == "fundamental":
        n = args.n
        poly = identities.fundamental_comaj_polynomial(parse_set_arg(args.r_set), n, args.k)
    else:  # schur-jt
        lam = parse_partition_arg(args.lambda_)
        if args.D is None:
            raise ValueError("schur-jt is a truncated series; pass --D")
        poly = schur_principal_jt(lam, Truncation(args.k, args.D))
    if args.target != "schur-jt" and args.D is not None:
        bound = identities.exact_degree_bound(n, args.k)
        if args.D < bound:
            raise ValueError(f"D={args.D} is below the exact bound {bound}")
        poly = poly.rebound(args.D)
    if args.format == "csv":
        _emit(_poly_csv(poly), out)
    else:
        _emit(poly.to_json() + "\n", out)
    return 0


def cmd_multiplicity(args, out) -> int:
    n, k = args.n, args.k
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    bound = identities.exact_degree_bound(n, k)
    rows = []
    weighted_total = 0
    for lam in partitions(n):
        poly = identities.graded_multiplicity_comaj(lam, k)
        coeffs = [poly.coeff((d,)) for d in range(bound + 1)]
        rows.append((lam, coeffs))
        weighted_total += hook_length_count(lam) * sum(coeffs)
    expected = factorial(n) ** k
    if args.format == "json":
        obj = {
            "n": n,
            "k": k,
            "rows": [
                {"lambda": list(lam), "coeffs": coeffs} for lam, coeffs in rows
            ],
            "weighted_total_at_one": weighted_total,
            "expected_dimension": expected,
        }
        _emit(canonical_json(obj) + "\n", out)
        return 0
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["lambda"] + [f"q^{d}" for d in range(bound + 1)])
    for lam, coeffs in rows:
        writer.writerow([",".join(str(p) for p in lam)] + coeffs)
    writer.writerow(
        ["TOTAL[q=1]", weighted_total, expected, "ok" if weighted_total == expected else "MISMATCH"]
    )
    _emit(buf.getvalue(), out)
    return 0


def _all_subsets(n: int):
    for size in range(n):
        for combo in itertools.combinations(range(1, n), size):
            yield frozenset(combo)


def _positive(name: str, value: int) -> int:
    """The value, which must be at least 1."""
    if value < 1:
        raise ValueError(f"need {name} >= 1, got {value}")
    return value


def _given_or_range(name: str, value: int | None, top: int) -> list[int]:
    """[value] when the option was given (it must be at least 1), else 1..top."""
    return list(range(1, top + 1)) if value is None else [_positive(name, value)]


def _ns(args) -> list[int]:
    return _given_or_range("n", args.n, args.max_n)


def _ks(args) -> list[int]:
    return _given_or_range("k", args.k, args.max_k)


def _lams(args) -> list[tuple[int, ...]]:
    if args.lambda_ is not None:
        return [parse_partition_arg(args.lambda_)]
    return [lam for n in _ns(args) for lam in partitions(n)]


def _rsets(args, n: int) -> list[frozenset[int]]:
    return list(_all_subsets(n)) if args.r_set is None else [parse_set_arg(args.r_set)]


PROP41_BOUND = 4  # prop41's entry bound when --bound is not given

# Suite name -> (the identities.verify_* function that runs its tasks, the
# options without a default that the suite reads, that function's argument
# tuples for the parsed options), in the order "all" runs the suites.  The
# function is looked up by name when a task runs, so a module attribute
# replaced after import is the one called.
SUITES = {
    "finite": ("verify_finite_evaluation", {"lambda_", "n", "k", "D"}, lambda a: (
        (lam, k, None if a.D is None else Truncation(k, a.D))
        for lam in _lams(a) for k in _ks(a)
    )),
    "kronecker": ("verify_kronecker_multiplicity", {"lambda_", "n", "k"}, lambda a: (
        (lam, k) for lam in _lams(a) for k in _ks(a)
    )),
    "quasi": ("verify_fundamental_evaluation", {"n", "r_set", "k", "D"}, lambda a: (
        (R, n, k, None if a.D is None else Truncation(k, a.D))
        for n in _ns(a) for R in _rsets(a, n) for k in _ks(a)
    )),
    "row": ("verify_row_case", {"n", "k"}, lambda a: (
        (n, k) for n in _ns(a) for k in _ks(a)
    )),
    "prop41": ("verify_injection_recursion", {"n", "r", "r_set", "bound"}, lambda a: (
        (R, n, target, sigma, r, PROP41_BOUND if a.bound is None else a.bound)
        for n in _ns(a) if n >= 2
        for r in ([a.r] if a.r is not None else [1, 2])
        for R in _rsets(a, n)
        for target in _all_subsets(n)
        for sigma in perm.symmetric_group(n)
    )),
    "reindex": ("verify_variable_reindex", {"lambda_", "n", "m"}, lambda a: (
        (lam, m) for lam in _lams(a)
        for m in ([a.m] if a.m is not None else range(1, max(a.max_k, 2)))
    )),
}


def _block_key(task):
    """A pool block's key: a prop41 task's bucket table (R, n, r, bound), else a key of its own."""
    return task[1][:2] + task[1][4:] if task[0] == "verify_injection_recursion" else object()


# Each verify option without a default, by its attribute name: (flag, type, help).
_OPTIONS = {"lambda_": ("--lambda", None, None), "n": ("--n", int, None), "k": ("--k", int, None),
            "m": ("--m", int, None), "r": ("--r", int, None), "r_set": ("--r-set", None, None),
            "bound": ("--bound", int, f"prop41 entry bound (default {PROP41_BOUND})"),
            "D": ("--D", int, None)}


def _check_options(args) -> None:
    """Refuse an option the one named suite would drop unread."""
    if args.suite == "all":
        return
    reads = SUITES[args.suite][1]
    for dest, (flag, _, _) in _OPTIONS.items():
        if getattr(args, dest) is not None and dest not in reads:
            raise ValueError(f"verify {args.suite} does not read {flag}")
    if args.lambda_ is not None and args.n is not None:
        raise ValueError(f"verify {args.suite} does not read --n next to --lambda")


def _verify_tasks(args):
    """(verify function name, its arguments) for every report, in stream order.

    The tasks are drawn lazily, but every suite run must select a task, so
    each suite's first one is drawn before any is returned: ``all`` drops
    no suite silently, and an option a suite refuses stops the run before
    its first report.
    """
    streams = []
    for suite in SUITES if args.suite == "all" else (args.suite,):
        name, _, payloads = SUITES[suite]
        payloads = iter(payloads(args))
        first = next(payloads, None)
        if first is None:
            raise ValueError(f"verify {suite} selects no task")
        streams.append(zip(itertools.repeat(name), itertools.chain((first,), payloads)))
    return itertools.chain.from_iterable(streams)


def _run_verify_task(task) -> tuple[bool, str]:
    """Whether the task's report passed, and its JSON line."""
    name, payload = task
    report = getattr(identities, name)(*payload)
    return report.passed, report.to_json_line()


def _run_block(tasks) -> tuple[bool, str]:
    """Whether every report of the block passed, and their lines joined by newlines."""
    oks, lines = zip(*map(_run_verify_task, tasks))
    return all(oks), "\n".join(lines)


def cmd_verify(args, out) -> int:
    _check_options(args)
    _positive("max-n", args.max_n)
    _positive("max-k", args.max_k)
    workers = min(_positive("jobs", args.jobs), os.cpu_count() or 1)
    tasks = _verify_tasks(args)
    passed = True
    with contextlib.ExitStack() as stack:
        results = map(_run_verify_task, tasks)
        if workers > 1:
            blocks = (list(group) for _, group in itertools.groupby(tasks, _block_key))
            head = list(itertools.islice(blocks, workers))  # no more workers than blocks
            from multiprocessing import Pool  # imported here: only a pool needs it
            pool = stack.enter_context(Pool(len(head)))
            # imap draws the blocks lazily and yields each block's lines in task order
            results = pool.imap(_run_block, itertools.chain(head, blocks))
        for ok, line in results:
            _emit(line + "\n", out)
            passed = passed and ok
    return 0 if passed else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process; callers must not change it."""
    parser = argparse.ArgumentParser(
        prog="comaj",
        description="Generalized comaj statistics and identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_stat = sub.add_parser("stat", help="trace a label chain for one tableau")
    p_stat.add_argument("--shape", required=True, help="partition, e.g. 4,2,1")
    p_stat.add_argument(
        "--tableau",
        help="rows bottom to top separated by '/', entries by ',' (e.g. 1,2,4,5/3,6/7)",
    )
    p_stat.add_argument(
        "--perms",
        required=True,
        help="permutation vector; digit strings separated by ',' "
        "(or comma lists separated by ';' for n > 9); empty for none",
    )
    p_stat.add_argument("--format", choices=("text", "json"), default="text")
    p_stat.set_defaults(handler=cmd_stat)

    p_eval = sub.add_parser("evaluate", help="write one polynomial")
    eval_sub = p_eval.add_subparsers(dest="target", required=True)
    for target in ("schur", "schur-jt", "fundamental"):
        p = eval_sub.add_parser(target)
        if target == "fundamental":
            p.add_argument("--n", type=int, required=True)
            p.add_argument("--r-set", dest="r_set", default="")
        else:
            p.add_argument("--lambda", dest="lambda_", required=True)
        p.add_argument("--k", type=int, default=1)
        p.add_argument("--D", type=int)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.set_defaults(handler=cmd_evaluate)

    p_mult = sub.add_parser("multiplicity", help="graded multiplicity table")
    p_mult.add_argument("--n", type=int, required=True)
    p_mult.add_argument("--k", type=int, required=True)
    p_mult.add_argument("--format", choices=("csv", "json"), default="csv")
    p_mult.set_defaults(handler=cmd_multiplicity)

    p_verify = sub.add_parser("verify", help="run identity suites")
    p_verify.add_argument("suite", choices=(*SUITES, "all"))
    p_verify.add_argument("--max-n", dest="max_n", type=int, default=3)
    p_verify.add_argument("--max-k", dest="max_k", type=int, default=2)
    for dest, (flag, type_, help_) in _OPTIONS.items():
        p_verify.add_argument(flag, dest=dest, type=type_, help=help_)
    p_verify.add_argument("--jobs", type=int, default=1)
    p_verify.set_defaults(handler=cmd_verify)

    for command in (p_stat, *eval_sub.choices.values(), p_mult, p_verify):
        command.add_argument("-o", "--output")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with _open_output(args.output) as out:
            return args.handler(args, out)
    except (ValueError, ArithmeticError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
