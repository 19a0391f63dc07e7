"""Command-line front end.

Subcommands: fuse (enumerate one fusion's outcome tree), verify (dense
cross-check sweep), plan (cost tables), error (readout operating point),
campaign (Monte-Carlo seed consumption); ``--version`` prints the package
version.  Exit codes: 0 on success, 1 when verification fails, 2 on usage
errors, 3 on an internal error (an uncaught exception, reported as one
``error: internal:`` line on stderr), 141 when the reader closes stdout early
(as a shell reports a tool killed by SIGPIPE; nothing goes to stderr).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import traceback
from pathlib import Path

import numpy as np

from . import __version__, planner
from .homodyne import discrimination_report
from .optics import ProbeConfig
from .oracle import (
    DenseState,
    MAX_QUBITS,
    brute_force_pipeline,
    embed_register_state,
    expand_symbolic,
    fidelity,
    make_w_state,
)
from .planner import MAX_PLAN_SIZE, cost_tables_csv, plot_data, run_campaign
from .protocol import LeafKind, run_fusion

DEFAULT_ALPHA = 90000.0
DEFAULT_THETA = 0.01
SEED_ENV_VAR = "WFUSE_SEED"
FIDELITY_TOL = 1e-10
EXIT_BROKEN_PIPE = 141


def _err(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def _print_doc(obj) -> None:
    print(json.dumps(obj, indent=2))


def cmd_fuse(args) -> int:
    if args.n < 2 or args.m < 2:
        _err("n and m must be >= 2")
        return 2
    tree = run_fusion(args.n, args.m)
    if args.format == "json":
        _print_doc(tree.to_json_obj())
    else:
        print("class,sizes,cumProb")
        for leaf in tree.leaves:
            cls = leaf.classification
            sizes = "+".join(str(s) for s in cls.sizes)
            print(f"{cls.kind.value},{sizes},{leaf.probability:.12g}")
    return 0


def _verify_case(n: int, m: int, inject_fault: bool):
    tree = run_fusion(n, m)
    dense = brute_force_pipeline(n, m)
    q = n + m

    success_vec = expand_symbolic(tree.leaf(LeafKind.SUCCESS).state)
    if inject_fault:
        corrupted = success_vec.amplitudes.copy()
        hot = int(np.argmax(np.abs(corrupted)))
        corrupted[hot] = -corrupted[hot]
        success_vec = DenseState(q, corrupted)
    fid_success = min(
        fidelity(success_vec, make_w_state(q)),
        fidelity(success_vec, dense.success_state),
    )

    pair_vec = expand_symbolic(tree.leaf(LeafKind.RECYCLABLE_PAIR).state)
    fid_pair = fidelity(pair_vec, dense.pair_state)

    merged_vec = expand_symbolic(tree.leaf(LeafKind.RECYCLABLE_MERGED).state)
    expected_merged = embed_register_state(
        dense.merged_kept_state.amplitudes, n, m, True, True
    )
    fid_merged = fidelity(merged_vec, expected_merged)

    dprob = max(
        abs(tree.leaf(LeafKind.SUCCESS).probability - dense.success_probability),
        abs(tree.leaf(LeafKind.RECYCLABLE_PAIR).probability - dense.pair_probability),
        abs(
            tree.leaf(LeafKind.RECYCLABLE_MERGED).probability
            - dense.merged_probability
        ),
    )
    ok = (
        fid_success >= 1.0 - FIDELITY_TOL
        and fid_pair >= 1.0 - FIDELITY_TOL
        and fid_merged >= 1.0 - FIDELITY_TOL
        and dprob <= FIDELITY_TOL
    )
    return ok, fid_success, fid_pair, fid_merged, dprob


def cmd_verify(args) -> int:
    if not 4 <= args.max <= MAX_QUBITS:
        _err(f"--max must be in 4..{MAX_QUBITS} total photons")
        return 2
    cases = [
        (n, m)
        for n in range(2, args.max - 1)
        for m in range(2, args.max - 1)
        if n + m <= args.max
    ]
    failures = 0
    first = True
    for n, m in cases:
        inject = args.inject_fault and first
        first = False
        ok, fs, fp, fm, dp = _verify_case(n, m, inject)
        status = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        print(
            f"n={n} m={m} success={fs:.12f} pair={fp:.12f} "
            f"merged={fm:.12f} dprob={dp:.3e} {status}"
        )
    if failures:
        print(f"verified {len(cases)} cases: {failures} FAILED")
        return 1
    print(f"verified {len(cases)} cases: all PASS")
    return 0


def cmd_plan(args) -> int:
    seeds = args.seed if args.seed else [2]
    if any(s < 2 for s in seeds):
        _err("seed sizes must be >= 2")
        return 2
    if not 0 < args.seed_cost < math.inf:
        _err("seed cost must be positive and finite")
        return 2
    if not 2 <= args.max <= MAX_PLAN_SIZE:
        _err(f"--max must be in 2..{MAX_PLAN_SIZE}")
        return 2
    # looked up on the module, so a patched planner.optimal_costs (as in the
    # benchmark's tracer) sees these calls too
    tables = [planner.optimal_costs(s, args.seed_cost, args.max) for s in seeds]
    for table in tables:
        if not table.entries:
            print(
                f"note: no sizes reachable from seed {table.seed_size} "
                f"within max {args.max}",
                file=sys.stderr,
            )
    try:
        csv_text = cost_tables_csv(tables)
    except OverflowError:
        _err("costs overflow a float; lower --seed-cost")
        return 2
    if args.out:
        # written before stdout, so a failed write leaves no partial output
        out = Path(args.out)
        try:
            out.write_text(csv_text)
            try:
                out.with_suffix(".dat").write_text(plot_data(tables))
            except OSError:
                out.unlink()  # the .csv is kept only next to its .dat
                raise
        except OSError as exc:
            _err(f"cannot write {exc.filename}: {exc.strerror}")
            return 2
    sys.stdout.write(csv_text)
    return 0


def cmd_error(args) -> int:
    try:
        report = discrimination_report(ProbeConfig(args.alpha, args.theta))
    except ValueError as exc:
        _err(str(exc))
        return 2
    _print_doc(report.to_json_obj())
    return 0


def cmd_campaign(args) -> int:
    if not 2 <= args.target <= MAX_PLAN_SIZE:
        _err(f"--target must be in 2..{MAX_PLAN_SIZE}")
        return 2
    if args.seed_size < 2:
        _err("--seed-size must be >= 2")
        return 2
    if args.trials < 1:
        _err("--trials must be >= 1")
        return 2
    rng_seed = args.rng
    if rng_seed is None:
        raw = os.environ.get(SEED_ENV_VAR, "0")
        try:
            rng_seed = int(raw)
        except ValueError:
            _err(f"${SEED_ENV_VAR} must be an integer, got {raw!r}")
            return 2
    try:
        result = run_campaign(
            args.target, args.seed_size, args.trials, args.recycling, rng_seed
        )
    except ValueError as exc:
        _err(str(exc))
        return 2
    _print_doc(result.to_json_obj())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wfuse",
        description="simulate and plan loss-free fusion of polarization W states",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fuse = sub.add_parser("fuse", help="enumerate one fusion's outcome tree")
    p_fuse.add_argument("-n", type=int, required=True, help="size of the first W state")
    p_fuse.add_argument("-m", type=int, required=True, help="size of the second W state")
    p_fuse.add_argument("--format", choices=["json", "csv"], default="json")
    p_fuse.set_defaults(func=cmd_fuse)

    p_verify = sub.add_parser("verify", help="dense cross-check sweep")
    p_verify.add_argument(
        "--max", type=int, default=8, help="largest total photon number to check"
    )
    p_verify.add_argument(
        "--inject-fault", action="store_true", help=argparse.SUPPRESS
    )
    p_verify.set_defaults(func=cmd_verify)

    p_plan = sub.add_parser("plan", help="optimal cost tables")
    p_plan.add_argument(
        "--seed", type=int, action="append", help="seed size (repeatable)"
    )
    p_plan.add_argument("--seed-cost", type=float, default=1.0)
    p_plan.add_argument("--max", type=int, default=50)
    p_plan.add_argument("--out", help="write CSV here and plot data alongside")
    p_plan.set_defaults(func=cmd_plan)

    p_error = sub.add_parser("error", help="readout operating point")
    p_error.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    p_error.add_argument("--theta", type=float, default=DEFAULT_THETA)
    p_error.set_defaults(func=cmd_error)

    p_campaign = sub.add_parser("campaign", help="Monte-Carlo seed consumption")
    p_campaign.add_argument("--target", type=int, required=True)
    p_campaign.add_argument("--seed-size", type=int, default=2)
    p_campaign.add_argument("--trials", type=int, default=10000)
    p_campaign.add_argument("--recycling", action="store_true")
    p_campaign.add_argument(
        "--rng", type=int, help=f"rng seed (default from ${SEED_ENV_VAR} or 0)"
    )
    p_campaign.set_defaults(func=cmd_campaign)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        code = args.func(args)
        # flushed here, so a closed pipe is caught below and not left to the
        # interpreter's exit flush
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader stopped early, which is no fault of this program; what
        # is still buffered goes to devnull, so the exit flush stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except Exception as exc:
        # one line, so stderr stays parseable; the innermost frame says where
        where = traceback.extract_tb(exc.__traceback__)[-1]
        _err(f"internal: {exc!r} at {Path(where.filename).name}:{where.lineno}")
        return 3


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
