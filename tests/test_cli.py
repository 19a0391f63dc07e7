"""End-to-end tests of the command-line front end.

Each invocation goes through main(argv) so the tests cover the same code path
as the installed console script, minus the process boundary.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import wfuse
from wfuse.cli import main
from wfuse.protocol import LeafKind, run_fusion

from record_contract import ENV_SET, ENV_UNSET, corpus_argvs, read_corpus, record


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# fuse
# ---------------------------------------------------------------------------


def test_fuse_json_document(capsys):
    code, out, err = run_cli(capsys, ["fuse", "-n", "3", "-m", "2"])
    assert code == 0
    assert err == ""
    doc = json.loads(out)
    assert doc["n"] == 3 and doc["m"] == 2
    leaves = {leaf["class"]: leaf for leaf in doc["leaves"]}
    assert leaves["success"]["cumProb"] == pytest.approx(5 / 12, abs=1e-12)
    assert leaves["success"]["sizes"] == [5]
    assert leaves["recyclable-pair"]["sizes"] == [2, 1]
    assert leaves["recyclable-merged"]["sizes"] == [3]
    assert len(doc["stages"]) == 4


def test_fuse_csv_table(capsys):
    code, out, err = run_cli(capsys, ["fuse", "-n", "3", "-m", "2", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "class,sizes,cumProb"
    assert lines[1] == "success,5,0.416666666667"
    assert lines[2].startswith("recyclable-pair,2+1,")
    assert lines[3].startswith("recyclable-merged,3,")
    assert out.endswith("\n")


def test_every_float_is_derived_from_the_exact_track(capsys):
    """Probabilities, term amplitudes and the CSV cumProb text are the exact
    values correctly rounded, with no float track of their own."""
    rng = random.Random(8)
    pairs = [(n, m) for n in range(2, 25) for m in range(2, 25)]
    pairs += [(rng.randint(2, 1000), rng.randint(2, 1000)) for _ in range(6)]
    for n, m in pairs:
        tree = run_fusion(n, m)
        branches = [br for st in tree.stages for br in st.branches]
        for rec in (*tree.leaves.values(), *branches):
            assert rec.probability == float(rec.probability_exact)
        leaves = tree.leaves.values()
        states = [lf.state for lf in leaves] + [br.post_state for br in branches]
        for t in (t for state in states for t in state.terms):
            sign = 1 if t.exact > 0 else -1
            assert t.amplitude == sign * math.sqrt(float(abs(t.exact)))
        code, out, _ = run_cli(
            capsys, ["fuse", "-n", str(n), "-m", str(m), "--format", "csv"]
        )
        assert code == 0
        cum_probs = [line.rsplit(",", 1)[1] for line in out.splitlines()[1:]]
        assert cum_probs == [
            f"{float(lf.probability_exact):.12g}" for lf in leaves
        ]


def test_fuse_rejects_single_photon_register(capsys):
    code, out, err = run_cli(capsys, ["fuse", "-n", "1", "-m", "3"])
    assert code == 2
    assert out == ""
    assert "must be >= 2" in err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_sweep_passes(capsys):
    code, out, err = run_cli(capsys, ["verify", "--max", "6"])
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "verified 6 cases: all PASS"
    for line in lines[:-1]:
        assert line.endswith("PASS")
        assert "dprob=" in line


def test_verify_detects_injected_fault(capsys):
    code, out, err = run_cli(capsys, ["verify", "--max", "6", "--inject-fault"])
    assert code == 1
    lines = out.splitlines()
    assert lines[0].endswith("FAIL")
    assert all(line.endswith("PASS") for line in lines[1:-1])
    assert lines[-1] == "verified 6 cases: 1 FAILED"


def test_verify_uses_no_blas_inner_product(capsys, monkeypatch):
    """vdot and dot on 2**q vectors run on BLAS's thread pool, which costs
    more CPU than it saves at these sizes; the oracle reduces with ufuncs."""

    def forbidden(*args, **kwargs):
        raise AssertionError("BLAS inner product called")

    for name in ("vdot", "dot", "inner"):
        monkeypatch.setattr(f"numpy.{name}", forbidden)
    code, out, err = run_cli(capsys, ["verify", "--max", "8"])
    assert code == 0
    assert err == ""
    assert out.splitlines()[-1] == "verified 15 cases: all PASS"


def test_verify_rejects_out_of_range_max(capsys):
    for bad in ("63", "100"):
        code, out, err = run_cli(capsys, ["verify", "--max", bad])
        assert code == 2
        assert out == ""
        assert "--max" in err


def test_verify_accepts_the_dense_limit(capsys, monkeypatch):
    """--max 62 runs every case up to 62 qubits; the sweep itself takes
    seconds, so a stub stands in for each case but the largest one."""
    assert wfuse.cli._verify_case(31, 31, False)[0]
    seen = []

    def passing_case(n, m, inject_fault):
        seen.append(n + m)
        return True, dict.fromkeys(LeafKind, 1.0), 0.0

    monkeypatch.setattr(wfuse.cli, "_verify_case", passing_case)
    code, out, err = run_cli(capsys, ["verify", "--max", "62"])
    assert code == 0
    assert err == ""
    assert out.splitlines()[-1] == "verified 1770 cases: all PASS"
    assert max(seen) == 62


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------


def test_plan_default_seed_csv(capsys):
    code, out, err = run_cli(capsys, ["plan", "--max", "8"])
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == "size,scheme,seed_size,seed_cost,opt_cost,split_k,split_rest"
    assert lines[1] == "2,qlf,2,1,1,,"
    assert lines[2] == "4,qlf,2,1,4,2,2"
    assert lines[3] == "6,qlf,2,1,13.3333333333,2,4"
    assert lines[4] == "8,qlf,2,1,32,4,4"


def test_plan_multiple_seeds(capsys):
    code, out, err = run_cli(
        capsys, ["plan", "--seed", "2", "--seed", "3", "--max", "9"]
    )
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    seeds = {row[2] for row in rows}
    assert seeds == {"2", "3"}
    triple_rows = {row[0]: row[4] for row in rows if row[2] == "3"}
    assert triple_rows == {"3": "1", "6": "6", "9": "28"}


def test_plan_writes_output_files(tmp_path, capsys):
    target = tmp_path / "costs.csv"
    code, out, err = run_cli(
        capsys, ["plan", "--max", "10", "--out", str(target)]
    )
    assert code == 0
    assert target.read_text() == out
    plot = (tmp_path / "costs.dat").read_text()
    assert plot.startswith("# scheme=qlf seed=2")


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_plan_unwritable_out_exits_2_before_stdout(tmp_path, capsys, where):
    target = tmp_path / "missing" / "x.csv" if where == "missing-dir" else tmp_path
    code, out, err = run_cli(capsys, ["plan", "--max", "8", "--out", str(target)])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {target}")
    assert len(err.splitlines()) == 1


def test_plan_unwritable_dat_leaves_no_csv(tmp_path, capsys):
    (tmp_path / "x.dat").mkdir()
    target = tmp_path / "x.csv"
    code, out, err = run_cli(capsys, ["plan", "--max", "8", "--out", str(target)])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {tmp_path / 'x.dat'}")
    assert len(err.splitlines()) == 1
    assert not target.exists()


def test_plan_rejects_out_that_its_plot_data_would_overwrite(tmp_path, capsys):
    target = tmp_path / "costs.dat"
    code, out, err = run_cli(capsys, ["plan", "--max", "6", "--out", str(target)])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: --out {target}") and len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("out", ["/", ".", ""], ids=["root", "dot", "empty"])
def test_plan_rejects_out_that_names_no_file(tmp_path, capsys, monkeypatch, out):
    monkeypatch.chdir(tmp_path)
    code, stdout, err = run_cli(capsys, ["plan", "--max", "4", "--out", out])
    assert (code, stdout) == (2, "")
    assert err == f"error: --out must name a file, got {out!r}\n"
    assert list(tmp_path.iterdir()) == []


def test_plan_unreachable_seed_notes_on_stderr(capsys):
    code, out, err = run_cli(capsys, ["plan", "--seed", "7", "--max", "6"])
    assert code == 0
    assert out.splitlines() == [
        "size,scheme,seed_size,seed_cost,opt_cost,split_k,split_rest"
    ]
    assert "note: no sizes reachable from seed 7 within max 6" in err


def test_plan_rejects_bad_seed(capsys):
    code, out, err = run_cli(capsys, ["plan", "--seed", "1"])
    assert code == 2
    assert "seed sizes must be >= 2" in err


def test_plan_has_no_scheme_option(capsys):
    code, out, err = run_cli(capsys, ["plan", "--scheme", "qlf"])
    assert code == 2
    assert out == ""


# ---------------------------------------------------------------------------
# error
# ---------------------------------------------------------------------------


def test_error_report_defaults(capsys):
    code, out, err = run_cli(capsys, ["error"])
    assert code == 0
    doc = json.loads(out)
    assert doc["alpha"] == 90000.0
    assert doc["theta"] == 0.01
    assert doc["pError"] == pytest.approx(3.4e-6, rel=0.15)
    assert doc["means"]["2"] < doc["threshold"] < doc["means"]["0"]


def test_error_rejects_nonpositive_alpha(capsys):
    code, out, err = run_cli(capsys, ["error", "--alpha", "-5"])
    assert code == 2
    assert err.startswith("error:")


# ---------------------------------------------------------------------------
# campaign
# ---------------------------------------------------------------------------


def test_campaign_json_document(capsys):
    code, out, err = run_cli(
        capsys,
        ["campaign", "--target", "4", "--trials", "2000", "--rng", "17"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["target"] == 4
    assert doc["trials"] == 2000
    assert doc["recycling"] is False
    assert 3.0 < doc["mean"] < 5.0


def test_campaign_seed_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("WFUSE_SEED", "99")
    _, out_env, _ = run_cli(
        capsys, ["campaign", "--target", "4", "--trials", "500"]
    )
    monkeypatch.delenv("WFUSE_SEED")
    _, out_flag, _ = run_cli(
        capsys, ["campaign", "--target", "4", "--trials", "500", "--rng", "99"]
    )
    assert out_env == out_flag


def test_campaign_single_trial_has_null_stderr(capsys):
    # one trial leaves the standard error undefined, not zero
    code, out, err = run_cli(
        capsys, ["campaign", "--target", "4", "--trials", "1", "--rng", "1"]
    )
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["trials"] == 1
    assert doc["stderr"] is None
    assert '"stderr": null' in out


def test_campaign_rejects_unreachable_target(capsys):
    code, out, err = run_cli(capsys, ["campaign", "--target", "5", "--trials", "10"])
    assert code == 2
    assert err.startswith("error:")


def test_campaign_target_over_cap_names_the_option(capsys):
    code, out, err = run_cli(capsys, ["campaign", "--target", "20000"])
    assert (code, out, err) == (2, "", "error: --target must be in 2..10000\n")


def test_campaign_trials_over_cap_names_the_option(capsys):
    argv = ["campaign", "--target", "2", "--trials", "10000001"]
    code, out, err = run_cli(capsys, argv)
    assert (code, out, err) == (2, "", "error: --trials must be in 1..10000000\n")


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_campaign_trials_under_one_names_the_same_range(capsys, trials):
    argv = ["campaign", "--target", "4", "--trials", trials]
    code, out, err = run_cli(capsys, argv)
    assert (code, out, err) == (2, "", "error: --trials must be in 1..10000000\n")


def test_bad_seed_environment_only_affects_campaign(capsys, monkeypatch):
    monkeypatch.setenv("WFUSE_SEED", "abc")
    code, _, err = run_cli(capsys, ["fuse", "-n", "2", "-m", "2"])
    assert code == 0 and err == ""
    code, out, err = run_cli(capsys, ["campaign", "--target", "4", "--trials", "10"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1
    code, _, _ = run_cli(
        capsys, ["campaign", "--target", "4", "--trials", "10", "--rng", "1"]
    )
    assert code == 0


def test_negative_rng_flag_names_the_flag(capsys):
    code, out, err = run_cli(
        capsys, ["campaign", "--target", "4", "--trials", "10", "--rng", "-1"]
    )
    assert (code, out, err) == (2, "", "error: --rng must be >= 0, got -1\n")


def test_negative_seed_environment_names_the_variable(capsys, monkeypatch):
    monkeypatch.setenv("WFUSE_SEED", "-1")
    code, out, err = run_cli(capsys, ["campaign", "--target", "4", "--trials", "10"])
    assert (code, out, err) == (2, "", "error: $WFUSE_SEED must be >= 0, got -1\n")


# ---------------------------------------------------------------------------
# bad inputs: exit 2 with one error line, never a crash
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["plan", "--max", "20000"],
        ["plan", "--seed-cost", "nan"],
        ["plan", "--seed-cost", "inf"],
        ["plan", "--seed-cost", "1e308", "--max", "8"],
        ["error", "--alpha", "inf"],
        ["error", "--alpha", "1e308"],
        ["campaign", "--target", "20000"],
    ],
    ids=[
        "plan-max-over-cap",
        "plan-seed-cost-nan",
        "plan-seed-cost-inf",
        "plan-cost-overflow",
        "error-alpha-inf",
        "error-alpha-overflow",
        "campaign-target-over-cap",
    ],
)
def test_bad_input_exits_2_with_one_error_line(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_internal_error_exits_3_with_one_error_line(capsys, monkeypatch):
    def crash(n, m):
        raise RuntimeError("first line\nsecond line")

    monkeypatch.setattr("wfuse.cli.run_fusion", crash)
    code, out, err = run_cli(capsys, ["fuse", "-n", "3", "-m", "2"])
    assert code == 3
    assert out == ""
    assert err.startswith("error: internal:") and len(err.splitlines()) == 1


def test_base_exceptions_pass_through_main(monkeypatch):
    def interrupt(n, m):
        raise KeyboardInterrupt

    monkeypatch.setattr("wfuse.cli.run_fusion", interrupt)
    with pytest.raises(KeyboardInterrupt):
        main(["fuse", "-n", "3", "-m", "2"])


def test_command_system_exit_passes_through_main(monkeypatch):
    # main returns the code of argparse's own exits, --help and --version,
    # but leaves a command's SystemExit alone
    def leave(n, m):
        raise SystemExit(7)

    monkeypatch.setattr("wfuse.cli.run_fusion", leave)
    with pytest.raises(SystemExit) as exc:
        main(["fuse", "-n", "3", "-m", "2"])
    assert exc.value.code == 7


@pytest.mark.parametrize("columns", ["40", "80", "200"])
def test_argparse_error_is_one_line_at_any_width(capsys, monkeypatch, columns):
    monkeypatch.setenv("COLUMNS", columns)
    code, out, err = run_cli(capsys, ["campaign", "--target", "x"])
    assert (code, out) == (2, "")
    assert err == "error: argument --target: invalid int value: 'x'\n"


@pytest.mark.parametrize(
    "argv",
    [["fuse", "-n", "3", "-m", "2", "--format", "csv"], ["verify", "--max", "6"]],
    ids=["fuse-csv", "verify"],
)
def test_closed_stdout_exits_141_quietly(argv):
    # a real process whose stdout is a pipe with its read end already closed
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONPATH": str(Path(wfuse.__file__).parents[1])}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "wfuse.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""


# ---------------------------------------------------------------------------
# determinism across repeated invocations
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["fuse", "-n", "4", "-m", "3"],
        ["fuse", "-n", "2", "-m", "2", "--format", "csv"],
        ["plan", "--seed", "2", "--seed", "3", "--max", "20"],
        ["error", "--alpha", "50000", "--theta", "0.02"],
        ["campaign", "--target", "8", "--trials", "1000", "--rng", "7"],
    ],
    ids=["fuse-json", "fuse-csv", "plan", "error", "campaign"],
)
def test_repeated_invocations_are_byte_identical(capsys, argv):
    first = run_cli(capsys, argv)
    second = run_cli(capsys, argv)
    assert first == second
    assert first[0] == 0


def test_unknown_command_exits_with_usage_error(capsys):
    code, out, err = run_cli(capsys, ["transmogrify"])
    assert (code, out) == (2, "")
    assert err == (
        "error: argument command: invalid choice: 'transmogrify' "
        "(choose from 'fuse', 'verify', 'plan', 'error', 'campaign')\n"
    )


def test_parser_is_built_at_the_first_main_call():
    code = (
        "import wfuse.cli as cli; "
        "print(cli.build_parser.cache_info().currsize); "
        "cli.main(['--version']); cli.main(['--version']); "
        "print(cli.build_parser.cache_info().currsize)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(wfuse.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    version = f"wfuse {wfuse.__version__}"
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == ["0", version, version, "1"]


def test_version_prints_package_version(capsys):
    code, out, err = run_cli(capsys, ["--version"])
    assert code == 0
    assert out == f"wfuse {wfuse.__version__}\n"
    assert err == ""


def test_package_root_imports_nothing():
    code = (
        "import sys, wfuse; "
        "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('wfuse.')))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(wfuse.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_symbolic_pipeline_imports_no_numpy():
    """The term algebra, the pipeline and the readout model are pure Python;
    only the dense oracle and the planner need numpy."""
    code = (
        "import sys, wfuse.protocol, wfuse.homodyne; "
        "print('numpy' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(wfuse.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


def test_bench_tracer_patch_points_exist():
    """The benchmark's tracer patches wfuse by name and reads the qubit count
    from brute_force_pipeline's positional arguments; a renamed or rewired
    name fails here rather than inside a traced benchmark run."""
    import importlib.util

    import wfuse.cli

    path = Path(__file__).parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    with tracer.install(wfuse):
        # looked up on the module, where the tracer patched it
        assert wfuse.cli.main(["verify", "--max", "4"]) == 0
        assert wfuse.cli.main(["fuse", "-n", "2", "-m", "2"]) == 0
    names = {sp.name for sp in tracer.spans}
    assert {
        "cli.main",
        "protocol.run_fusion",
        "oracle.brute_force_pipeline",
        "oracle.expand_symbolic",
        "oracle.fidelity",
        "optics.make_branch_state",
        "protocol.homodyne_measure",
        "protocol.to_json_obj",
        "optics.state_to_json_obj",
    } <= names
    qubits = [
        sp.info["q"] for sp in tracer.spans if sp.name == "oracle.brute_force_pipeline"
    ]
    assert qubits == [4]


# sha256 of stdout at fixed arguments.  Stdout is the output contract, so a
# digest changes only with a deliberate change to that contract.
STDOUT_SHA256 = {
    "plan": (
        ["plan", "--seed", "2", "--seed", "3", "--max", "250"],
        "8fb2edf3bd209ffb8a452c70cb2eff5e69059ce3e90a3a3a372f80ee36c27653",
    ),
    "plan-2000": (
        ["plan", "--seed", "2", "--seed", "3", "--max", "2000"],
        "c2f7d9b44013bd98adf3e1cb643de95375b4969ce431c897a454af63ff876ac0",
    ),
    "plan-10000": (
        ["plan", "--seed", "2", "--seed", "3", "--max", "10000"],
        "e092b5b3fb45d6096b52d22defb470d1c3b8c8a1aa825685c20a59d5dad9ee19",
    ),
    "fuse": (
        ["fuse", "-n", "4", "-m", "3"],
        "5072c6961cf86397f76d387f1bdc6e35013aff45c10ca770f3e63d80f052c72d",
    ),
    "fuse-large": (
        ["fuse", "-n", "500", "-m", "700"],
        "6898522f04e5c5dc40ac9056d85f29a0694d663c28c84005bbf3113ae876068a",
    ),
    # an amplitude whose exact value lies just above a 12-digit halfway
    # point and whose nearest double lies just below it: pins that the float
    # is derived from the exact one
    "fuse-rounding": (
        ["fuse", "-n", "192", "-m", "265"],
        "703aec6229ab64740e7664d5e532fac240420f7dc60c7f7de4ebf1a9547c9d43",
    ),
    "verify": (
        ["verify"],
        "8cfd24b2f4e287972ccc4c2469964292f53fda7907cb0c1a8c25ef5fdd6822d6",
    ),
    "verify-14": (
        ["verify", "--max", "14"],
        "693033ffb5fd2b45498c30e3f3c64c5f6588ebee6a93c0dc42978647c6d885b3",
    ),
    "campaign-plain": (
        ["campaign", "--target", "8", "--trials", "1000", "--rng", "7"],
        "68826a7dd80bccca0c94414ad12e0b2103539e7e00d8cdf2f767df3bf391fb41",
    ),
    "campaign-recycling": (
        ["campaign", "--target", "8", "--trials", "1000", "--recycling", "--rng", "7"],
        "6cd6e341dd920bab3fe84d2fed09e009920ac6d2977e6228ac9837a45259fab2",
    ),
}


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_stdout_matches_recorded_digest(capsys, name):
    argv, digest = STDOUT_SHA256[name]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the concatenated stdout of `fuse -n N -m M` for N, M in 2..12,
# N in the outer loop
FUSE_GRID_SHA256 = "7b4c3b6ddb0253ea1dec238656605a77f29259d829453a0116274dd44bec1c55"


def test_fuse_grid_stdout_matches_recorded_digest(capsys):
    digest = hashlib.sha256()
    for n in range(2, 13):
        for m in range(2, 13):
            code, out, _ = run_cli(capsys, ["fuse", "-n", str(n), "-m", str(m)])
            assert code == 0
            digest.update(out.encode())
    assert digest.hexdigest() == FUSE_GRID_SHA256


def test_contract_corpus_replays(tmp_path, monkeypatch):
    """Every invocation of tests/contract.txt keeps its exit code, stdout,
    stderr and written files; tests/record_contract.py re-records them."""
    for name, value in ENV_SET.items():
        monkeypatch.setenv(name, value)
    for name in ENV_UNSET:
        monkeypatch.delenv(name, raising=False)
    corpus = read_corpus()
    assert set(corpus) == {shlex.join(argv) for argv in corpus_argvs()}
    changed = [
        argv for argv, line in corpus.items() if record(shlex.split(argv), tmp_path) != line
    ]
    assert changed == []
