"""Command-line interface: exit codes, JSON reports, seeding, file output."""

import inspect
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from expobasis import CONSTRUCTIONS, METHODS, constructions, vandermonde
from expobasis.cli import main
from expobasis.jsonio import loads


@pytest.fixture()
def run(capsys, monkeypatch):
    monkeypatch.delenv("EXPOBASIS_SEED", raising=False)

    def _run(argv, env=None):
        if env:
            for key, value in env.items():
                monkeypatch.setenv(key, value)
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


def _cli_process(*argv):
    """``python -m expobasis.cli ARGV`` in a fresh process, output captured as text."""
    import subprocess
    import sys
    from pathlib import Path
    src = Path(__file__).resolve().parent.parent / "src"
    return subprocess.run([sys.executable, "-m", "expobasis.cli", *argv],
                          env={"PYTHONPATH": str(src)}, capture_output=True, text=True)


def test_beta_single_and_range(run):
    code, out, _ = run(["beta", "--M", "2"])
    assert code == 0
    rows = loads(out)["beta"]
    assert rows[0]["M"] == 2
    assert rows[0]["beta"] == pytest.approx(0.34084505690810829, abs=1e-15)
    assert abs(rows[0]["residual"]) < 1e-12

    code, out, _ = run(["beta", "--M", "2", "--M-max", "4"])
    assert [r["M"] for r in loads(out)["beta"]] == [2, 3, 4]


def test_certify_emits_schema_v1_certificate(run):
    code, out, _ = run(["certify", "interval-removal", "--N", "4", "--m", "1",
                        "--delta", "0.08"])
    assert code == 0
    doc = loads(out)
    assert doc["schema"] == "v1"
    assert doc["method"] == "interval_removal"
    assert doc["A"] == 0.018415909611543373
    assert doc["B"] == 9.907920451942282


def test_construct_includes_matrix_summary(run):
    code, out, _ = run(["construct", "perturbed-union", "--s", "2", "--a", "0,3",
                        "--epsilons", "0,1/3", "--delta", "0.0006"])
    assert code == 0
    doc = loads(out)
    assert set(doc) == {"schema", "certificate", "matrix"}
    assert doc["matrix"]["size"] == 6
    assert doc["matrix"]["nodes"] == [0, 1, 2, 10, 11, 12]
    assert doc["matrix"]["oracle_scale"] == 3.0


def test_oracle_reports_optimal_constants(run):
    code, out, _ = run(["oracle", "residue-orthogonal", "--s", "2", "--a", "0,3"])
    assert code == 0
    oracle = loads(out)["oracle"]
    assert oracle["condition"] == "nonsingular"
    assert oracle["A_opt"] == pytest.approx(2.0, abs=1e-9)
    assert oracle["B_opt"] == pytest.approx(2.0, abs=1e-9)


def test_oracle_reports_a_singular_node_matrix(run):
    # offsets {0, 1/2} on [0, 1) u [2, 3): both columns of Gamma are (1, 1)
    _, cert_text, _ = run(["certify", "residue-orthogonal", "--s", "2", "--a", "0,3"])
    doc = json.loads(cert_text)
    doc["domain"]["intervals"] = [
        {"start": {"num": lo, "den": 1}, "end": {"num": lo + 1, "den": 1}} for lo in (0, 2)]
    code, out, _ = run(["oracle", "--input", json.dumps(doc)])
    assert code == 0
    oracle = loads(out)["oracle"]
    assert oracle["condition"] == "numerically_singular"
    assert oracle["A_opt"] == pytest.approx(0.0, abs=1e-12)


def test_verify_pass_is_exit_zero(run):
    code, out, _ = run(["verify", "residue-orthogonal", "--s", "2", "--a", "0,3",
                        "--trials", "10"])
    assert code == 0
    assert loads(out)["verdict"] == "pass"


def test_verify_reports_are_byte_identical(run):
    args = ["verify", "residue-orthogonal", "--s", "2", "--a", "0,3", "--trials", "10"]
    _, first, _ = run(args)
    _, second, _ = run(args)
    assert first == second


def test_seed_precedence(run):
    args = ["verify", "residue-orthogonal", "--s", "2", "--a", "0,3", "--trials", "10"]
    assert loads(run(args)[1])["sample"]["seed"] == 42
    assert loads(run(args, env={"EXPOBASIS_SEED": "7"})[1])["sample"]["seed"] == 7
    assert loads(run(args + ["--seed", "11"], env={"EXPOBASIS_SEED": "7"})[1])["sample"]["seed"] == 11


def test_neighbouring_seeds_sample_different_extremes(run):
    args = ["verify", "interval-removal", "--N", "17", "--m", "3", "--delta", "1/300"]
    one = loads(run(args + ["--seed", "1"])[1])["sample"]
    two = loads(run(args + ["--seed", "2"])[1])["sample"]
    assert one["min_ratio"] != two["min_ratio"] and one["max_ratio"] != two["max_ratio"]


@pytest.mark.parametrize("flag, env", [(["--seed", "-1"], None), ([], {"EXPOBASIS_SEED": "-5"})],
                         ids=["flag", "env"])
def test_negative_seed_is_a_precondition_error(run, flag, env):
    code, _, err = run(["verify", "residue-orthogonal", "--s", "2", "--a", "0,3"] + flag, env=env)
    assert code == 1
    assert "PreconditionError" in err and "seed >= 0" in err


def test_bad_seed_env_is_a_precondition_error(run):
    code, _, err = run(["verify", "residue-orthogonal", "--s", "2", "--a", "0,3"],
                       env={"EXPOBASIS_SEED": "pony"})
    assert code == 1
    assert "EXPOBASIS_SEED" in err


def test_complement_verification_fails_with_exit_two(run, tmp_path):
    parent = tmp_path / "parent.json"
    code, out, _ = run(["certify", "residue-orthogonal", "--s", "1", "--a", "0",
                        "--output", str(parent)])
    assert code == 0
    assert out == ""  # --output suppresses stdout
    assert parent.exists()

    code, out, _ = run(["certify", "complement", "--Delta", "3", "--input", str(parent)])
    assert code == 0
    comp_doc = loads(out)
    assert comp_doc["method"] == "complement"
    assert "unverified_reflection_bounds" in comp_doc["flags"]
    comp = tmp_path / "comp.json"
    comp.write_text(out)

    code, out, _ = run(["verify", "--input", str(comp), "--trials", "20"])
    assert code == 2
    doc = loads(out)
    assert doc["verdict"] == "fail"
    assert doc["violations"]
    for violation in doc["violations"]:
        assert {"route", "index", "side", "value", "bound"} == set(violation)
    oracle_sides = {v["side"] for v in doc["violations"] if v["route"] == "oracle"}
    assert "upper" in oracle_sides


def test_inline_json_input(run):
    _, cert_text, _ = run(["certify", "residue-orthogonal", "--s", "2", "--a", "0,3"])
    code, out, _ = run(["verify", "--input", cert_text, "--trials", "10"])
    assert code == 0
    assert loads(out)["verdict"] == "pass"


def test_malformed_json_is_exit_three(run):
    code, _, err = run(["verify", "--input", "{bad"])
    assert code == 3
    assert "line 1" in err


@pytest.mark.parametrize("text", ["[" * 200_000 + "]" * 200_000, '{"A": ' + "1" * 5001 + "}"],
                         ids=["deep_array", "long_integer"])
def test_json_past_the_parser_limits_is_exit_three(run, tmp_path, text):
    # past the recursion limit and past the interpreter's integer digit limit
    path = tmp_path / "input.json"
    path.write_text(text)
    code, out, err = run(["verify", "--input", str(path)])
    assert (code, out) == (3, "")
    assert err.startswith("error [JsonInputError]: malformed JSON")


def test_deeply_nested_params_are_a_named_error(run, tmp_path):
    _, cert_text, _ = run(["certify", "residue-orthogonal", "--s", "2", "--a", "0,3"])
    doc = json.loads(cert_text)
    nested = 1
    for _ in range(600):
        nested = [nested]
    doc["params"]["nested"] = nested
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(["certify", "--input", str(path)])
    assert (code, out) == (1, "")
    assert err.startswith("error [PreconditionError]")
    assert "'params'" in err


def _drop(key):
    return lambda doc: {k: v for k, v in doc.items() if k != key}


def _set(key, value):
    return lambda doc: {**doc, key: value}


def _set_interval(value):
    return lambda doc: {**doc, "domain": {"intervals": [value]}}


@pytest.mark.parametrize("mutate, key", [
    (lambda doc: {"schema": "v1"}, "domain"),
    (_drop("domain"), "domain"),
    (_drop("system"), "system"),
    (_drop("params"), "params"),
    (_drop("A"), "A"),
    (_set("B", "2.0"), "B"),
    (_set("params", [1, 2]), "params"),
    (_set("system", {"branch_offsets": ["x"]}), "system"),
    (_set_interval({"start": {"num": 0, "den": 1}}), "domain"),
    (_set("A", 10**400), "A"),  # float() overflows
], ids=["schema_only", "no_domain", "no_system", "no_params", "no_A", "string_B",
        "list_params", "string_offset", "interval_without_end", "huge_A"])
def test_truncated_certificate_is_a_named_error(run, mutate, key):
    _, cert_text, _ = run(["certify", "residue-orthogonal", "--s", "2", "--a", "0,3"])
    doc = mutate(json.loads(cert_text))
    code, out, err = run(["verify", "--input", json.dumps(doc)])
    assert code == 1
    assert out == ""
    assert err.startswith("error [PreconditionError]")
    assert repr(key) in err


def _set_offset(value):
    return lambda doc: {**doc, "system": {**doc["system"], "branch_offsets": [
        doc["system"]["branch_offsets"][0], value]}}


@pytest.mark.parametrize("mutate, key", [
    (_set_interval({"start": {"num": 0.5, "den": 1}, "end": {"num": 1, "den": 1}}), "domain"),
    (_set_interval({"start": {"num": 0, "den": 1}, "end": {"num": "1", "den": 1}}), "domain"),
    (_set_interval({"start": {"num": 0, "den": True}, "end": {"num": 1, "den": 1}}), "domain"),
    (_set_offset(True), "system"),
    (_set_offset({"num": 1, "den": 0}), "system"),
], ids=["float_num", "string_num", "bool_den", "bool_offset", "zero_den"])
def test_ill_typed_rational_is_a_named_error(run, mutate, key):
    _, cert_text, _ = run(["certify", "residue-orthogonal", "--s", "2", "--a", "0,3"])
    doc = mutate(json.loads(cert_text))
    for sub in ("verify", "oracle"):
        code, out, err = run([sub, "--input", json.dumps(doc)])
        assert (code, out) == (1, "")
        assert err.startswith("error [PreconditionError]")
        assert repr(key) in err


def test_decimal_input_is_read_exactly(run):
    base = ["certify", "interval-removal", "--N", "6", "--m", "2", "--delta"]
    code, decimal, _ = run(base + ["0.025"])
    assert code == 0
    assert decimal == run(base + ["1/40"])[1]
    offsets = loads(decimal)["system"]["branch_offsets"]
    assert [Fraction(o["num"], o["den"]) for o in offsets] == [Fraction(7 * j, 40)
                                                               for j in range(5)]
    base = ["certify", "perturbed-union", "--s", "2", "--a", "0,3", "--epsilons", "0,1/3", "--delta"]
    assert run(base + ["0.0006"])[1] == run(base + ["3/5000"])[1]


def test_unreadable_input_is_a_named_error(run, tmp_path):
    code, _, err = run(["verify", "--input", str(tmp_path / "missing.json")])
    assert code == 1
    assert err.startswith("error [PreconditionError]")


@pytest.mark.parametrize("argv", [["verify"], ["certify", "complement", "--Delta", "3"]],
                         ids=["verify", "complement"])
def test_input_that_is_not_utf8_is_malformed_json(tmp_path, argv):
    path = tmp_path / "cert.json"
    path.write_bytes(b"\xff\xfe\x00{}")
    proc = _cli_process(*argv, "--input", str(path))
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.startswith("error [JsonInputError]")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["certify", "residue-orthogonal", "--s", "1", "--a", "0"],
    ["regress"],
    ["beta", "--M", "2"],
], ids=["certify", "regress", "beta"])
def test_unwritable_output_is_a_named_error(run, tmp_path, argv):
    code, out, err = run(argv + ["--output", str(tmp_path / "missing" / "x.json")])
    assert code == 1 and out == ""
    assert err.startswith("error [PreconditionError]: cannot write output")
    assert "Traceback" not in err


def test_precondition_failures_are_exit_one(run):
    code, _, err = run(["certify", "lattice-subset", "--N", "12", "--M", "3",
                        "--u", "1", "--a", "0,1,6"])
    assert code == 1
    assert "SeparationError" in err

    code, _, err = run(["certify", "interval-removal", "--N", "4"])
    assert code == 1
    assert "--delta" in err


@pytest.mark.parametrize("argv", [
    ["interval-removal", "--N", "17", "--m", "3"],
    ["perturbed-union", "--s", "2", "--a", "0,3", "--epsilons", "0,0"],
], ids=["interval-removal", "perturbed-union"])
@pytest.mark.parametrize("delta", ["1e400", "-1e400"])
def test_delta_beyond_the_float_range_is_a_window_error(run, argv, delta):
    code, out, err = run(["certify", *argv, f"--delta={delta}"])
    assert (code, out) == (1, "")
    assert err.startswith("error [DeltaWindowError]")
    assert "1.000000e+400 outside" in err


_BIG = "9" * 401  # an integer past the float range


@pytest.mark.parametrize("argv", [
    ["certify", "interval-removal", "--N", _BIG, "--m", "1", "--delta", "1e-300"],
    ["beta", "--M", _BIG],
    ["certify", "lattice-subset", "--N", _BIG, "--M", "3", "--a", "0,1,2", "--u", "1"],
    ["certify", "lattice-subset-paired", "--N", _BIG, "--M", "3", "--a", "0,1,2", "--u", "1"],
    ["certify", "perturbed-union", "--s", "2", "--a", "0,1", "--epsilons", "0,1e-400",
     "--delta", "0.1"],
    ["certify", "perturbed-union", "--s", "2", "--a", "0,1" + "0" * 399 + "1",
     "--epsilons", "0,0", "--delta", "0.1"],
], ids=["interval-removal", "beta", "lattice-subset", "lattice-subset-paired",
        "perturbed-union-grid", "perturbed-union-position"])
def test_integers_past_the_float_range_are_a_precondition_error(run, argv):
    code, out, err = run(argv)
    assert (code, out) == (1, "")
    assert err.startswith("error [PreconditionError]")


def test_beta_past_its_largest_m_is_a_precondition_error(run):
    assert run(["beta", "--M", "1000000000"])[0] == 0
    code, out, err = run(["beta", "--M", "1000000001"])
    assert (code, out) == (1, "")
    assert err.startswith("error [PreconditionError]") and "MAX_BETA_M" in err


@pytest.mark.parametrize("m_max", ["1000000000", "1" + "0" * 400], ids=["past_rows", "past_m"])
def test_beta_range_is_refused_before_any_solve(run, monkeypatch, m_max):
    def unreachable(m):
        raise AssertionError(f"solve_beta({m}) was called")
    monkeypatch.setattr("expobasis.cli.solve_beta", unreachable)
    code, out, err = run(["beta", "--M", "2", "--M-max", m_max])
    assert (code, out) == (1, "")
    assert err.startswith("error [PreconditionError]")


@pytest.mark.parametrize("flags", ["xyz", {"a": 1}, [1, 2], [None]],
                         ids=["string", "object", "integers", "null"])
def test_malformed_flags_are_a_named_error(run, flags):
    _, cert_text, _ = run(["certify", "residue-orthogonal", "--s", "2", "--a", "0,3"])
    doc = {**json.loads(cert_text), "flags": flags}
    code, out, err = run(["certify", "--input", json.dumps(doc)])
    assert (code, out) == (1, "")
    assert err.startswith("error [PreconditionError]") and "'flags'" in err


@pytest.mark.parametrize("delta, code", [("-1/1700", 0), ("-1e-3", 1)])
def test_negative_delta_after_a_space_reads_as_the_equals_form(run, delta, code):
    # -1/1700 lies in the perturbed union's window, -1e-3 outside it
    argv = ["certify", "perturbed-union", "--s", "2", "--a", "0,3", "--epsilons", "0,1/3"]
    spaced = run([*argv, "--delta", delta])
    assert spaced == run([*argv, f"--delta={delta}"])
    assert spaced[0] == code
    assert spaced[2] == "" if code == 0 else spaced[2].startswith("error [DeltaWindowError]")


def test_negative_rational_delta_outside_the_window_is_a_window_error(run):
    code, out, err = run(["certify", "interval-removal", "--N", "6", "--m", "2",
                          "--delta", "-1/40"])
    assert (code, out) == (1, "")
    assert err.startswith("error [DeltaWindowError]")


@pytest.mark.parametrize("delta_total", ["1e30", "1e400", "2050"])
def test_oversized_complement_is_refused_before_it_is_listed(run, tmp_path, delta_total):
    import tracemalloc
    parent = tmp_path / "parent.json"
    run(["certify", "residue-orthogonal", "--s", "1", "--a", "0", "--output", str(parent)])
    tracemalloc.start()
    try:
        code, out, err = run(["certify", "complement", "--Delta", delta_total,
                              "--input", str(parent)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (1, "")
    assert err.startswith("error [PreconditionError]") and "MAX_MATRIX_ROWS" in err
    assert peak < 2**20


def test_importing_the_cli_loads_neither_fft_nor_random():
    import subprocess
    import sys
    from pathlib import Path
    src = Path(__file__).resolve().parent.parent / "src"
    probe = ("import sys, expobasis.cli; "
             "print([m for m in ('numpy.fft', 'numpy.random') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", probe], env={"PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


#: commands that do no linear algebra, with their exit codes; PARENT stands
#: for the residue-orthogonal certificate that the complement reads inline
_NUMPY_FREE = {
    "interval-removal": (["certify", "interval-removal", "--N", "17", "--m", "8",
                          "--delta", "0.003"], 0),
    "perturbed-union": (["certify", "perturbed-union", "--s", "2", "--a", "0,3",
                         "--epsilons", "0,1/3", "--delta", "0.0006"], 0),
    "lattice-subset": (["certify", "lattice-subset", "--N", "14", "--M", "3", "--a", "0,5,9",
                        "--u", "1"], 0),
    "lattice-subset-paired": (["certify", "lattice-subset-paired", "--N", "16", "--M", "4",
                               "--a", "0,1,8,9", "--u", "1"], 0),
    "residue-orthogonal": (["certify", "residue-orthogonal", "--s", "2", "--a", "0,3"], 0),
    "complement": (["certify", "complement", "--Delta", "3", "--input", "PARENT"], 0),
    "outside-window": (["certify", "interval-removal", "--N", "17", "--m", "8",
                        "--delta", "0.3"], 1),
    "beta": (["beta", "--M", "2", "--M-max", "17"], 0),
    "malformed-input": (["verify", "--input", '{"schema": "v1", "method": '], 3),
}


@pytest.mark.parametrize("case", _NUMPY_FREE)
def test_commands_without_linear_algebra_start_without_numpy(run, case):
    import subprocess
    import sys
    from pathlib import Path
    argv, code = _NUMPY_FREE[case]
    parent = run(["certify", "residue-orthogonal", "--s", "1", "--a", "0"])[1]
    argv = [parent if arg == "PARENT" else arg for arg in argv]
    want_code, want_out, _ = run(argv)
    assert want_code == code
    src = Path(__file__).resolve().parent.parent / "src"
    probe = ("import sys, expobasis; loaded = ['numpy' in sys.modules]; "
             "from expobasis.cli import main; code = main(sys.argv[1:]); "
             "loaded.append('numpy' in sys.modules); print(loaded, file=sys.stderr); "
             "sys.exit(code)")
    proc = subprocess.run([sys.executable, "-c", probe, *argv], env={"PYTHONPATH": str(src)},
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (code, want_out)
    assert proc.stderr.splitlines()[-1] == "[False, False]", proc.stderr


@pytest.mark.parametrize("method", METHODS)
def test_every_construction_is_dispatched_from_the_table(run, method):
    builder, inputs = CONSTRUCTIONS[method]
    code, _, err = run(["certify", method.replace("_", "-")])
    assert code == 1
    assert f"requires {', '.join('--' + name for name in inputs)}" in err
    signature = inspect.signature(getattr(constructions, builder))
    assert len([p for p in signature.parameters.values() if p.default is p.empty]) == len(inputs)


def test_unknown_method_is_an_argparse_error(run, capsys):
    # a usage error exits 1 like any precondition failure; 2 means "verification failed"
    for argv in (["certify", "no-such-method"],
                 ["certify", "interval-removal", "--N", "x", "--m", "1", "--delta", "1/40"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert capsys.readouterr().err.startswith("usage: expobasis certify")
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--help"])
    assert exc.value.code == 0


@pytest.mark.parametrize("sub", ["certify", "construct"])
def test_no_method_and_no_input_is_a_named_error(run, sub):
    code, out, err = run([sub])
    assert (code, out) == (1, "")
    assert err.startswith("error [PreconditionError]")
    assert "provide a method or --input" in err


@pytest.mark.parametrize("flag", [["--seed", "1"], ["--trials", "5"], ["--n-max", "2"]],
                         ids=["seed", "trials", "n_max"])
def test_sampling_flags_belong_to_verify_and_report_only(run, capsys, flag):
    args = ["residue-orthogonal", "--s", "2", "--a", "0,3"]
    for sub in ("certify", "construct", "oracle"):
        with pytest.raises(SystemExit) as exc:
            main([sub, *args, *flag])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: expobasis")
        assert f"unrecognized arguments: {' '.join(flag)}" in err
    for reader in ("verify", "report"):
        code, out, _ = run([reader, *args, *flag])
        assert code == 0
        assert loads(out)["verdict"] == "pass"


@pytest.mark.parametrize("sub", ["verify", "report"])
def test_oversized_gram_section_is_a_named_error(run, sub):
    # one branch at n_max = 1e5 would be a 200,001-square complex Gram (596 GiB)
    code, out, err = run([sub, "residue-orthogonal", "--s", "1", "--a", "0",
                          "--n-max", "100000"])
    assert (code, out) == (1, "")
    assert err.startswith("error [PreconditionError]")
    assert "MAX_MATRIX_ROWS" in err


def test_wide_complement_is_verified_by_both_routes(run, tmp_path):
    # 192 branches: route 1 is one 192 x 192 SVD and route 2's symbol is
    # 33 x 192**2 entries, though the unbuilt section has 3,264 rows
    parent = tmp_path / "parent.json"
    run(["certify", "interval-removal", "--N", "9", "--m", "4", "--delta", "1/100",
         "--output", str(parent)])
    _, comp, _ = run(["certify", "complement", "--Delta", "200", "--input", str(parent)])
    code, out, err = run(["verify", "--input", comp])
    assert (code, err) == (2, "")  # the reflected constants are unsound
    doc = loads(out)
    assert doc["sample"]["n_max"] == 8
    assert any(v["route"] == "oracle" for v in doc["violations"])


def test_trials_past_the_sample_budget_are_refused_before_any_draw(run, monkeypatch):
    import expobasis.verify as verify

    def no_draws(seed):
        raise AssertionError("the generator was reached")

    monkeypatch.setattr(verify.np.random, "default_rng", no_draws)
    code, out, err = run(["verify", "residue-orthogonal", "--s", "1", "--a", "0",
                          "--trials", "1000000000000"])
    assert (code, out) == (1, "")
    assert err.startswith("error [PreconditionError]") and "MAX_SAMPLE_ENTRIES" in err


def test_regress_subcommand(run):
    code, out, _ = run(["regress"])
    assert code == 0
    doc = loads(out)
    assert doc["verdict"] == "pass"
    assert len(doc["regressions"]) == 9
    assert all(r["passed"] for r in doc["regressions"])


@pytest.fixture()
def broken_fixture(monkeypatch):
    """Nudge the N = 2 perturbed pair off its node collision, so that one
    regression fixture, and only that one, fails."""
    import expobasis.verify as verify
    real = verify.progression_matrix

    def nudged(nodes, spacing):
        return real(nodes, spacing + Fraction(1, 1000) if len(nodes) == 4 else spacing)

    monkeypatch.setattr(verify, "progression_matrix", nudged)


def test_regress_failure_is_exit_two(run, broken_fixture):
    code, out, _ = run(["regress"])
    assert code == 2
    doc = loads(out)
    assert doc["verdict"] == "fail"
    assert len(doc["regressions"]) == 9
    assert [r["name"] for r in doc["regressions"] if not r["passed"]] == [
        "perturbed_pair_singular_N2"]


def test_report_with_a_failed_regression_is_exit_two(run, broken_fixture):
    code, out, _ = run(["report", "interval-removal", "--N", "4", "--m", "1",
                        "--delta", "0.08", "--trials", "16"])
    assert code == 2
    doc = loads(out)
    assert doc["verdict"] == "fail"
    assert doc["violations"] == []
    assert [r["name"] for r in doc["regressions"] if not r["passed"]] == [
        "perturbed_pair_singular_N2"]


def test_report_bundles_all_routes(run):
    code, out, _ = run(["report", "interval-removal", "--N", "4", "--m", "1",
                        "--delta", "0.08", "--trials", "16"])
    assert code == 0
    doc = loads(out)
    assert set(doc) == {"schema", "certificate", "matrix", "oracle", "sample",
                        "regressions", "verdict", "violations"}
    assert doc["verdict"] == "pass"
    assert doc["violations"] == []


def test_report_builds_the_node_matrix_once(run, monkeypatch):
    # route 1 and the matrix field read one Gamma; the regressions'
    # progression matrices (other nodes) call vandermonde.build_gamma too
    calls = []
    build_gamma = vandermonde.build_gamma

    def counted(*args, **kwargs):
        calls.append(args)
        return build_gamma(*args, **kwargs)

    monkeypatch.setattr(vandermonde, "build_gamma", counted)
    code, out, _ = run(["report", "interval-removal", "--N", "17", "--m", "8",
                        "--delta", "0.003", "--trials", "16"])
    assert code == 0
    matrix = loads(out)["matrix"]
    assert len([nodes for _, nodes in calls if list(nodes) == matrix["nodes"]]) == 1
    assert matrix["size"] == 16


def test_text_format_renders_key_lines(run):
    code, out, _ = run(["report", "interval-removal", "--N", "4", "--m", "1",
                        "--delta", "0.08", "--trials", "16", "--format", "text"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "schema: v1"
    assert "  method: interval_removal" in lines
    assert any(line.startswith("verdict:") for line in lines)


def test_output_file_matches_stdout_payload(run, tmp_path):
    target = tmp_path / "cert.json"
    args = ["certify", "residue-orthogonal", "--s", "2", "--a", "0,3"]
    _, stdout_text, _ = run(args)
    code, out, _ = run(args + ["--output", str(target)])
    assert code == 0 and out == ""
    assert target.read_text() == stdout_text


def _one_branch_document(run, intervals):
    _, text, _ = run(["certify", "residue-orthogonal", "--s", "1", "--a", "0"])
    doc = json.loads(text)
    doc["domain"]["intervals"] = [
        {"start": {"num": Fraction(lo).numerator, "den": Fraction(lo).denominator},
         "end": {"num": Fraction(hi).numerator, "den": Fraction(hi).denominator}}
        for lo, hi in intervals]
    return json.dumps(doc)


def test_a_run_past_the_float_range_is_a_named_error(run):
    # each piece is 10**308 long, a finite float; the run they join is not
    text = _one_branch_document(run, [(0, 10**308), (10**308, 2 * 10**308)])
    proc = _cli_process("verify", "--input", text)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error [PreconditionError]")
    assert "Traceback" not in proc.stderr


#: ``certify interval-removal --N 5 --m 2 --delta 1/25`` with its domain
#: listed as unit pieces, as documents once wrote it
_UNIT_PIECE_DOCUMENT = (
    '{"schema":"v1","method":"interval_removal","A":0.014401526380829885,'
    '"B":13.157580082031071,"system":{"branch_offsets":[{"num":0,"den":1},'
    '{"num":21,"den":100},{"num":21,"den":50},{"num":63,"den":100}],'
    '"domain_scale":{"num":1,"den":1}},"domain":{"intervals":['
    '{"start":{"num":0,"den":1},"end":{"num":1,"den":1}},'
    '{"start":{"num":1,"den":1},"end":{"num":2,"den":1}},'
    '{"start":{"num":3,"den":1},"end":{"num":4,"den":1}},'
    '{"start":{"num":4,"den":1},"end":{"num":5,"den":1}}]},'
    '"params":{"N":5,"m":2,"delta":{"num":1,"den":25},"beta":0.20048050933824157,'
    '"window":[{"num":1,"den":32},0.049519490661758425]},"flags":[]}')


def test_a_unit_piece_document_reads_as_its_runs(run):
    from expobasis import certificate_from_json, construct_interval_removal
    cert = certificate_from_json(json.loads(_UNIT_PIECE_DOCUMENT))
    assert cert == construct_interval_removal(5, 2, Fraction(1, 25))
    _, text, _ = run(["certify", "interval-removal", "--N", "5", "--m", "2", "--delta", "1/25"])
    assert len(loads(text)["domain"]["intervals"]) == 2
    old = run(["verify", "--seed", "5", "--input", _UNIT_PIECE_DOCUMENT])
    assert old == run(["verify", "--seed", "5", "--input", text])
    assert old[0] == 0


@pytest.mark.parametrize("intervals, error", [
    ([(0, 0), (0, 1)], "PreconditionError"),
    ([(1, 0)], "PreconditionError"),
    ([(0, 1), (Fraction(1, 2), Fraction(3, 2))], "OverlapError"),
], ids=["empty_interval", "reversed_interval", "overlap"])
def test_every_subcommand_applies_the_domain_rule(run, intervals, error):
    text = _one_branch_document(run, intervals)
    for sub in ("oracle", "verify", "report"):
        code, out, err = run([sub, "--input", text])
        assert (code, out) == (1, "")
        assert err.startswith(f"error [{error}]")


def test_oversized_node_matrix_is_refused_before_it_is_built(run):
    # one branch on [1/D, 1 + 1/D) has a D x D node matrix: 67 MB at D = 2053
    import tracemalloc
    text = _one_branch_document(run, [(Fraction(1, 2053), Fraction(2054, 2053))])
    for sub in ("oracle", "verify"):
        tracemalloc.start()
        try:
            code, out, err = run([sub, "--input", text])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (1, "")
        assert "MAX_MATRIX_ROWS" in err
        assert peak < 4 * 2**20


# --- fuzzed certificate documents ----------------------------------------------------

def _base_documents():
    from expobasis import (certificate_to_json, certify_lattice_subset,
                           certify_lattice_subset_paired, complement_certificate,
                           construct_interval_removal, construct_perturbed_union,
                           residue_orthogonal_basis)
    from expobasis.jsonio import dumps
    certs = [
        construct_perturbed_union(2, [0, 3], [Fraction(0), Fraction(1, 3)], Fraction(3, 5000)),
        certify_lattice_subset(12, 3, [0, 4, 8], 1),
        certify_lattice_subset_paired(16, 4, [0, 1, 8, 9], 1),
        construct_interval_removal(4, 1, Fraction(2, 25)),
        residue_orthogonal_basis(2, [0, 3]),
        complement_certificate(3, residue_orthogonal_basis(1, [0])),
    ]
    return {cert.method: json.loads(dumps(certificate_to_json(cert))) for cert in certs}


_BASE_DOCUMENTS = _base_documents()


def _dilated(doc, k):
    """``doc`` with its domain scale and every endpoint times 10**k: its system
    and its domain dilated together."""
    import copy
    factor = Fraction(10) ** k

    def scaled(value):
        x = Fraction(value["num"], value["den"]) * factor
        return {"num": x.numerator, "den": x.denominator}

    doc = copy.deepcopy(doc)
    doc["system"]["domain_scale"] = scaled(doc["system"]["domain_scale"])
    doc["domain"]["intervals"] = [{"start": scaled(piece["start"]), "end": scaled(piece["end"])}
                                  for piece in doc["domain"]["intervals"]]
    return doc


@given(st.sampled_from(sorted(_BASE_DOCUMENTS)), st.integers(-400, 400))
@example("lattice_subset_paired", -400)  # the node matrix's scale D/c overflows
@example("residue_orthogonal", 308)  # the Gram form's ratios overflow
@settings(max_examples=40, deadline=None)
def test_a_dilated_domain_never_raises(method, k):
    import contextlib
    import io
    text = json.dumps(_dilated(_BASE_DOCUMENTS[method], k))
    for sub in ("verify", "oracle", "construct", "report"):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main([sub, "--input", text])
        assert code in (0, 1, 2, 3), (sub, code, err.getvalue())


def test_an_oracle_scale_past_the_float_range_is_a_named_error():
    # D/c = 10**400 for the unit intervals of a domain shrunk by 10**-400
    text = json.dumps(_dilated(_BASE_DOCUMENTS["interval_removal"], -400))
    proc = _cli_process("verify", "--input", text)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error [PreconditionError]")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("method", sorted(_BASE_DOCUMENTS))
def test_certify_input_reproduces_the_certificate(run, tmp_path, method):
    from expobasis.jsonio import dumps
    path = tmp_path / "cert.json"
    path.write_text(dumps(_BASE_DOCUMENTS[method]))
    code, out, _ = run(["certify", "--input", str(path)])
    assert code == 0
    assert out == path.read_text()
    code, out, _ = run(["construct", "--input", str(path)])
    assert code == 0
    assert loads(out)["certificate"] == _BASE_DOCUMENTS[method]


def _paths(node, prefix=()):
    """Every (path, is_leaf) below ``node``, where a path is a tuple of keys/indices."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        path = prefix + (key,)
        container = isinstance(child, (dict, list))
        yield path, not container
        if container:
            yield from _paths(child, path)


_INTS = st.one_of(st.integers(-64, 64), st.sampled_from([10**400, -10**400]))
_LEAVES = st.one_of(
    _INTS, st.booleans(), st.none(), st.text(max_size=3),
    st.floats(-64, 64, allow_nan=False, allow_infinity=False),
    st.just([]), st.just({}),
    st.builds(lambda f, d: {"num": f, "den": d}, st.floats(-2, 2), _INTS),  # float num
    st.builds(lambda n, d: {"num": n, "den": d}, _INTS, st.integers(-64, 0)),  # den <= 0
    st.builds(lambda n, d: {"nested": {"num": n, "den": d}}, _INTS, _INTS),
)


@st.composite
def _mutated_document(draw):
    import copy
    doc = copy.deepcopy(_BASE_DOCUMENTS[draw(st.sampled_from(sorted(_BASE_DOCUMENTS)))])
    path, is_leaf = draw(st.sampled_from(list(_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if is_leaf and draw(st.booleans()):
        parent[path[-1]] = draw(_LEAVES)
    else:
        del parent[path[-1]]
    return doc


@given(_mutated_document())
@settings(max_examples=150, deadline=None)
def test_mutated_certificates_never_raise(doc):
    import contextlib
    import io
    text = json.dumps(doc)
    for argv in (["verify", "--input", text, "--trials", "4", "--n-max", "2", "--seed", "1"],
                 ["oracle", "--input", text], ["certify", "--input", text],
                 ["construct", "--input", text]):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(argv)
        assert code in (0, 1, 2, 3), (argv[0], code, err.getvalue())
