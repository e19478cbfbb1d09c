"""The four workloads: their inputs (drawn from the seed), operations and checks.

An operation is one certificate carried through a workload's pipeline, or one
CLI invocation. ``build(name, seed)`` returns the fixed batch of operations
that every pass of a run repeats. An operation's ``run`` is the timed part;
its ``check`` runs afterwards, untimed, and returns a list of problems, empty
when the output is correct. Checks judge outputs against ``reference`` (the
node matrix of the certificate's own system on its own domain) and against
the method's own properties, never against the program's oracle alone or a
stored copy of earlier output.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

import numpy as np

import expobasis as xb
from expobasis import jsonio

import reference as ref

VERIFY_N_MAX = 8
VERIFY_TRIALS = 128
#: oracle agreement: singular_values against numpy.linalg.svd of the same matrix
SVD_RTOL = 1e-10
#: relative distance of the refused delta beyond each window edge
OUTSIDE = 1e-6
CHILD_TIMEOUT_S = 120.0


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], list]


@dataclass
class Context:
    """What operations share within one run: the work directory for CLI files,
    whether CLI calls run in process (traced runs), the outputs of earlier
    operations of the current pass by label, and the memory and CPU time of
    the CLI children waited for so far."""

    root: str
    work: str
    in_process: bool = False
    outputs: dict = field(default_factory=dict)
    child_rss_kb: list = field(default_factory=list)
    child_cpu_s: float = 0.0


# --- shared checks -------------------------------------------------------------

@functools.cache
def _reference(offsets: tuple, scale, intervals: tuple) -> ref.Reference:
    """Every pass repeats the same systems, so each reference is built once."""
    return ref.optimal_constants(offsets, scale, intervals)


def reference_of(cert) -> ref.Reference:
    return _reference(cert.system.branch_offsets, cert.system.domain_scale,
                      cert.domain_intervals)


def soundness(cert, r: ref.Reference) -> list:
    return [f"{cert.method} unsound: {m}" for m in ref.containment_misses(cert.A, cert.B, r)]


def oracle_problems(matrix, scale, spectrum, r: ref.Reference) -> list:
    """The oracle must reproduce numpy's SVD of the matrix it was given and,
    when the reference needs no dilation (D = 1), the reference constants."""
    problems = []
    want = np.linalg.svd(np.asarray(matrix.entries), compute_uv=False)
    got = np.asarray(spectrum.values, dtype=float)
    if got.shape != want.shape or np.max(np.abs(got - want)) > SVD_RTOL * want[0]:
        problems.append("oracle spectrum disagrees with numpy.linalg.svd of the same matrix")
    if r.D == 1:
        lo, hi = spectrum.sigma_min ** 2 / scale, spectrum.sigma_max ** 2 / scale
        if not (ref.close(lo, r.A_opt, r.B_opt) and ref.close(hi, r.B_opt, r.B_opt)):
            problems.append(f"oracle constants [{lo!r}, {hi!r}] are not the node matrix's "
                            f"[{r.A_opt!r}, {r.B_opt!r}]")
    return problems


def window_problems(cert, lo: float, hi: float) -> list:
    got = cert.params.get("window")
    if (got is None or not ref.close(float(got[0]), lo, lo)
            or not ref.close(float(got[1]), hi, hi)):
        return [f"{cert.method} window {got!r} is not the root's ({lo!r}, {hi!r})"]
    return []


def refused(exc_type: type, fn, *args):
    """Call ``fn``; return the exception it raised, or None if it returned."""
    try:
        fn(*args)
    except exc_type as exc:
        return exc
    return None


def refusal_check(label: str):
    def check(exc):
        return [] if exc is not None else [f"{label}: expected DeltaWindowError, got a certificate"]
    return check


# --- admissibility, computed by the benchmark ---------------------------------

def threshold_u(n: int, m: int) -> float:
    v = m * math.sin(1.0 / m)
    if n % 2 == 0:
        return (n / math.pi) * math.acos(v)
    return (n / math.pi) * math.acos(v * math.cos(math.pi / (2 * n))) - 0.5


def _wrap(x: Fraction) -> Fraction:
    r = x - math.floor(x)
    return min(r, 1 - r)


def _margin(d: int, n: int, m: int) -> Fraction:
    return _wrap(Fraction(d, n)) - _wrap(Fraction(d * m, n))


def _coherence(d: int, n: int, m: int) -> float:
    r = float(_wrap(Fraction(d, n)))
    return abs(math.sin(math.pi * m * r) / math.sin(math.pi * r))


def separated(a, n: int, m: int, u: int) -> bool:
    """Every endpoint pair keeps wrap margin > u/N (the lattice-subset condition)."""
    return all(_margin(y - x, n, m) > Fraction(u, n) for x, y in itertools.combinations(a, 2))


def paired_admissible(a, n: int, m: int, u: int) -> bool:
    """Coherence clusters (pairs at or above M sin(1/M), joined transitively)
    have at most two members, and every cross-cluster pair is separated."""
    tau = m * math.sin(1.0 / m)
    cluster = list(range(len(a)))
    for i, j in itertools.combinations(range(len(a)), 2):
        if _coherence(a[j] - a[i], n, m) >= tau:
            old, new = cluster[j], cluster[i]
            cluster = [new if c == old else c for c in cluster]
    if max(cluster.count(c) for c in cluster) > 2:
        return False
    return all(cluster[i] == cluster[j] or _margin(a[j] - a[i], n, m) > Fraction(u, n)
               for i, j in itertools.combinations(range(len(a)), 2))


def lattice_sets(n: int, m: int):
    """(u, sets admissible for lattice_subset, sets admissible for the paired
    variant), over the endpoint sets that start at 0."""
    u = math.floor(threshold_u(n, m)) + 1
    sets = [list(a) for a in itertools.combinations(range(n), m) if a[0] == 0]
    return (u, [a for a in sets if separated(a, n, m, u)],
            [a for a in sets if paired_admissible(a, n, m, u)])


def perturbed_window(s: int, n: int, m: int) -> tuple[Fraction, float]:
    """|delta| window [1/(2 s^2 N^3 m), 1/(s N^2 m) - beta_{sN}/(N m)]."""
    lo = Fraction(1, 2 * s * s * n ** 3 * m)
    return lo, 1.0 / (s * n * n * m) - ref.shift_root(s * n) / (n * m)


#: s = 2 perturbed unions (a_1, eps_1) whose certificates are sound: lcd N in
#: {1, 3, 4}. Larger N is left out because construct_perturbed_union certifies
#: unsound lower bounds there (see CHANGES.md).
PERTURBED_CELLS = ((1, Fraction(0)), (3, Fraction(0)), (5, Fraction(0)),
                   (1, Fraction(1, 3)), (3, Fraction(1, 3)), (5, Fraction(1, 3)),
                   (3, Fraction(-1, 3)), (5, Fraction(-1, 3)),
                   (1, Fraction(1, 4)), (3, Fraction(1, 4)), (5, Fraction(1, 4)),
                   (3, Fraction(-1, 4)), (5, Fraction(-1, 4)))


# --- verify workloads ------------------------------------------------------------

# Operations look the program's functions up when they run, not when they are
# built, so that the spans a traced run installs afterwards see every call.

def _verify_op(label, make, vseed: int, extra: Callable[[Any, Any, ref.Reference], list]):
    def run():
        cert = make()
        return cert, xb.verify_certificate(cert, n_max=VERIFY_N_MAX, trials=VERIFY_TRIALS,
                                           seed=vseed)

    def check(out):
        cert, report = out
        r = reference_of(cert)
        problems = soundness(cert, r)
        if not report.ok:
            problems.append(f"verify rejected a sound certificate: {report.violations!r}")
        lo, hi = report.oracle_constants
        lo, hi = lo / report.oracle_scale, hi / report.oracle_scale
        if not (ref.close(lo, r.A_opt, r.B_opt) and ref.close(hi, r.B_opt, r.B_opt)):
            problems.append(f"route 1 constants [{lo!r}, {hi!r}] are not the node "
                            f"matrix's [{r.A_opt!r}, {r.B_opt!r}]")
        problems += ref.interlacing_misses(report.sample.min_ratio, report.sample.max_ratio, r)
        return [f"{label}: {p}" for p in problems + extra(cert, report, r)]

    return Op(label, run, check)


def verify_contiguous(rng: random.Random) -> list:
    ops = []
    for big_m in (16, 32, 64):
        n = big_m + 1
        m = rng.randint(1, n - 2)
        lo, hi = ref.interval_removal_window(n)
        delta = lo + (hi - lo) * rng.uniform(0.1, 0.9)
        ops.append(_verify_op(
            f"interval_removal N={n} m={m} delta={delta!r}",
            lambda n=n, m=m, delta=delta: xb.construct_interval_removal(n, m, delta),
            rng.randrange(2 ** 31),
            lambda cert, report, r, lo=lo, hi=hi: window_problems(cert, lo, hi)))
    return ops


def _tight(big_m: int):
    def extra(cert, report, r):
        values = (r.A_opt, r.B_opt, report.sample.min_ratio, report.sample.max_ratio)
        if not all(ref.close(v, big_m, big_m) for v in values):
            return [f"tight frame expected: A_opt, B_opt and the section extremes all "
                    f"equal {big_m}, got {values!r}"]
        return []
    return extra


def verify_scattered(rng: random.Random) -> list:
    # Both constructions give the same system on the same domain here, so each
    # M is verified once; the two alternate over M, the seed picks the first.
    methods = ["certify_lattice_subset", "certify_lattice_subset_paired"]
    if rng.randrange(2):
        methods.reverse()
    ops = []
    for i, big_m in enumerate((16, 32, 64)):
        n = 2 * big_m
        first = rng.randrange(2)
        a = [first + 2 * k for k in range(big_m)]
        name = methods[i % 2]
        ops.append(_verify_op(
            f"{name} N={n} M={big_m} a0={first}",
            lambda name=name, n=n, big_m=big_m, a=a: getattr(xb, name)(n, big_m, a, 1),
            rng.randrange(2 ** 31), _tight(big_m)))
    return ops


# --- oracle sweep -------------------------------------------------------------------

def _oracle_op(label, make, extra: Callable[[Any], list] = lambda cert: []):
    def run():
        cert = make()
        matrix, scale = xb.associated_matrix(cert)
        spectrum = xb.singular_values(matrix)
        back = xb.certificate_from_json(jsonio.loads(jsonio.dumps(xb.certificate_to_json(cert))))
        return cert, matrix, scale, spectrum, back

    def check(out):
        cert, matrix, scale, spectrum, back = out
        problems = [] if back == cert else ["JSON round trip changed the certificate"]
        r = reference_of(back)
        problems += soundness(cert, r) + oracle_problems(matrix, scale, spectrum, r) + extra(cert)
        return [f"{label}: {p}" for p in problems]

    return Op(label, run, check)


def oracle_sweep(rng: random.Random) -> list:
    ops = []
    for n in range(4, 34):
        m = rng.randint(1, n - 2)
        lo, hi = ref.interval_removal_window(n)
        for i in range(9):
            delta = lo + (hi - lo) * (i + rng.uniform(0.05, 0.95)) / 9
            ops.append(_oracle_op(
                f"interval_removal N={n} m={m} delta={delta!r}",
                lambda n=n, m=m, delta=delta: xb.construct_interval_removal(n, m, delta),
                lambda cert, lo=lo, hi=hi: window_problems(cert, lo, hi)))
        for edge in (lo * (1 - OUTSIDE), hi * (1 + OUTSIDE)):
            label = f"interval_removal N={n} delta={edge!r} outside the window"
            ops.append(Op(label, lambda n=n, m=m, edge=edge: refused(
                xb.DeltaWindowError, xb.construct_interval_removal, n, m, edge),
                refusal_check(label)))

    for a1, eps1 in PERTURBED_CELLS:
        n = eps1.denominator
        m = int(n * (a1 + eps1))
        lo, hi = perturbed_window(2, n, m)
        sign = rng.choice((-1.0, 1.0))
        delta = sign * (float(lo) + (hi - float(lo)) * rng.uniform(0.02, 0.98))
        args = (2, [0, a1], [Fraction(0), eps1])
        ops.append(_oracle_op(
            f"perturbed_union a=[0,{a1}] eps=[0,{eps1}] delta={delta!r}",
            lambda args=args, delta=delta: xb.construct_perturbed_union(*args, delta),
            lambda cert, lo=lo, hi=hi: window_problems(cert, float(lo), hi)))
        for edge in (float(lo) * (1 - OUTSIDE), hi * (1 + OUTSIDE)):
            label = f"perturbed_union a=[0,{a1}] eps=[0,{eps1}] |delta|={edge!r} outside"
            ops.append(Op(label, lambda args=args, edge=sign * edge: refused(
                xb.DeltaWindowError, xb.construct_perturbed_union, *args, edge),
                refusal_check(label)))

    for n, big_m in ((10, 3), (12, 4), (14, 3), (14, 4), (16, 4)):
        u, plain, paired = lattice_sets(n, big_m)
        for name, sets in (("certify_lattice_subset", plain),
                           ("certify_lattice_subset_paired", paired)):
            for a in sets:
                ops.append(_oracle_op(
                    f"{name} N={n} M={big_m} u={u} a={a}",
                    lambda name=name, n=n, big_m=big_m, a=a, u=u:
                        getattr(xb, name)(n, big_m, a, u)))
    return ops


# --- CLI round trips ----------------------------------------------------------------

@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


def _child_env(root: str, seed_env: int | None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.pop("EXPOBASIS_SEED", None)
    if seed_env is not None:
        env["EXPOBASIS_SEED"] = str(seed_env)
    return env


def _run_child(ctx: Context, argv: list, seed_env: int | None) -> CliResult:
    out_path = os.path.join(ctx.work, "child.out")
    err_path = os.path.join(ctx.work, "child.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen([sys.executable, "-m", "expobasis.cli", *argv], cwd=ctx.root,
                                env=_child_env(ctx.root, seed_env), stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    ctx.child_rss_kb.append(usage.ru_maxrss)
    ctx.child_cpu_s += usage.ru_utime + usage.ru_stime
    with open(out_path, encoding="utf-8") as fh_out, open(err_path, encoding="utf-8") as fh_err:
        return CliResult(proc.returncode, fh_out.read(), fh_err.read())


def _run_in_process(argv: list, seed_env: int | None) -> CliResult:
    import contextlib
    import io

    from expobasis import cli

    out, err = io.StringIO(), io.StringIO()
    saved = os.environ.pop("EXPOBASIS_SEED", None)
    if seed_env is not None:
        os.environ["EXPOBASIS_SEED"] = str(seed_env)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        os.environ.pop("EXPOBASIS_SEED", None)
        if saved is not None:
            os.environ["EXPOBASIS_SEED"] = saved
    return CliResult(code, out.getvalue(), err.getvalue())


def _fraction(doc: dict) -> Fraction:
    return Fraction(doc["num"], doc["den"])


def reference_of_doc(cert_doc: dict) -> ref.Reference:
    """The reference for a certificate as the CLI prints it (schema v1)."""
    system = cert_doc["system"]
    offsets = tuple(_fraction(o) if isinstance(o, dict) else float(o)
                    for o in system["branch_offsets"])
    intervals = tuple((_fraction(iv["start"]), _fraction(iv["end"]))
                      for iv in cert_doc["domain"]["intervals"])
    return _reference(offsets, _fraction(system["domain_scale"]), intervals)


class CliCalls:
    """Builds CLI operations; each call's label is its key in ``Context.outputs``."""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.ops: list = []

    def path(self, name: str) -> str:
        return os.path.join(self.ctx.work, name)

    def add(self, label: str, argv: list, want_code: int, check=None, seed_env=None):
        ctx = self.ctx

        def run():
            if ctx.in_process:
                return _run_in_process(argv, seed_env)
            return _run_child(ctx, argv, seed_env)

        def full_check(res: CliResult):
            ctx.outputs[label] = res
            if res.code != want_code:
                return [f"cli {label}: exit {res.code}, want {want_code}; "
                        f"stderr: {res.stderr.strip()[-300:]}"]
            return [f"cli {label}: {p}" for p in (check(res) if check else [])]

        self.ops.append(Op(f"cli {label}", run, full_check))


def _stdout_doc(res: CliResult):
    return json.loads(res.stdout)


def _file_doc(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _verify_doc_problems(doc: dict, expect_pass: bool) -> list:
    """A verify/report document: verdict as expected, and the oracle's constants
    equal to the node matrix of the certificate's own system and domain."""
    problems = []
    r = reference_of_doc(doc["certificate"])
    cert_a, cert_b = doc["certificate"]["A"], doc["certificate"]["B"]
    misses = ref.containment_misses(cert_a, cert_b, r)
    if expect_pass:
        problems += [f"unsound: {m}" for m in misses]
        if doc["verdict"] != "pass":
            problems.append(f"verdict {doc['verdict']!r} on a sound certificate")
    else:
        if not misses or doc["verdict"] != "fail" or not doc["violations"]:
            problems.append(f"negative control: reference misses {misses}, verdict "
                            f"{doc['verdict']!r}, {len(doc['violations'])} violations")
    oracle = doc["oracle"]
    lo, hi = oracle["A_opt"] / oracle["scale"], oracle["B_opt"] / oracle["scale"]
    if not (ref.close(lo, r.A_opt, r.B_opt) and ref.close(hi, r.B_opt, r.B_opt)):
        problems.append(f"printed [A_opt, B_opt] = [{lo!r}, {hi!r}], node matrix gives "
                        f"[{r.A_opt!r}, {r.B_opt!r}]")
    sample = doc["sample"]
    problems += ref.interlacing_misses(sample["min_ratio"], sample["max_ratio"], r)
    return problems


def cli_roundtrip(rng: random.Random, ctx: Context) -> list:
    calls = CliCalls(ctx)

    n_ir = 17
    m_ir = rng.randint(1, n_ir - 2)
    lo, hi = ref.interval_removal_window(n_ir)
    delta_ir = lo + (hi - lo) * rng.uniform(0.1, 0.9)
    a1 = rng.choice((1, 3, 5))
    lo_pu, hi_pu = perturbed_window(2, 1, a1)
    lo_pu = float(lo_pu)
    delta_pu = rng.choice((-1.0, 1.0)) * (lo_pu + (hi_pu - lo_pu) * rng.uniform(0.1, 0.9))
    u_ls, plain, _ = lattice_sets(14, 3)
    u_lsp, _, paired = lattice_sets(14, 4)
    s_ro = 4
    a_ro = sorted(r + s_ro * rng.randrange(3) for r in range(s_ro))
    vseed = rng.randrange(2 ** 31)

    constructions = {
        "interval-removal": ["--N", str(n_ir), "--m", str(m_ir), "--delta", repr(delta_ir)],
        "perturbed-union": ["--s", "2", "--a", f"0,{a1}", "--epsilons", "0,0",
                            "--delta", repr(delta_pu)],
        "lattice-subset": ["--N", "14", "--M", "3", "--u", str(u_ls),
                           "--a", ",".join(map(str, rng.choice(plain)))],
        "lattice-subset-paired": ["--N", "14", "--M", "4", "--u", str(u_lsp),
                                  "--a", ",".join(map(str, rng.choice(paired)))],
        "residue-orthogonal": ["--s", str(s_ro), "--a", ",".join(map(str, a_ro))],
    }
    for method, args in constructions.items():
        cert_path = calls.path(f"{method}.json")
        calls.add(f"certify {method}", ["certify", method, *args, "--output", cert_path], 0,
                  lambda res, p=cert_path, want=method.replace("-", "_"):
                  [] if _file_doc(p)["method"] == want else [f"certificate is not {want}"])
        calls.add(f"verify {method}", ["verify", "--input", cert_path, "--seed", str(vseed)], 0,
                  lambda res: _verify_doc_problems(_stdout_doc(res), True))
        calls.add(f"report {method}", ["report", "--input", cert_path, "--seed", str(vseed)], 0,
                  lambda res: _verify_doc_problems(_stdout_doc(res), True)
                  + [f"regression {r['name']} failed" for r in _stdout_doc(res)["regressions"]
                     if not r["passed"]])

    ir_path = calls.path("interval-removal.json")
    verify_ir = ["verify", "--input", ir_path, "--seed", str(vseed)]

    def same_as_verify(res):
        first = ctx.outputs["verify interval-removal"].stdout
        return [] if res.stdout == first else ["stdout differs from the identical earlier call"]

    calls.add("verify interval-removal again", verify_ir, 0, same_as_verify)
    calls.add("verify interval-removal --seed over EXPOBASIS_SEED", verify_ir, 0,
              same_as_verify, seed_env=vseed + 1)

    def env_seed(res):
        got = _stdout_doc(res)["sample"]["seed"]
        return [] if got == vseed + 2 else [f"EXPOBASIS_SEED={vseed + 2} ignored: seed {got}"]

    calls.add("verify interval-removal EXPOBASIS_SEED", ["verify", "--input", ir_path], 0,
              env_seed, seed_env=vseed + 2)

    def oracle_check(res):
        doc = _stdout_doc(res)["oracle"]
        r = reference_of_doc(_file_doc(ir_path))
        lo_o, hi_o = doc["A_opt"] / doc["scale"], doc["B_opt"] / doc["scale"]
        if ref.close(lo_o, r.A_opt, r.B_opt) and ref.close(hi_o, r.B_opt, r.B_opt):
            return []
        return [f"oracle [{lo_o!r}, {hi_o!r}], node matrix [{r.A_opt!r}, {r.B_opt!r}]"]

    calls.add("oracle interval-removal", ["oracle", "--input", ir_path], 0, oracle_check)
    calls.add("regress", ["regress"], 0,
              lambda res: [f"regression {r['name']} failed"
                           for r in _stdout_doc(res)["regressions"] if not r["passed"]]
              + ([] if _stdout_doc(res)["verdict"] == "pass" else ["verdict not pass"]))

    def beta_check(res):
        rows = _stdout_doc(res)["beta"]
        bad = [row["M"] for row in rows
               if not ref.close(row["beta"], ref.shift_root(row["M"]), row["beta"])]
        return ([f"beta rows {bad} disagree with the window root"] if bad else []) + (
            [] if [row["M"] for row in rows] == list(range(2, 18)) else ["wrong M range"])

    calls.add("beta", ["beta", "--M", "2", "--M-max", "17"], 0, beta_check)

    def refusal(name):
        def check(res):
            return [] if f"[{name}]" in res.stderr else [f"stderr does not name {name}"]
        return check

    calls.add("certify interval-removal outside the window",
              ["certify", "interval-removal", "--N", str(n_ir), "--m", str(m_ir),
               "--delta", repr(hi * (1 + OUTSIDE))], 1, refusal("DeltaWindowError"))

    parent_path, comp_path = calls.path("parent.json"), calls.path("complement.json")
    calls.add("certify residue-orthogonal parent",
              ["certify", "residue-orthogonal", "--s", "1", "--a", "0", "--output", parent_path], 0)
    calls.add("certify complement", ["certify", "complement", "--Delta", "3", "--input",
                                     parent_path, "--output", comp_path], 0)
    calls.add("verify complement (negative control)",
              ["verify", "--input", comp_path, "--seed", str(vseed)], 2,
              lambda res: _verify_doc_problems(_stdout_doc(res), False))
    calls.add("verify malformed JSON", ["verify", "--input", '{"schema": "v1", "method": '], 3,
              refusal("JsonInputError"))
    return calls.ops


# --- entry points -----------------------------------------------------------------

def rng_for(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def build(name: str, seed: int, ctx: Context) -> list:
    """The fixed batch of one pass: the workload's inputs drawn from ``seed``."""
    rng = rng_for(name, seed)
    if name == "verify-contiguous":
        return verify_contiguous(rng)
    if name == "verify-scattered":
        return verify_scattered(rng)
    if name == "oracle-sweep":
        return oracle_sweep(rng)
    if name == "cli-roundtrip":
        return cli_roundtrip(rng, ctx)
    raise ValueError(f"unknown workload {name!r}")


def timed(op: Op, ctx: Context) -> tuple[float, Any, Exception | None]:
    """Run one operation; return its CPU seconds (user + system, of this
    process and of the CLI child it waited for), its output or exception."""
    child_cpu = ctx.child_cpu_s
    start = time.process_time()

    def spent():
        return time.process_time() - start + ctx.child_cpu_s - child_cpu

    try:
        out = op.run()
    except Exception as exc:  # an operation that raises has failed; the run goes on
        return spent(), None, exc
    return spent(), out, None
