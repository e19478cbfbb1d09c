"""Command-line front end, the program's only one.

Subcommands: construct, certify, oracle, verify, regress, beta, report.  The
five certificate subcommands (construct, certify, oracle, verify, report) get
their certificate one way: a method builds it from its options, or, with no
method, ``--input`` holds it.  Only verify and report sample the Gram form, so
only they take ``--seed``, ``--trials`` and ``--n-max``.  Exit codes: 0
success, 1 precondition failure (named error) or usage error, 2 verification
failure, 3 malformed JSON input.  ``EXPOBASIS_SEED`` overrides the default
seed; an explicit ``--seed`` wins over both.  Identical invocations with
identical seeds emit byte-identical reports.  Rational inputs are read
exactly: ``0.025`` and ``1/40`` are the same Fraction.  The methods, their
required options and the dispatch come from ``CONSTRUCTIONS``.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from . import constructions, jsonio
from .constructions import (
    CONSTRUCTIONS,
    FrameCertificate,
    MAX_BETA_M,
    METHODS,
    associated_matrix,
    certificate_from_json,
    certificate_to_json,
    solve_beta,
)
from .errors import JsonInputError, PreconditionError

if TYPE_CHECKING:  # numpy modules: the handlers that call verify and spectral import them
    from .vandermonde import NodeMatrix
    from .verify import VerificationReport


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise PreconditionError(f"expected comma-separated integers, got {text!r}") from exc


def _parse_rational(text: str) -> Fraction:
    """Exact Fraction for '1/24' or '0.025' (which is 1/40, not the float)."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise PreconditionError(f"cannot parse number {text!r}") from exc


def _parse_rational_list(text: str) -> list:
    return [_parse_rational(v) for v in text.split(",") if v.strip() != ""]


def _resolve_seed(args) -> int:
    from .verify import DEFAULT_SEED
    if args.seed is not None:
        return args.seed
    env = os.environ.get("EXPOBASIS_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise PreconditionError(f"EXPOBASIS_SEED must be an integer, got {env!r}") from exc
    return DEFAULT_SEED


def _load_input(value: str) -> dict:
    if value.lstrip().startswith("{"):
        return jsonio.loads(value)
    try:
        with open(value, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise PreconditionError(f"cannot read input {value!r}: {exc.strerror}") from exc
    return jsonio.loads(text)


#: how a construction input is read from its option's text; argparse already
#: reads the integer options
_READERS = {
    "a": _parse_int_list,
    "epsilons": _parse_rational_list,
    "delta": _parse_rational,
    "Delta": _parse_rational,
    "input": lambda text: certificate_from_json(_load_input(text)),
}


def _certificate_for(args) -> FrameCertificate:
    """The certificate a method builds, or without a method the one ``--input`` holds."""
    if args.method is None:
        if args.input is None:
            raise PreconditionError("provide a method or --input with a certificate")
        return _READERS["input"](args.input)
    builder, inputs = CONSTRUCTIONS[args.method.replace("-", "_")]
    missing = [f"--{name}" for name in inputs if getattr(args, name) is None]
    if missing:
        raise PreconditionError(f"method {args.method} requires {', '.join(missing)}")
    values = [_READERS.get(name, lambda v: v)(getattr(args, name)) for name in inputs]
    return getattr(constructions, builder)(*values)


def _matrix_summary(matrix: NodeMatrix | None, scale: float | None) -> dict | None:
    """The ``matrix`` field: the node matrix and its oracle scale, or None without one."""
    if matrix is None:
        return None
    return {
        "size": matrix.size,
        "nodes": list(matrix.nodes),
        "deltas": [float(d) for d in matrix.deltas],
        "oracle_scale": scale,
    }


def _oracle_doc(cert: FrameCertificate) -> dict | None:
    from .spectral import singular_values
    pair = associated_matrix(cert)
    if pair is None:
        return None
    matrix, scale = pair
    spectrum = singular_values(matrix)
    return {
        "values": list(spectrum.values),
        "condition": "numerically_singular" if spectrum.is_singular else "nonsingular",
        "A_opt": spectrum.sigma_min ** 2,
        "B_opt": spectrum.sigma_max ** 2,
        "scale": scale,
    }


def _verify_doc(cert: FrameCertificate, args) -> tuple[dict, VerificationReport]:
    from .verify import verify_certificate
    report = verify_certificate(cert, n_max=args.n_max, trials=args.trials,
                                seed=_resolve_seed(args))
    doc = {
        "schema": "v1",
        "certificate": certificate_to_json(cert),
        "oracle": None if report.oracle is None else {
            "A_opt": report.oracle_constants[0],
            "B_opt": report.oracle_constants[1],
            "scale": report.oracle_scale,
            "singular": report.oracle.is_singular,
        },
        "sample": {
            "min_ratio": report.sample.min_ratio,
            "max_ratio": report.sample.max_ratio,
            "trials": report.sample.trials,
            "seed": report.sample.seed,
            "n_max": report.sample.n_max,
        },
        "verdict": "pass" if report.ok else "fail",
        "violations": list(report.violations),
    }
    return doc, report


def _emit(doc, args) -> None:
    if args.format == "json":
        text = jsonio.dumps(doc)
    else:
        text = _render_text(doc) + "\n"
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise PreconditionError(f"cannot write output {args.output!r}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _render_text(doc, prefix: str = "") -> str:
    lines = []
    if isinstance(doc, dict):
        for k, v in doc.items():
            if isinstance(v, (dict, list)):
                lines.append(f"{prefix}{k}:")
                lines.append(_render_text(v, prefix + "  "))
            else:
                lines.append(f"{prefix}{k}: {v}")
    elif isinstance(doc, list):
        for v in doc:
            if isinstance(v, (dict, list)):
                lines.append(f"{prefix}-")
                lines.append(_render_text(v, prefix + "  "))
            else:
                lines.append(f"{prefix}- {v}")
    else:
        lines.append(f"{prefix}{doc}")
    return "\n".join(x for x in lines if x)


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("method", nargs="?", choices=[m.replace("_", "-") for m in METHODS],
                   help="construction to run (omit when --input carries a certificate)")
    p.add_argument("--s", type=int, help="number of unit intervals / branches")
    p.add_argument("--N", type=int, help="grid denominator (or block length)")
    p.add_argument("--M", type=int, help="number of retained intervals")
    p.add_argument("--m", type=int, help="index of the removed interval")
    p.add_argument("--u", type=int, help="integer separation shift")
    p.add_argument("--a", type=str, help="comma-separated integer left endpoints, e.g. 0,3,7")
    p.add_argument("--epsilons", type=str,
                   help="comma-separated rational perturbations, e.g. 0,1/3,-1/4")
    p.add_argument("--delta", type=str, help="spectral shift, read exactly (0.025 or 1/40)")
    p.add_argument("--Delta", type=str, help="length of the ambient block [0, Delta)")
    p.add_argument("--input", type=str, help="path to (or inline) JSON input")
    p.add_argument("--output", type=str, help="write the report here instead of stdout")
    p.add_argument("--format", choices=("json", "text"), default="json")


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, like a precondition failure: 2 means verification failed.

    A token that starts with a minus and a digit, or a minus, a point and a
    digit, is a value, not an option: ``--delta -1/1700`` and ``--delta -1e-3``
    parse like ``--delta -0.0005``, where argparse's own rule takes only
    ``-1`` and ``-0.5`` forms for values.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="expobasis",
        description="certified exponential Riesz bases on unions of unit intervals",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    for name, doc in (
        ("construct", "build a certified system and report certificate + matrix"),
        ("certify", "emit the certificate only"),
        ("oracle", "singular spectrum and optimal constants of the node matrix"),
        ("verify", "check a certificate against the oracle and Gram sampling"),
        ("report", "consolidated construct + oracle + verify + regressions"),
    ):
        p = sub.add_parser(name, help=doc)
        _add_common(p)
        if name in ("verify", "report"):  # the two that sample the Gram form
            p.add_argument("--seed", type=int, default=None,
                           help="sampling seed (default: EXPOBASIS_SEED or 42)")
            p.add_argument("--trials", type=int, default=128, help="sampling trials (default 128)")
            p.add_argument("--n-max", type=int, default=8, help="frequency truncation (default 8)")

    p = sub.add_parser("regress", help="re-run the built-in counterexample fixtures")
    p.add_argument("--output", type=str)
    p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("beta", help="shift-window root(s) beta for a range of M")
    p.add_argument("--M", type=int, required=True, help="single M, or range start with --M-max")
    p.add_argument("--M-max", type=int, default=None)
    p.add_argument("--output", type=str)
    p.add_argument("--format", choices=("json", "text"), default="json")
    return parser


#: Most rows one ``beta`` range solves before it prints any (10**4 fresh solves: ~3 s).
MAX_BETA_ROWS = 10**4


def _run(args) -> int:
    if args.subcommand == "regress":
        from .verify import regression_examples
        results = regression_examples()
        ok = all(r.passed for r in results)
        _emit({"schema": "v1",
               "regressions": [{"name": r.name, "passed": r.passed, "detail": r.detail}
                               for r in results],
               "verdict": "pass" if ok else "fail"}, args)
        return 0 if ok else 2

    if args.subcommand == "beta":
        m_hi = args.M if args.M_max is None else args.M_max
        if m_hi < args.M:
            raise PreconditionError("--M-max must be >= --M")
        if args.M_max is not None and (m_hi > MAX_BETA_M or m_hi - args.M >= MAX_BETA_ROWS):
            raise PreconditionError(f"need --M-max <= {MAX_BETA_M} and <= {MAX_BETA_ROWS} rows")
        rows = []
        for m in range(args.M, m_hi + 1):
            sol = solve_beta(m)
            rows.append({"M": m, "beta": sol.beta, "residual": sol.residual,
                         "iterations": sol.iterations})
        _emit({"schema": "v1", "beta": rows}, args)
        return 0

    cert = _certificate_for(args)

    if args.subcommand == "certify":
        _emit(certificate_to_json(cert), args)
        return 0

    if args.subcommand == "construct":
        matrix, scale = associated_matrix(cert) or (None, None)
        doc = {"schema": "v1", "certificate": certificate_to_json(cert),
               "matrix": _matrix_summary(matrix, scale)}
        _emit(doc, args)
        return 0

    if args.subcommand == "oracle":
        oracle = _oracle_doc(cert)
        if oracle is None:
            raise PreconditionError(f"no node-matrix oracle applies to method {cert.method!r}")
        _emit({"schema": "v1", "method": cert.method, "oracle": oracle}, args)
        return 0

    if args.subcommand == "verify":
        doc, report = _verify_doc(cert, args)
        _emit(doc, args)
        return 0 if report.ok else 2

    if args.subcommand == "report":
        from .verify import regression_examples
        doc, report = _verify_doc(cert, args)
        doc["matrix"] = _matrix_summary(report.matrix, report.oracle_scale)
        regs = regression_examples()
        doc["regressions"] = [{"name": r.name, "passed": r.passed} for r in regs]
        ok = report.ok and all(r.passed for r in regs)
        doc["verdict"] = "pass" if ok else "fail"
        _emit(doc, args)
        return 0 if ok else 2

    raise PreconditionError(f"unknown subcommand {args.subcommand!r}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except JsonInputError as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 3
    except PreconditionError as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
