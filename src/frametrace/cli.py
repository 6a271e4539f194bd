"""Command-line front door: batch verification runs with JSON reports.

Exit codes: 0 all checks pass, 1 some check fails, 2 malformed input or out of memory.
Sampling is seeded (numpy PCG64 via default_rng) so reports are reproducible;
identical inputs and seed give byte-identical report files.
"""
from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import io as ftio
from .commutant import tracial_check
from .errors import FrametraceError, NotAFrame, NotInRange, NotInvertible, UnsupportedGroup
from .frames import (
    CoefficientOperator,
    InvariantProjection,
    admissibility_defect,
    admissible_check,
    canonical_dual,
    projection_from_spanning,
    regular_coefficient_matrix,
    tighten,
    trace_of_projection,
)
from .gabor import (
    GaborSystem,
    gabor_canonical_dual,
    gabor_reconstruction_check,
    reference_window,
    wexler_raz_check,
    wh_bridge_check,
    wh_group_build,
)
from .groups import GroupVector, builtin_group, delta
from .numerics import DEFAULT_TOL
from .plancherel import (
    builtin_irreps,
    fiber_admissibility_check,
    fiber_projections,
    parseval_residual,
    rank_measure,
)
from .reporting import CheckResult, RunReport, digest_text, report_dumps


class _CliInputError(Exception):
    pass


def _resolve_tol(args) -> float:
    env = os.environ.get("FRAMETRACE_TOL")
    if args.tol is not None:
        tol = args.tol
    elif env:
        try:
            tol = float(env)
        except ValueError as exc:
            raise _CliInputError(f"bad FRAMETRACE_TOL value {env!r}") from exc
    else:
        return DEFAULT_TOL
    if not (np.isfinite(tol) and tol > 0.0):
        raise _CliInputError(f"tolerance must be a finite positive number, got {tol!r}")
    return tol


def _reader(report: RunReport):
    """``read(key, path)``: the Document of a file opened once per job, its digest as inputs[key]."""
    docs = {}

    def read(key: str, path) -> ftio.Document:
        if path not in docs:
            docs[path] = ftio.read_document(path)
        report.inputs[key] = docs[path].digest
        return docs[path]

    return read


def _resolve_group(report: RunReport, read, spec, path):
    """The builtin group of ``spec`` (its digest is inputs["group"]); without one, the file at ``path``."""
    if not spec and path:
        return ftio.load_group(read("group", path))
    if spec is None:
        raise _CliInputError("one of --builtin or --file is required")
    report.inputs["group"] = digest_text(spec)
    return builtin_group(spec)


def _finish(report: RunReport, args) -> int:
    text = report_dumps(report)
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if report.overall_pass else 1


# ---------------------------------------------------------------------------
# frametrace group


def _trace_identity_residuals(group, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """|tr(V_f^* V_g) - <f, g>| / (1 + |<f, g>|) for each row of the (k, |G|) stacks f, g.

    tr(V_f^* V_g) is the Frobenius product sum_{x,y} f(x^-1 y) conj g(x^-1 y) / |G|;
    grouped by z = x^-1 y it is sum_z N(z) f(z) conj g(z) / |G|, where N(z) counts
    the pairs (x, y) with x^-1 y = z in the loaded table (|G| for every z in a group).
    """
    counts = np.bincount(group.cayley[group.inverses].ravel(), minlength=group.order)
    prod = f * g.conj()
    rhs = prod.sum(axis=-1)  # <f, g>
    return np.abs(prod @ counts / group.order - rhs) / (1.0 + np.abs(rhs))


def cmd_group(args) -> int:
    tol = _resolve_tol(args)
    report = RunReport(seed=args.seed)
    read = _reader(report)
    group = _resolve_group(report, read, args.builtin, args.file)
    rng = np.random.default_rng(args.seed)
    report.metadata["group"] = group.label or "<file>"
    report.metadata["order"] = group.order

    report.metadata["commutant_dim"] = group.order  # the right translations: R_x delta_e = delta_x

    # Trace identity sampling: tr(V_f^* V_g) = <f, g> on 20 pairs, drawn as one
    # stack in the order re f, im f, re g, im g of each pair.
    z = rng.standard_normal((20, 4, group.order))
    f, g = z[:, 0] + 1j * z[:, 1], z[:, 2] + 1j * z[:, 3]
    worst = np.max(_trace_identity_residuals(group, f, g))
    report.add(CheckResult(name="trace_identity_sampled", residual=float(worst), tol=tol))

    table = None
    if args.irreps:
        table = ftio.load_irreps(read("irreps", args.irreps), group)
    else:
        try:
            table = builtin_irreps(group)
        except UnsupportedGroup:
            report.metadata["irreps"] = "unavailable"
    if table is not None:
        report.metadata["irreps"] = len(table.irreps)
        report.metadata["irrep_dims"] = sorted(table.dims())
        report.add(
            CheckResult(
                name="irrep_completeness",
                residual=float(abs(sum(d * d for d in table.dims()) - group.order)),
                tol=0.0,
            )
        )
        z = rng.standard_normal((20, 2, group.order))
        f = z[:, 0] + 1j * z[:, 1]
        worst = np.max(parseval_residual(table, f) / (1.0 + np.linalg.norm(f, axis=1) ** 2))
        report.add(CheckResult(name="parseval_sampled", residual=float(worst), tol=tol))
    return _finish(report, args)


# ---------------------------------------------------------------------------
# frametrace frame


def _frame_context(args, report: RunReport, read):
    """Resolve the group (by default the spec the window file names), the window vector and the subspace."""
    spec = args.builtin
    if not spec and not args.group_file:
        spec = ftio.load_label(read("window", args.window))
    obj_group = _resolve_group(report, read, spec, args.group_file)
    window = ftio.load_vector(read("window", args.window), obj_group)
    if args.subspace:
        vectors = ftio.load_vectors(read("subspace", args.subspace), obj_group)
        proj = projection_from_spanning(obj_group, [v.data for v in vectors])
    else:
        proj = InvariantProjection(delta(obj_group, obj_group.identity), np.eye(obj_group.order, dtype=complex))
    return obj_group, window, proj


def cmd_frame(args) -> int:
    tol = _resolve_tol(args)
    report = RunReport(seed=args.seed)
    read = _reader(report)
    group, window, proj = _frame_context(args, report, read)
    report.metadata["group"] = group.label
    report.metadata["subcommand"] = args.action

    if args.action in ("dual", "tighten"):
        q = proj.range_basis()  # the frame operator is inverted on range(p), in these coordinates
        v = CoefficientOperator(
            vector=q.conj().T @ window.data,
            matrix=regular_coefficient_matrix(group, window.data) @ q,
        )
        try:
            out_c = canonical_dual(v) if args.action == "dual" else tighten(v)
        except NotInvertible:
            report.add(CheckResult(name=f"{args.action}_not_a_frame", residual=1.0, tol=0.0))
            return _finish(report, args)
        out = q @ out_c
        partner = out if args.action == "tighten" else window.data
        check = admissible_check(group, admissibility_defect(proj, partner, out), tol)
        report.add(check.renamed(f"{args.action}_reconstruction"))
        if args.out_vector:
            ftio.save_vector(GroupVector(group, out), args.out_vector)
    elif args.action == "check":
        eta_doc, psi_doc = read("eta", args.pair[0]), read("psi", args.pair[1])
        eta, psi = ftio.load_vector(eta_doc, group), ftio.load_vector(psi_doc, group)
        d = admissibility_defect(proj, eta.data, psi.data)  # one defect for both residuals
        report.add(admissible_check(group, d, tol))
        report.add(tracial_check(group, d, tol))
        try:
            table = builtin_irreps(group)
            report.add(fiber_admissibility_check(table, proj, eta, psi, tol=tol))
        except UnsupportedGroup:
            report.metadata["fiber_check"] = "skipped: no irreps available"
        except NotInRange as exc:
            report.add(CheckResult(name="fiber_admissibility_in_range", residual=1.0, tol=0.0))
            report.metadata["fiber_check"] = str(exc)
    elif args.action == "decompose":
        table = builtin_irreps(group)
        field = fiber_projections(table, proj, tol=tol)
        nu = rank_measure(field)
        report.metadata["fiber_ranks"] = {s.label: r for s, r in zip(table.irreps, field.ranks)}
        report.metadata["rank_measure"] = nu
        report.add(
            CheckResult(
                name="rank_measure_vs_trace",
                residual=float(abs(nu - trace_of_projection(proj))),
                tol=tol,
            )
        )
    else:
        raise _CliInputError(f"unknown frame action {args.action!r}")
    return _finish(report, args)


# ---------------------------------------------------------------------------
# frametrace gabor


def cmd_gabor(args) -> int:
    tol = _resolve_tol(args)
    report = RunReport(seed=args.seed)
    length, a, b = args.L, args.a, args.b
    report.inputs["lattice"] = digest_text(f"L={length},a={a},b={b}")
    report.metadata["lattice"] = {"L": length, "a": a, "b": b}
    report.metadata["subcommand"] = args.action
    rng = np.random.default_rng(args.seed)
    read = _reader(report)

    def load_sys(path, key):
        sys_ = ftio.load_window(read(key, path))
        if (sys_.L, sys_.a, sys_.b) != (length, a, b):
            raise ftio.MalformedInput(f"{path}: lattice parameters disagree with flags")
        return sys_

    if args.action == "reference":
        g0 = reference_window(length, a, b)
        sys_ = GaborSystem(L=length, a=a, b=b, window=g0)
        report.add(gabor_reconstruction_check(sys_, g0, tol).renamed("reference_window_tight"))
        if args.out_window:
            ftio.save_window(sys_, args.out_window)
    elif args.action == "dual":
        sys_ = load_sys(args.window, "window")
        try:
            gamma = gabor_canonical_dual(sys_)
        except NotAFrame as exc:
            report.add(CheckResult(name="dual_not_a_frame", residual=1.0, tol=0.0))
            report.metadata["frame_bounds_ratio"] = exc.ratio
            return _finish(report, args)
        report.add(gabor_reconstruction_check(sys_, gamma, tol).renamed("dual_reconstruction"))
        report.add(wexler_raz_check(sys_, gamma, tol=tol))
        if args.out_window:
            ftio.save_window(GaborSystem(length, a, b, gamma), args.out_window)
    elif args.action == "wexler-raz":
        sys_ = load_sys(args.window, "window")
        cand = load_sys(args.candidate, "candidate")
        report.add(wexler_raz_check(sys_, cand.window, tol=tol))
        check = gabor_reconstruction_check(sys_, cand.window, tol)
        report.add(check.renamed("reconstruction_crosscheck"))
        report.metadata["wexler_raz_constant"] = a * b / length
    elif args.action == "bridge":
        wh = wh_group_build(length, a, b)
        report.metadata["wh_order"] = wh.order
        report.metadata["wh_central_order"] = wh.q
        report.add(CheckResult(name="wh_group_axioms", residual=wh.law_residual(), tol=tol))
        def window_or_draw(path, key):  # f is drawn before g
            return (load_sys(path, key).window if path
                    else rng.standard_normal(length) + 1j * rng.standard_normal(length))
        f, g = window_or_draw(args.window, "window"), window_or_draw(args.candidate, "candidate")
        report.add(wh_bridge_check(wh, f, g, tol=tol))
    else:
        raise _CliInputError(f"unknown gabor action {args.action!r}")
    return _finish(report, args)


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="frametrace")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="write the JSON report here")

    g = sub.add_parser("group", help="validate a group and its spectral data")
    g.add_argument("action", choices=["analyze"])
    source = g.add_mutually_exclusive_group()
    source.add_argument("--builtin", default=None)
    source.add_argument("--file", default=None)
    g.add_argument("--irreps", default=None)
    common(g)

    f = sub.add_parser("frame", help="dual windows, admissibility and decomposition")
    f.add_argument("action", choices=["dual", "check", "tighten", "decompose"])
    f.add_argument("--window", required=True)
    f.add_argument("--subspace", default=None)
    f.add_argument("--pair", nargs=2, metavar=("ETA", "PSI"), default=None)
    source = f.add_mutually_exclusive_group()
    source.add_argument("--builtin", default=None)
    source.add_argument("--group-file", default=None)
    f.add_argument("--out-vector", default=None)
    common(f)

    gb = sub.add_parser("gabor", help="finite Weyl-Heisenberg systems")
    gb.add_argument("action", choices=["dual", "wexler-raz", "reference", "bridge"])
    gb.add_argument("--L", type=int, required=True)
    gb.add_argument("--a", type=int, required=True)
    gb.add_argument("--b", type=int, required=True)
    gb.add_argument("--window", default=None)
    gb.add_argument("--candidate", default=None)
    gb.add_argument("--out-window", default=None)
    common(gb)
    return parser


#: The parser of every ``main`` call in this process, built on the first one; it depends on no input.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "frame" and args.action == "check" and not args.pair:
        print("frame check requires --pair ETA PSI", file=sys.stderr)
        return 2
    if args.command == "gabor" and args.action in ("dual", "wexler-raz") and not args.window:
        print(f"gabor {args.action} requires --window", file=sys.stderr)
        return 2
    if args.command == "gabor" and args.action == "wexler-raz" and not args.candidate:
        print("gabor wexler-raz requires --candidate", file=sys.stderr)
        return 2
    # Looked up per call, so a replaced cmd_* function is the one that runs.
    commands = {"group": cmd_group, "frame": cmd_frame, "gabor": cmd_gabor}
    try:
        return commands[args.command](args)
    except (_CliInputError, FrametraceError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
