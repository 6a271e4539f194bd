"""Acceptance gate: nine numbered criteria, one pass/fail line each.

Groups under test: cyclic:12, dihedral:4, heisenberg:3 (order 27) and the
finite Weyl-Heisenberg group of the (L, a, b) = (12, 3, 2) lattice (order 48).
"""
import json

import numpy as np
import pytest

from frametrace.cli import main as cli_main
from frametrace.commutant import (
    commutant_of_matrices,
    is_tracial_pair,
    reduced_commutant,
    regular_commutant_basis,
)
from frametrace.frames import (
    admissible_vector_for_projection,
    canonical_dual,
    coefficient_operator,
    dual_null_space,
    is_admissible_pair,
    is_frame_vector,
    natural_trace,
    tighten,
    trace_of_projection,
)
from frametrace.gabor import (
    GaborSystem,
    adjoint_lattice_ops,
    gabor_canonical_dual,
    gabor_coefficient_map,
    gabor_frame_operator,
    lattice_ops,
    reference_window,
    wexler_raz_check,
    wh_bridge_check,
    wh_group_build,
    wh_rep,
    wr_fundamental_relation_check,
)
from frametrace.groups import (
    GroupVector,
    builtin_group,
    convolution_operator,
    delta,
    left_regular_rep,
    restrict_rep,
)
from frametrace.plancherel import (
    builtin_irreps,
    fiber_admissibility_check,
    fiber_projections,
    inverse_plancherel,
    parseval_residual,
    plancherel_transform,
    projection_from_fibers,
    rank_measure,
)
from frametrace import io as ftio

from oracles import random_invariant_projection, random_invariant_projection_spectral

BUILTIN_SPECS = ["cyclic:12", "dihedral:4", "heisenberg:3"]


def all_test_groups():
    groups = [builtin_group(s) for s in BUILTIN_SPECS]
    groups.append(wh_rep(wh_group_build(12, 3, 2)).group)
    return groups


def table_groups():
    return [(builtin_group(s), builtin_irreps(builtin_group(s))) for s in BUILTIN_SPECS]


def rand_c(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def announce(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}  {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def random_projection_for(group, table, rng):
    """Random invariant projection with 0 < rank < |G|."""
    while True:
        if table is not None:
            p = random_invariant_projection(table, rng)
        else:
            p = random_invariant_projection_spectral(group, rng)
        if 0 < p.rank() < group.order:
            return p


def test_criterion_1_trace_identity():
    rng = np.random.default_rng(101)
    worst = 0.0
    for group in all_test_groups():
        lam = left_regular_rep(group)
        for _ in range(200):
            f = rand_c(rng, group.order)
            g = rand_c(rng, group.order)
            vf = coefficient_operator(lam, f).matrix
            vg = coefficient_operator(lam, g).matrix
            lhs = natural_trace(vf.conj().T @ vg, group)
            rhs = np.vdot(g, f)  # <f, g>
            worst = max(worst, abs(lhs - rhs) / (1.0 + abs(rhs)))
    announce(1, worst <= 1e-9, f"trace identity, max residual {worst:.3e}")


def test_criterion_2_dual_lemma_suite():
    rng = np.random.default_rng(102)
    worst_intertwine = 0.0
    worst_recon = 0.0
    worst_orth = 0.0
    worst_tight = 0.0
    for group in all_test_groups():
        lam = left_regular_rep(group)
        for _ in range(20):
            eta = rand_c(rng, group.order)
            v = coefficient_operator(lam, eta)
            for x in group.elements():
                worst_intertwine = max(
                    worst_intertwine,
                    np.linalg.norm(v.matrix @ lam.matrices[x] - lam.matrices[x] @ v.matrix),
                )
            psi = canonical_dual(v)
            worst_recon = max(worst_recon, is_admissible_pair(lam, eta, psi).residual)
            t = tighten(v)
            worst_tight = max(worst_tight, is_admissible_pair(lam, t, t).residual)
    # null-set orthogonality needs a subrepresentation where W is nontrivial:
    # a single copy of a higher-dimensional irrep (multiplicity < dimension)
    for group, table in table_groups():
        big = max(table.irreps, key=lambda s: s.dim)
        if big.dim < 2:
            continue
        u = rand_c(rng, big.dim).reshape(-1, 1)
        q1, _ = np.linalg.qr(u)
        blocks = [
            q1 @ q1.conj().T if s.label == big.label else np.zeros((s.dim, s.dim))
            for s in table.irreps
        ]
        p = projection_from_fibers(table, blocks)
        q = p.range_basis()
        rep = restrict_rep(left_regular_rep(group), [q[:, j] for j in range(q.shape[1])])
        eta = rand_c(rng, rep.dim)
        psi = canonical_dual(coefficient_operator(rep, eta))
        w_basis = dual_null_space(rep, eta)
        assert w_basis.shape[1] > 0
        for _ in range(20):
            w = w_basis @ rand_c(rng, w_basis.shape[1])
            worst_orth = max(
                worst_orth,
                abs(np.vdot(w, psi)) / (np.linalg.norm(psi) * np.linalg.norm(w)),
            )
            assert np.linalg.norm(psi) <= np.linalg.norm(psi + w) + 1e-12
    ok = (
        worst_intertwine <= 1e-10
        and worst_recon <= 1e-9
        and worst_orth <= 1e-9
        and worst_tight <= 1e-9
    )
    announce(
        2,
        ok,
        f"intertwine {worst_intertwine:.3e}, dual recon {worst_recon:.3e}, "
        f"null-set orth {worst_orth:.3e}, tighten {worst_tight:.3e}",
    )


def test_criterion_3_admissible_vector_construction():
    rng = np.random.default_rng(103)
    worst_op = 0.0
    worst_tr = 0.0
    tables = {g.label: t for g, t in table_groups()}
    for group in all_test_groups():
        lam = left_regular_rep(group)
        table = tables.get(group.label)
        for _ in range(20):
            p = random_projection_for(group, table, rng)
            v = admissible_vector_for_projection(p)
            vv = coefficient_operator(lam, v.data)
            worst_op = max(
                worst_op, np.linalg.norm(vv.matrix.conj().T @ vv.matrix - convolution_operator(p.h))
            )
            worst_tr = max(worst_tr, abs(trace_of_projection(p) - v.norm() ** 2))
    ok = worst_op <= 1e-9 and worst_tr <= 1e-9
    announce(3, ok, f"projection residual {worst_op:.3e}, trace match {worst_tr:.3e}")


def test_criterion_4_admissible_iff_tracial():
    rng = np.random.default_rng(104)
    tables = {g.label: t for g, t in table_groups()}
    checked = 0
    for group in all_test_groups():
        lam = left_regular_rep(group)
        table = tables.get(group.label)
        p = random_projection_for(group, table, rng)
        q = p.range_basis()
        rep = restrict_rep(lam, [q[:, j] for j in range(q.shape[1])])
        red = reduced_commutant(regular_commutant_basis(group), p)
        for k in range(100):
            while True:
                eta_c = rand_c(rng, rep.dim)
                v = coefficient_operator(rep, eta_c)
                if is_frame_vector(v):
                    break
            psi_c = canonical_dual(v)
            perturbed = bool(k % 2)
            if perturbed:
                size = 10.0 ** rng.uniform(-6, -2)
                psi_c = psi_c + size * np.linalg.norm(psi_c) * rand_c(rng, rep.dim)
            adm = is_admissible_pair(rep, eta_c, psi_c)
            tra = is_tracial_pair(red, group, q @ eta_c, q @ psi_c)
            assert adm.passed == tra.passed, (
                group.label, k, adm.residual, tra.residual)
            assert adm.passed == (not perturbed), (
                group.label, k, perturbed, adm.residual)
            checked += 1
    announce(4, checked == 400, f"admissible/tracial agreement on {checked} pairs")


def test_criterion_5_plancherel_suite():
    rng = np.random.default_rng(105)
    worst_parseval = 0.0
    worst_round = 0.0
    complete = True
    for group, table in table_groups():
        complete = complete and sum(d * d for d in table.degrees) == group.order
        for _ in range(200):
            f = GroupVector(group, rand_c(rng, group.order))
            worst_parseval = max(worst_parseval, parseval_residual(table, f))
        for _ in range(20):
            f = GroupVector(group, rand_c(rng, group.order))
            back = inverse_plancherel(plancherel_transform(table, f))
            worst_round = max(worst_round, float(np.linalg.norm(back.data - f.data)))
    ok = worst_parseval <= 1e-9 and worst_round <= 1e-10 and complete
    announce(
        5,
        ok,
        f"parseval {worst_parseval:.3e}, roundtrip {worst_round:.3e}, "
        f"completeness {'exact' if complete else 'BROKEN'}",
    )


def test_criterion_6_fiber_criterion_and_rank_measure():
    rng = np.random.default_rng(106)
    worst_rank = 0.0
    pairs_checked = 0
    for group, table in table_groups():
        lam = left_regular_rep(group)
        for _ in range(20):
            p = random_projection_for(group, table, rng)
            field = fiber_projections(table, p)
            worst_rank = max(
                worst_rank,
                abs(rank_measure(field) - natural_trace(convolution_operator(p.h), group).real),
            )
        for _ in range(5):
            p = random_projection_for(group, table, rng)
            q = p.range_basis()
            rep = restrict_rep(lam, [q[:, j] for j in range(q.shape[1])])
            while True:
                eta_c = rand_c(rng, rep.dim)
                v = coefficient_operator(rep, eta_c)
                if is_frame_vector(v):
                    break
            psi_c = canonical_dual(v)
            eta = GroupVector(group, q @ eta_c)
            psi = GroupVector(group, q @ psi_c)
            fib = fiber_admissibility_check(table, p, eta, psi)
            adm = is_admissible_pair(rep, eta_c, psi_c)
            assert fib.passed and adm.passed, (group.label, fib.residual, adm.residual)
            size = 10.0 ** rng.uniform(-5, -2)
            bad_c = psi_c + size * np.linalg.norm(psi_c) * rand_c(rng, rep.dim)
            bad = GroupVector(group, q @ bad_c)
            fib_bad = fiber_admissibility_check(table, p, eta, bad)
            adm_bad = is_admissible_pair(rep, eta_c, bad_c)
            assert (not fib_bad.passed) and (not adm_bad.passed)
            pairs_checked += 1
    ok = worst_rank <= 1e-9 and pairs_checked == 15
    announce(6, ok, f"rank measure residual {worst_rank:.3e}, {pairs_checked} pairs")


def test_criterion_7_gabor_suite():
    rng = np.random.default_rng(107)
    details = []
    ok = True
    for length, a, b in [(12, 3, 2), (4, 2, 2)]:
        g0 = reference_window(length, a, b)
        sys0 = GaborSystem(L=length, a=a, b=b, window=g0)
        tight = float(np.linalg.norm(gabor_frame_operator(sys0) - np.eye(length)))
        ok = ok and tight <= 1e-10

        g = rand_c(rng, length)
        sys_ = GaborSystem(L=length, a=a, b=b, window=g)
        gamma0 = gabor_canonical_dual(sys_)
        wr = wexler_raz_check(sys_, gamma0, tol=1e-9)
        const = np.vdot(sys_.window, gamma0)
        ok = ok and wr.passed and abs(const - a * b / length) <= 1e-9

        v_g = gabor_coefficient_map(sys_)
        agreement = True
        for k in range(50):
            if k % 2 == 0:
                eps = 0.0 if k == 0 else 1e-13
            else:
                eps = 10.0 ** rng.uniform(-6, -1)
            cand = gamma0 + eps * rand_c(rng, length)
            wr_k = wexler_raz_check(sys_, cand, tol=1e-9)
            v_c = gabor_coefficient_map(GaborSystem(L=length, a=a, b=b, window=cand))
            recon = float(np.linalg.norm(v_c.conj().T @ v_g - np.eye(length))) <= 1e-9
            agreement = agreement and (wr_k.passed == recon)
        ok = ok and agreement

        comm = commutant_of_matrices(np.array(lattice_ops(length, a, b)))
        adj = adjoint_lattice_ops(length, a, b)
        dim_match = len(comm) == len(adj) == a * b
        stack_c = np.column_stack([t.reshape(-1) for t in comm])
        stack_a = np.linalg.qr(np.column_stack([t.reshape(-1) for t in adj]))[0]
        mutual = 0.0
        for s_from, s_to in [(stack_a, stack_c), (stack_c, stack_a)]:
            for j in range(s_from.shape[1]):
                vcol = s_from[:, j]
                mutual = max(
                    mutual, np.linalg.norm(s_to @ (s_to.conj().T @ vcol) - vcol)
                )
        ok = ok and dim_match and mutual <= 1e-9

        worst_rel = 0.0
        for _ in range(50):
            f, gg, h = (rand_c(rng, length) for _ in range(3))
            worst_rel = max(
                worst_rel, wr_fundamental_relation_check(length, a, b, f, gg, h).residual
            )
        ok = ok and worst_rel <= 1e-9
        details.append(
            f"L={length}: tight {tight:.1e}, WR const {const.real:.3f}, "
            f"equiv {'ok' if agreement else 'BROKEN'}, commutant mutual {mutual:.1e}, "
            f"relation {worst_rel:.1e}"
        )
    announce(7, ok, "; ".join(details))


def test_criterion_8_wh_bridge():
    rng = np.random.default_rng(108)
    wh = wh_group_build(12, 3, 2)
    assert wh.law_residual() <= 1e-13  # the law on the generators, from the operator formula
    rep = wh_rep(wh)  # validates the full table
    rep.validate(1e-9)
    worst = 0.0
    for _ in range(20):
        f, g = rand_c(rng, 12), rand_c(rng, 12)
        worst = max(worst, wh_bridge_check(wh, f, g).residual)
    announce(8, worst <= 1e-9, f"order {rep.group.order}, bridge residual {worst:.3e}")


def test_criterion_9_cli_contract(tmp_path):
    # exit 0: passing run
    out1 = tmp_path / "ok.json"
    code0 = cli_main(["group", "analyze", "--builtin", "dihedral:4", "--out", str(out1)])

    # exit 1: failing check (scaled pair is not admissible)
    g = builtin_group("cyclic:4")
    e = delta(g, g.identity)
    p_eta = tmp_path / "eta.json"
    p_psi = tmp_path / "psi.json"
    ftio.save_vector(e, p_eta)
    ftio.save_vector(GroupVector(g, 2 * e.data), p_psi)
    code1 = cli_main(
        ["frame", "check", "--window", str(p_eta), "--pair", str(p_eta), str(p_psi)]
    )

    # exit 2: malformed input
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"label": "x", "order": 2, "cayley": [[0, 1], [1, 1]]}))
    code2 = cli_main(["group", "analyze", "--file", str(bad)])

    # determinism: identical seeded runs give byte-identical reports
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    args = ["group", "analyze", "--builtin", "heisenberg:3", "--seed", "11"]
    cli_main(args + ["--out", str(r1)])
    cli_main(args + ["--out", str(r2)])
    deterministic = r1.read_bytes() == r2.read_bytes()

    ok = (code0, code1, code2) == (0, 1, 2) and deterministic
    announce(
        9,
        ok,
        f"exit codes {(code0, code1, code2)}, deterministic={deterministic}",
    )
