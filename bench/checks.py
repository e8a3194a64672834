"""Correctness checks of the benchmark, computed apart from the code under test.

Each check reads the outputs of one op (plain numpy arrays and report
values) and recomputes what they must satisfy with its own numpy code: the
mod-8 sign table, pi(a) assembled from the layout's block sizes, the four
Lagrangian traces from the gauge fields.  A check returns a list of failure
messages, empty when it passes; `run_checks` tags each message with the
check's name, so the self-test can show that every named check fails once
one reported value is perturbed.
"""

from __future__ import annotations

import json
import math

import numpy as np

# (eps, eps', eps'') of KO-dimension d mod 8; eps'' only in even dimension
SIGN_TABLE = {
    0: (1, 1, 1), 1: (1, -1, None), 2: (-1, 1, -1), 3: (-1, 1, None),
    4: (-1, 1, 1), 5: (-1, -1, None), 6: (1, 1, -1), 7: (1, 1, None),
}

REL = 1e-9     # relative tolerance of every recomputed identity


def _norm(x):
    return float(np.linalg.norm(x))


def _close(a, b, scale):
    return abs(a - b) <= REL * max(1.0, scale)


def run_checks(checks, out):
    failures = []
    for name, fn in checks.items():
        failures += [f"{name}: {msg}" for msg in fn(out)]
    return failures


# ---------------------------------------------------------------------------
# axioms: one case = (triple arrays, verdicts, classification witness)


def pi_matrix(dims, vids, blocks):
    """pi(a) on the ordered sum of C^{n_i} (x) C^{n_j} blocks, row-major."""
    sizes = [dims[i - 1] * dims[j - 1] for (i, _p, j) in vids]
    out = np.zeros((sum(sizes), sum(sizes)), dtype=complex)
    off = 0
    for (i, _p, j), size in zip(vids, sizes):
        out[off:off + size, off:off + size] = np.kron(blocks[i - 1], np.eye(dims[j - 1]))
        off += size
    return out


def _real_structure(o):
    eps, eps_p, _ = SIGN_TABLE[o["d"]]
    K, D = o["K"], o["D"]
    eye = np.eye(K.shape[0])
    msgs = []
    r = _norm(K @ np.conj(K) - eps * eye)
    if r > REL:
        msgs.append(f"{o['case']}: |K conj(K) - eps| = {r:.3e}")
    r = _norm(K @ np.conj(D) - eps_p * D @ K)
    if r > REL * max(1.0, _norm(D)):
        msgs.append(f"{o['case']}: |K conj(D) - eps' D K| = {r:.3e}")
    return msgs


def _grading(o):
    if o["d"] % 2:
        return [] if o["gamma"] is None else [f"{o['case']}: grading present in odd dimension"]
    g, D, K = o["gamma"], o["D"], o["K"]
    eps_pp = SIGN_TABLE[o["d"]][2]
    msgs = []
    r = _norm(g @ D + D @ g)
    if r > REL * max(1.0, _norm(D)):
        msgs.append(f"{o['case']}: |gamma D + D gamma| = {r:.3e}")
    r = _norm(K @ np.conj(g) - eps_pp * g @ K)
    if r > REL:
        msgs.append(f"{o['case']}: |K conj(gamma) - eps'' gamma K| = {r:.3e}")
    return msgs


def _order_conditions(o):
    """Zero- and first-order conditions on the seeded random elements a, b."""
    dims, vids, K, D = o["dims"], o["vids"], o["K"], o["D"]
    msgs = []
    for a_blocks, b_blocks in o["elements"]:
        pa = pi_matrix(dims, vids, a_blocks)
        rb = K @ pi_matrix(dims, vids, b_blocks).T @ K.conj().T     # J pi(b)* J^-1
        scale = _norm(pa) * _norm(rb)
        r0 = _norm(pa @ rb - rb @ pa)
        if r0 > REL * max(1.0, scale):
            msgs.append(f"{o['case']}: zero-order residual {r0:.3e}")
        da = D @ pa - pa @ D
        r1 = _norm(da @ rb - rb @ da)
        if r1 > REL * max(1.0, _norm(D) * scale):
            msgs.append(f"{o['case']}: first-order residual {r1:.3e}")
    return msgs


def _verdicts(o):
    msgs = []
    if not o["validate_ok"]:
        msgs.append(f"{o['case']}: validate rejected a valid diagram")
    if not o["axioms_ok"]:
        msgs.append(f"{o['case']}: verify_axioms rejected a realized triple")
    if o["d"] not in o["detected"]:
        msgs.append(f"{o['case']}: detect_ko gave {sorted(o['detected'])}, missing {o['d']}")
    return msgs


def _witness_unitary(o):
    W = o["W"]
    r = _norm(W.conj().T @ W - np.eye(W.shape[0]))
    return [f"{o['case']}: |W* W - 1| = {r:.3e}"] if r > REL else []


def _classify_round_trip(o):
    """realize(classify(t)) equals the W-conjugate of t."""
    W, re = o["W"], o["reclassified"]
    Wh = W.conj().T
    pairs = [("D", Wh @ o["D"] @ W, re["D"]), ("K", Wh @ o["K"] @ np.conj(W), re["K"])]
    if o["gamma"] is not None:
        pairs.append(("gamma", Wh @ o["gamma"] @ W, re["gamma"]))
    msgs = []
    for name, want, got in pairs:
        if want.shape != got.shape:
            msgs.append(f"{o['case']}: re-realized {name} has shape {got.shape}")
            continue
        r = _norm(want - got)
        if r > 1e-8 * max(1.0, _norm(want)):
            msgs.append(f"{o['case']}: |realize(classify(t)).{name} - W-conjugate| = {r:.3e}")
    return msgs


AXIOMS_CHECKS = {
    "real structure signs": _real_structure,
    "grading signs": _grading,
    "order conditions": _order_conditions,
    "verdicts": _verdicts,
    "witness unitary": _witness_unitary,
    "classify round trip": _classify_round_trip,
}


# ---------------------------------------------------------------------------
# lift: one case = (phi_H matrix, gauge fields of both sides, action report)


def lagrangian(B, Phi, f0, f2, Lambda):
    """The four flat constant-field terms, by Frobenius norms.

    F_{mu nu} = i[B_mu, B_nu] and i[B_mu, Phi] are Hermitian, so their
    squared traces are squared Frobenius norms; F is antisymmetric in
    (mu, nu), so each unordered pair counts twice.
    """
    trF2 = 2.0 * sum(_norm(B[m] @ B[n] - B[n] @ B[m]) ** 2 for m in range(4) for n in range(m + 1, 4))
    trPhi2 = _norm(Phi) ** 2
    trPhi4 = _norm(Phi @ Phi) ** 2
    trDPhi2 = sum(_norm(b @ Phi - Phi @ b) ** 2 for b in B)
    c = 1.0 / (8 * math.pi ** 2)
    return {
        "trF2": f0 / 3.0 * c * trF2,
        "trPhi2": -4.0 * f2 * Lambda ** 2 * c * trPhi2,
        "trPhi4": f0 * c * trPhi4,
        "trDPhi2": f0 * c * trDPhi2,
    }


def _isometry(o):
    M = o["M"]
    r = _norm(M.conj().T @ M - np.eye(M.shape[1]))
    return [f"{o['case']}: |phi_H* phi_H - 1| = {r:.3e}"] if r > REL else []


def _lagrangian_values(o):
    """Report's full / inherited / A-side values against recomputed traces."""
    M = o["M"]
    pull = lambda X: M.conj().T @ X @ M
    f0, f2, lam = o["f0"], o["f2"], o["Lambda"]
    want = {
        "full": lagrangian(o["B_B"], o["Phi_B"], f0, f2, lam),
        "inherited": lagrangian([pull(b) for b in o["B_B"]], pull(o["Phi_B"]), f0, f2, lam),
        "a_value": lagrangian(o["B_A"], o["Phi_A"], f0, f2, lam),
    }
    msgs = []
    for term in ("trF2", "trPhi2", "trPhi4", "trDPhi2"):
        got = o["terms"].get(term)
        if got is None:
            msgs.append(f"{o['case']}: report lacks term {term}")
            continue
        for col, vals in want.items():
            if not _close(got[col], vals[term], abs(vals[term])):
                msgs.append(f"{o['case']}: {term}.{col} = {got[col]!r}, recomputed {vals[term]!r}")
    return msgs


def _inherited_is_source(o):
    msgs = []
    for name, t in o["terms"].items():
        if not _close(t["inherited"], t["a_value"], abs(t["a_value"])):
            msgs.append(f"{o['case']}: {name} inherited {t['inherited']!r} != A-side {t['a_value']!r}")
    return msgs


def _tnic_split(o):
    msgs = []
    for name, t in o["terms"].items():
        if not _close(t["tnic"], t["full"] - t["inherited"], max(abs(t["full"]), abs(t["inherited"]))):
            msgs.append(f"{o['case']}: {name} tnic {t['tnic']!r} != full - inherited")
    return msgs


LIFT_CHECKS = {
    "phi_H isometry": _isometry,
    "lagrangian traces": _lagrangian_values,
    "inherited equals source": _inherited_is_source,
    "tnic split": _tnic_split,
}


# ---------------------------------------------------------------------------
# cli: one op = (exit code, stdout); bundle checks once per run


def _exit_and_json(o):
    if "rc" not in o:
        return []
    if o["rc"] != 0:
        return [f"{o['case']}: exit code {o['rc']}"]
    text = o["stdout"]
    if o["dot"]:
        ok = text.lstrip().startswith(("digraph", "graph")) and text.count("{") == text.count("}") > 0
        return [] if ok else [f"{o['case']}: output is not DOT"]
    try:
        json.loads(text)
    except ValueError as exc:
        return [f"{o['case']}: output is not JSON ({exc})"]
    return []


def _normalized_bundle(o):
    M = o.get("normalized_M")
    if M is None:
        return []
    r = _norm(M.conj().T @ M - np.eye(M.shape[1]))
    return [f"{o['case']}: phi_H of the written bundle: |M* M - 1| = {r:.3e}"] if r > REL else []


def _byte_stable(o):
    if "saved_twice" not in o:
        return []
    first, second = o["saved_twice"]
    return [] if first == second else [f"{o['case']}: save -> load -> save changed the bytes"]


CLI_CHECKS = {
    "exit 0 and parseable output": _exit_and_json,
    "normalized bundle isometric": _normalized_bundle,
    "save load save byte-identical": _byte_stable,
}
