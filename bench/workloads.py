"""The three workloads: seeded inputs, the ops of one pass, and their checks.

Every run does whole passes over one fixed list of ops, generated from the
seed once per run, so the mix of work is the same in every run:

  axioms  one op = realize -> validate -> verify_axioms -> detect_ko ->
          classify over every diagram of the case list (d = 0..7);
  lift    one op = real_grading_check -> diagonalize_bases -> normalize ->
          inherit_source_dirac -> realize -> GaugeConfiguration.from_forms
          -> compare_actions (configurations and fermions) over every step;
  cli     one op = one in-process `finspec --format json ...` command; one
          pass = one cycle of twelve commands over a seeded bundle.

The ops call finspec through module attributes (`kj.realize`, not a name
bound at import), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json

import numpy as np

import cases
import checks
from finspec import action as ac
from finspec import bundle as bd
from finspec import cli
from finspec import differential as df
from finspec import krajewski as kj
from finspec import lifting as lf


class OpFailed(RuntimeError):
    """An op ended without the result its contract promises."""


def _same(a, b, rel=1e-9):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and bool(np.allclose(a, b, rtol=rel, atol=rel * max(1.0, float(np.abs(b).max(initial=0.0)))))


def _element_blocks(rng, dims):
    return [(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) for n in dims]


class Workload:
    name = ""
    checks = {}

    def __init__(self, seed, size, workdir):
        self.seed, self.size, self.workdir = seed, size, workdir

    def generate(self):
        """Seeded inputs of one run."""
        raise NotImplementedError

    def ops(self, inputs):
        """[(label, callable)] of one pass."""
        raise NotImplementedError

    def check_items(self, inputs, outputs):
        """Check inputs for the independent checks, from one pass's outputs."""
        raise NotImplementedError

    def agrees(self, out, ref):
        """True when a timed op's output equals the checked warm-up output."""
        raise NotImplementedError

    def failures(self, inputs, outputs):
        return [f for item in self.check_items(inputs, outputs) for f in checks.run_checks(self.checks, item)]


# ---------------------------------------------------------------------------


class Axioms(Workload):
    name = "axioms"
    checks = checks.AXIOMS_CHECKS

    def generate(self):
        return cases.axioms_cases(self.seed, self.size)

    def ops(self, inputs):
        return [("pass", lambda: [self._one(c) for c in inputs])]

    @staticmethod
    def _one(case):
        t = kj.realize(case.diagram)
        rep = kj.validate(case.diagram)
        ax = kj.verify_axioms(t)
        detected = kj.detect_ko(t)
        diagram, W = kj.classify(t)
        return {"t": t, "validate_ok": rep.ok, "axioms_ok": ax.ok, "residual": ax.max_residual,
                "detected": detected, "classified": diagram, "W": W}

    def check_items(self, inputs, outputs):
        rng = np.random.default_rng([self.seed % 2**64, 9])
        items = []
        for case, o in zip(inputs, outputs.get("pass", [])):
            t = o["t"]
            re = kj.realize(o["classified"])
            items.append({
                "case": case.name, "d": case.d, "dims": case.dims, "vids": list(t.layout.vids),
                "D": t.D, "K": t.K, "gamma": t.gamma,
                "validate_ok": o["validate_ok"], "axioms_ok": o["axioms_ok"], "detected": o["detected"],
                "W": o["W"], "reclassified": {"D": re.D, "K": re.K, "gamma": re.gamma},
                "elements": [(_element_blocks(rng, case.dims), _element_blocks(rng, case.dims))
                             for _ in range(2)],
            })
        return items

    def agrees(self, out, ref):
        return all(
            (o["validate_ok"], o["axioms_ok"], o["detected"], len(o["classified"].edges))
            == (r["validate_ok"], r["axioms_ok"], r["detected"], len(r["classified"].edges))
            and _same(o["W"], r["W"]) and _same(o["t"].D, r["t"].D)
            for o, r in zip(out, ref)
        )

    PERTURB = {
        "real structure signs": lambda items: items[0]["K"].__setitem__(0, items[0]["K"][0] * 1.01),
        "grading signs": lambda items: items[0].__setitem__("gamma", items[0]["gamma"] + 0.01),
        "order conditions": lambda items: items[-1].__setitem__(
            "D", items[-1]["D"] + 0.01 * np.ones_like(items[-1]["D"])),
        "verdicts": lambda items: items[3].__setitem__("detected", {(items[3]["d"] + 1) % 8}),
        "witness unitary": lambda items: items[1]["W"].__setitem__(
            (slice(None), 0), items[1]["W"][:, 0] * 1.01),
        "classify round trip": lambda items: items[2]["reclassified"].__setitem__(
            "D", items[2]["reclassified"]["D"] + 0.01),
    }


# ---------------------------------------------------------------------------


class Lift(Workload):
    name = "lift"
    checks = checks.LIFT_CHECKS

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self.cutoff = ac.CutoffFunction.gaussian()

    def generate(self):
        return cases.lift_cases(self.seed, self.size)

    def ops(self, inputs):
        return [("pass", lambda: [self._one(c) for c in inputs])]

    def _one(self, case):
        lift = case.lift
        tA0, tB = kj.realize(lift.source), kj.realize(lift.target)
        rg = lf.real_grading_check(lift, tA0, tB)
        if not rg.ok:
            raise OpFailed(f"{case.name}: real_grading_check failed:\n{rg}")
        norm = lf.normalize(lf.diagonalize_bases(lift))
        inh = lf.inherit_source_dirac(norm)
        tA = kj.realize(inh.source)
        arrow = lift.arrow
        omega_B = df.pushforward(case.omega_A, arrow)
        cfg_A = ac.GaugeConfiguration.from_forms(tA, case.vector_forms, case.omega_A)
        cfg_B = ac.GaugeConfiguration.from_forms(
            tB, [df.pushforward(w, arrow) for w in case.vector_forms], omega_B)
        phi = lf.build_phiH(inh)
        M, P = phi.matrix, phi.projector()
        psi_A = case.psi_raw if tA.gamma is None else (case.psi_raw + tA.gamma @ case.psi_raw) / 2
        perp = case.perp_raw - P @ case.perp_raw
        if tB.gamma is not None:
            perp = (perp + tB.gamma @ perp) / 2
        rep = ac.compare_actions(inh, tA, tB, case.omega_A, omega_B, self.cutoff, cases.CUTOFF_LAMBDA,
                                 cfgs=(cfg_A, cfg_B), fermions=(psi_A, M @ psi_A + perp))
        return {"M": M, "cfg_A": cfg_A, "cfg_B": cfg_B,
                "terms": {t.name: {"full": t.full, "inherited": t.inherited, "tnic": t.tnic,
                                   "a_value": t.a_value} for t in rep.terms},
                "spectral": dict(rep.spectral)}

    def check_items(self, inputs, outputs):
        return [{"case": case.name, "M": o["M"],
                 "B_A": list(o["cfg_A"].B), "Phi_A": o["cfg_A"].Phi,
                 "B_B": list(o["cfg_B"].B), "Phi_B": o["cfg_B"].Phi,
                 "terms": o["terms"], "f0": self.cutoff.f0, "f2": self.cutoff.f2,
                 "Lambda": cases.CUTOFF_LAMBDA}
                for case, o in zip(inputs, outputs.get("pass", []))]

    def agrees(self, out, ref):
        for o, r in zip(out, ref):
            if o["terms"].keys() != r["terms"].keys() or o["spectral"].keys() != r["spectral"].keys():
                return False
            vals = lambda x: ([v for t in x["terms"].values() for v in t.values()]
                              + [complex(v) for v in x["spectral"].values()])
            if not _same(vals(o), vals(r)):
                return False
        return True

    PERTURB = {
        "phi_H isometry": lambda items: items[0]["M"].__setitem__(
            (slice(None), 0), items[0]["M"][:, 0] * 1.01),
        "lagrangian traces": lambda items: items[-1]["terms"]["trPhi4"].__setitem__(
            "full", items[-1]["terms"]["trPhi4"]["full"] * (1 + 1e-6)),
        "inherited equals source": lambda items: items[0]["terms"]["trPhi2"].__setitem__(
            "a_value", items[0]["terms"]["trPhi2"]["a_value"] * (1 + 1e-6)),
        "tnic split": lambda items: items[-1]["terms"]["trDPhi2"].__setitem__(
            "tnic", items[-1]["terms"]["trDPhi2"]["tnic"] + 1e-3),
    }


# ---------------------------------------------------------------------------


class Cli(Workload):
    name = "cli"
    checks = checks.CLI_CHECKS

    def generate(self):
        w = self.workdir
        paths = {k: str(w / f"{k}.json") for k in ("bundle", "resaved", "normalized", "bad_edge", "bad_vertex")}
        bd.save_bundle(cases.cli_bundle(self.seed, self.size), paths["bundle"])
        doc = json.loads((w / "bundle.json").read_text(encoding="utf-8"))
        # kept faults: exit code 2 is promised for parse errors, these raise instead
        bad = copy.deepcopy(doc)
        del bad["diagrams"]["minimal_d0"]["edges"][0]["src"]
        (w / "bad_edge.json").write_text(json.dumps(bad, indent=2, sort_keys=True), encoding="utf-8")
        bad = copy.deepcopy(doc)
        bad["diagrams"]["minimal_d0"]["vertices"]["(1,1,1)"] = [1]
        (w / "bad_vertex.json").write_text(json.dumps(bad, indent=2, sort_keys=True), encoding="utf-8")
        return paths

    def cycle(self, p):
        B = p["bundle"]
        return [
            ("validate", ["validate", B]),
            ("axioms", ["axioms", B, "--diagram", "step_source"]),
            ("classify", ["classify", B, "--diagram", "step_source"]),
            ("lift-check", ["lift-check", B, "--lift", "step"]),
            ("sigma", ["sigma", B, "--lift", "step"]),
            ("compat", ["compat", B, "--lift", "step", "--form-a", "w"]),
            ("action", ["action", B, "--triple", "step_source_triple", "--form", "w", "--lam", "2.0"]),
            ("compare", ["compare", B, "--lift", "step", "--form-a", "w", "--with-fermions"]),
            ("normalize", ["normalize", B, "--lift", "step", "--out", p["normalized"]]),
            ("render", ["render", B, "--lift", "step"]),
            ("malformed-edge", ["validate", p["bad_edge"]]),
            ("malformed-vertex", ["validate", p["bad_vertex"]]),
        ]

    @staticmethod
    def _main(argv, expect):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(["--format", "json"] + argv)
        if rc != expect:
            raise OpFailed(f"exit code {rc}, expected {expect}: {err.getvalue().strip()[:200]}")
        return rc, out.getvalue()

    def ops(self, inputs):
        return [(label, lambda argv=argv, label=label: self._main(argv, 2 if label.startswith("malformed") else 0))
                for label, argv in self.cycle(inputs)]

    def check_items(self, inputs, outputs):
        items = [{"case": label, "rc": out[0], "stdout": out[1], "dot": label == "render"}
                 for label, out in outputs.items() if not label.startswith("malformed")]
        bd.save_bundle(bd.load_bundle(inputs["bundle"]), inputs["resaved"])
        with open(inputs["bundle"], "rb") as f1, open(inputs["resaved"], "rb") as f2:
            bundle = {"case": "bundle", "saved_twice": (f1.read(), f2.read())}
        if "normalize" in outputs:
            lift = bd.load_bundle(inputs["normalized"]).lifts["step_normalized"]
            bundle["normalized_M"] = lf.build_phiH(lift).matrix
        return items + [bundle]

    def agrees(self, out, ref):
        return out == ref

    PERTURB = {
        "exit 0 and parseable output": lambda items: items[0].__setitem__("stdout", items[0]["stdout"][:-3]),
        "normalized bundle isometric": lambda items: items[-1]["normalized_M"].__setitem__(
            (slice(None), 0), items[-1]["normalized_M"][:, 0] * 1.01),
        "save load save byte-identical": lambda items: items[-1].__setitem__(
            "saved_twice", (items[-1]["saved_twice"][0], items[-1]["saved_twice"][0] + b" ")),
    }


WORKLOADS = {w.name: w for w in (Axioms, Lift, Cli)}
