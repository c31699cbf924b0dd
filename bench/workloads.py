"""The benchmark's workloads: problems, operations and seeded generation.

A workload is a list of CLI operations over a set of problems.  The seed
permutes the annihilator generators written to each generated problem file
and the order of the operations in each pass.  Reduced Groebner bases are
unique, so every seed must print the same answers.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SHIPPED = ROOT / "problems"

WORKLOADS = ("bfun-distinct", "zeta-integrate", "laurent-sweep")

# ex4's weight exp(-x - 1/x) [x > 0] exp(-y) and cusp_gauss's Gaussian weight
EX4_WEIGHT = (("x^2*dx + x^2 - 1", "dy + 1"), "one_sided_exp_inv_exp")
GAUSS_WEIGHT = (("dx + 2*x", "dy + 2*y"), "gaussian")


@dataclass(frozen=True)
class Problem:
    name: str
    vars: tuple
    f: str
    ann: tuple
    phi: str = None
    bp: tuple = None           # (a, b) for the Brieskorn-Pham curve x^a + y^b


@dataclass(frozen=True)
class Operation:
    command: str               # funceq | zeta-diff | laurent
    problem: str
    lambda0: str = None
    k: int = None

    @property
    def key(self):
        parts = [self.command, self.problem]
        if self.lambda0 is not None:
            parts += [self.lambda0, str(self.k)]
        return " ".join(parts)

    def argv(self, path):
        out = [self.command, str(path), "--json"]
        if self.lambda0 is not None:
            out += [f"--lambda0={self.lambda0}", f"--k={self.k}"]
        return out


def _load_shipped(name):
    """vars, f, annihilator and phi of problems/<name>.prob."""
    keys = {}
    for raw in (SHIPPED / f"{name}.prob").read_text().splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            key, _, val = line.partition(":")
            keys[key.strip()] = val.strip()
    return Problem(name,
                   tuple(v.strip() for v in keys["vars"].split(",")),
                   keys["f"],
                   tuple(t.strip() for t in keys["annihilator"].split(",")),
                   keys.get("phi"))


def _brieskorn_pham(a, b):
    return Problem(f"bp-{a}-{b}", ("x", "y"), f"x^{a} + y^{b}", ("dx", "dy"), bp=(a, b))


def problems():
    """Every problem any workload uses, by name."""
    out = [_load_shipped(n) for n in ("gamma", "cusp", "cusp_gauss", "ex3", "ex4", "ex5")]
    out += [_brieskorn_pham(a, b) for a, b in ((3, 4), (2, 5), (2, 7), (3, 5), (4, 5))]
    out += [
        Problem("xyz-2-3-4", ("x", "y", "z"), "x^2 + y^3 + z^4", ("dx", "dy", "dz")),
        Problem("arrangement", ("x", "y", "z"), "x*y*z*(x + y + z)", ("dx", "dy", "dz")),
        Problem("y2-x2-ex4w", ("x", "y"), "y^2 - x^2", *EX4_WEIGHT),
        Problem("y2-x3-ex4w", ("x", "y"), "y^2 - x^3", *EX4_WEIGHT),
        Problem("x5-y2-gauss", ("x", "y"), "x^5 - y^2", *GAUSS_WEIGHT),
    ]
    return {p.name: p for p in out}


# Operations known to run past any practical per-operation cap at the seed
# commit: rational_roots on the degree-13 b of x^4 + y^5 (still enumerating
# divisors after 25 minutes) and functional_operator on the arrangement
# (over 5 minutes).  They are kept out of the timed operations and attempted
# under PROBE_CAP_S in traced runs of bfun-distinct (see README.md).
OVER_CAP_PROBES = (Operation("funceq", "bp-4-5"), Operation("funceq", "arrangement"))

# Rational roots of b and their multiplicities for the Laurent sweeps.
_LAURENT_POINTS = {
    "cusp": (("-1", 1), ("-5/6", 1), ("-7/6", 1)),
    "ex5": (("-1", 1), ("-4/3", 1), ("-5/3", 1), ("-5/6", 2), ("-7/6", 2)),
}
# ex5's k = 0 requests take 1.4-9.2 s each; only the one at -1 (where the
# laurent-colon stage dominates) is kept, to fit the run length.
_EX5_K0_KEPT = ("-1",)


def operations(workload):
    """The timed operations of a workload, in their canonical order."""
    if workload == "bfun-distinct":
        names = ("gamma", "cusp", "cusp_gauss", "ex3", "ex4", "ex5",
                 "bp-3-4", "bp-2-5", "bp-2-7", "bp-3-5", "xyz-2-3-4")
        return [Operation("funceq", n) for n in names]
    if workload == "zeta-integrate":
        names = ("gamma", "ex3", "cusp", "cusp_gauss",
                 "y2-x2-ex4w", "y2-x3-ex4w", "x5-y2-gauss")
        return [Operation("zeta-diff", n) for n in names]
    if workload == "laurent-sweep":
        ops = []
        for name, points in _LAURENT_POINTS.items():
            for root, mult in points:
                ops.append(Operation("laurent", name, root, -mult))
                if name != "ex5" or root in _EX5_K0_KEPT:
                    ops.append(Operation("laurent", name, root, 0))
        return ops
    raise ValueError(f"unknown workload {workload!r}; choose one of {WORKLOADS}")


def write_problems(names, seed, workdir):
    """Write one problem file per name with seed-permuted generators.

    Returns {name: path}.  The same seed always writes the same file for a
    problem, whatever other problems are written with it.
    """
    table = problems()
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name in names:
        p = table[name]
        ann = list(p.ann)
        random.Random(f"{seed}/generators/{name}").shuffle(ann)
        lines = [f"vars: {', '.join(p.vars)}", f"f: {p.f}",
                 f"annihilator: {', '.join(ann)}"]
        if p.phi:
            lines.append(f"phi: {p.phi}")
        lines.append("assume_saturated: true")
        path = workdir / f"{name}.prob"
        path.write_text("\n".join(lines) + "\n")
        paths[name] = path
    return paths


def pass_order(ops, seed, pass_index):
    """The operations in the order one pass runs them."""
    ops = list(ops)
    random.Random(f"{seed}/order/{pass_index}").shuffle(ops)
    return ops
