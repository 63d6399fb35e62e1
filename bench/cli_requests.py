"""The cli_oneshot workload: one `python -m rdsym.cli` process per
operation, run one at a time, with known answers.

The requests of a round are drawn from the seed like the other
workloads.  Operator strings are written here from the table formulas,
not printed by the program, so the CLI's parser sees them fresh.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

from rdsym import solutions

import checks
from workloads import CATALOG_TOL, Op, round_rng, seeded_binding

BENCH = Path(__file__).resolve().parent
REQUEST_TIMEOUT_S = 60


def _num(v: float) -> str:
    return f"({v!r})" if v < 0 else repr(v)


def spawn(argv: list[str], trace_out: "Path | None", memory: bool = False):
    """Run one request; with a trace file, through the traced wrapper
    (which measures memory instead of layers when `memory` is set)."""
    env = dict(os.environ)
    if trace_out is None:
        cmd = [sys.executable, "-m", "rdsym.cli", *argv]
    else:
        cmd = [sys.executable, str(BENCH / "traced_request.py"), *argv]
        env["BENCH_TRACE_OUT"] = str(trace_out)
        env["BENCH_MEMORY"] = "1" if memory else "0"
        env["BENCH_LAUNCHED"] = repr(time.monotonic())
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=REQUEST_TIMEOUT_S)
    return proc.returncode, proc.stdout, proc.stderr


def _expect(code_want: int, judge=None):
    def check(out):
        code, stdout, stderr = out
        if code != code_want:
            return f"exit {code}, want {code_want}: {stderr.strip()[-200:]}"
        try:
            payload = json.loads(stdout)
        except ValueError:
            return f"stdout is not JSON: {stdout[:200]!r}"
        return judge(payload) if judge else None
    return check


def _field(name, want):
    def judge(payload):
        got = payload.get(name)
        return None if got == want else f"{name} = {got!r}, want {want!r}"
    return judge


def _map_judge(F_want: float, H_want: float, domain=(0.5, 2.5)):
    def judge(payload):
        eq = payload["equation"]
        for i in range(5):
            x = domain[0] + (domain[1] - domain[0]) * (i + 0.5) / 5
            F, H = checks.eval_grammar(eq["F"], x), checks.eval_grammar(eq["H"], x)
            if abs(F - F_want) > 1e-9 * max(1.0, abs(F_want)) or abs(H - H_want) > 1e-9:
                return f"F={eq['F']!r} H={eq['H']!r} at x={x}, want F={F_want} H={H_want}"
        return None
    return judge


def _catalog_list_judge(payload):
    names = [e["name"] for e in payload]
    if len(names) < 40 or len(set(names)) != len(names):
        return f"{len(names)} entries, {len(set(names))} distinct names"
    return None


def _verify_all_judge(payload):
    if payload["entries"] < 1 or payload["failures"]:
        return f"entries={payload['entries']} failures={payload['failures']}"
    if payload["max_rel_residual"] > CATALOG_TOL:
        return f"max residual {payload['max_rel_residual']:.2e}"
    return None


def solution_entries():
    """Catalog entries the CLI can state exactly: printable coefficients
    and the CLI's default verification grid."""
    out = []
    for e in solutions.catalog():
        d = e.as_dict()
        if "<tabulated>" in json.dumps(d) or e.grid != solutions.GridSpec():
            continue
        out.append(e)
    return out


def _equation_flags(eq: dict) -> list[str]:
    if eq["class"] in ("initial", "general"):
        flags = ["--class", "initial", f"--f={eq['f']}", f"--g={eq['g']}", f"--h={eq['h']}",
                 "--m", repr(eq["m"])]
    elif eq["class"] == "imaged":
        flags = ["--class", "imaged", f"--F={eq['F']}", f"--H={eq['H']}", "--m", repr(eq["m"])]
    else:
        flags = ["--class", "double", f"--H={eq['H']}", f"--G={eq['G']}"]
    return flags + ["--domain", eq["domain"]]


def cli_round(seed: int, rnd: int, state, trace_out=None, memory=False) -> list[Op]:
    entries, all_names = state
    rng = round_rng("cli_oneshot", seed, rnd)
    m = 3.0
    reqs = []

    # T1/2: H = d exp(q x), F = -alpha^2 with alpha = q/(1-m)
    d = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.5)
    q = rng.choice((-1.0, 1.0)) * rng.uniform(0.4, 1.2)
    a = q / (1.0 - m)
    imaged = ["--class", "imaged", f"--H={_num(d)}*exp({_num(q)}*x)", f"--F={_num(-a * a)}",
              "--m", "3"]
    reqs.append(("classify", ["classify", *imaged], _expect(0, _field("case", "T1/2"))))

    d3 = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.5)
    q3 = rng.uniform(0.4, 1.4)
    reqs.append(("classify", ["classify", "--class", "initial", "--f=1",
                              f"--h={_num(d3)}*exp({_num(q3)}*x)", "--m", "3"],
                 _expect(0, _field("case", "T3/1.1"))))

    # f = cosh(c x)^2, h = cosh(c x)^4 maps to F = -c^2, H = 1 (m = 3)
    c = rng.uniform(0.5, 1.5)
    reqs.append(("map", ["map", "--to", "imaged", f"--f=cosh({c!r}*x)^2",
                         f"--h=cosh({c!r}*x)^4"], _expect(0, _map_judge(-c * c, 1.0))))

    # the scaling operator of T1/2, and the same operator perturbed
    q2 = f"2*t;x - {_num(2 * a)}*t;({_num(a)}*(x - {_num(2 * a)}*t) + {_num(2 / (1 - m))})*v"
    lie = ["verify", "--what", "lie", *imaged]
    reqs.append(("verify_lie", [*lie, f"--op={q2}"], _expect(0, _field("pass", True))))
    reqs.append(("verify_lie_control", [*lie, f"--op={q2} + 0.01*(x - 0.5)"],
                 _expect(1, _field("pass", False))))

    # wave reduction operator of v_t = v_xx + delta v^3 + eps v, delta < 0
    dn = -rng.uniform(0.5, 1.5)
    eps = rng.uniform(-1.0, 1.0)
    root = (-2.0 * dn) ** 0.5
    wave = f"1;{1.5 * root!r}*v;1.5*({_num(dn)}*v^3 + {_num(eps)}*v)"
    reqs.append(("verify_nonclassical",
                 ["verify", "--what", "nonclassical", "--class", "imaged", f"--H={_num(dn)}",
                  f"--F={_num(eps)}", "--m", "3", f"--op={wave}"],
                 _expect(0, _field("pass", True))))

    entry = entries[rng.randrange(len(entries))]
    binding = seeded_binding(rng, entry)
    d = entry.as_dict()
    argv = ["verify", "--what", "solution", *_equation_flags(d["equation"]),
            f"--solution={d['solution']}", "--tol", repr(CATALOG_TOL)]
    if binding:
        argv.append("--constants=" + ",".join(f"{k}={v!r}" for k, v in sorted(binding.items())))
    reqs.append(("verify_solution", argv, _expect(0, _field("pass", True))))

    reqs.append(("catalog_list", ["catalog", "list"], _expect(0, _catalog_list_judge)))
    name = all_names[rng.randrange(len(all_names))]
    reqs.append(("catalog_verify", ["catalog", "verify-all", f"--filter=name={name}"],
                 _expect(0, _verify_all_judge)))

    return [Op(kind, " ".join(argv), (lambda argv=argv: spawn(argv, trace_out, memory)), check)
            for kind, argv, check in reqs]
