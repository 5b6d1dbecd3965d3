"""Seeded inputs and op plans for the orbmod benchmark workloads.

Everything here is generated in code from the workload seed; nothing is
downloaded.  Source data come from four places:

- SU(2)_l:  S_ij = sqrt(2/(l+2)) sin(pi (i+1)(j+1)/(l+2)),  h_j = j(j+2)/(4(l+2));
- pointed U(1)_{2m}:  S_ab = exp(-2 pi i ab/2m)/sqrt(2m),  h_a = a^2/(4m),
  complex S with charge conjugation a -> -a;
- Deligne products (kron of S, weights and central charges added);
- the three fixtures bundled with orbmod.

The seed permutes the non-vacuum modules of every source (so S, labels and
every output byte depend on it), and on desk-mix also draws the SL(2, Z)
matrices and picks which documents are made malformed.  The order of ops
in a round is fixed.
It never changes the sizes, so the work per round is the same for every
seed and the spread between seeds measures the machine, not the inputs.

A plan is a list of rounds' worth of ops; the worker repeats the round.
Each op is a dict with ``id`` (unique in the round), ``kind`` (``cli`` or a
library op), ``args`` and ``expect`` (the exit code the documented contract
requires), plus what its correctness check needs.
"""

from __future__ import annotations

import copy
import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np

import orbmod
from orbmod import fixtures

# ---------------------------------------------------------------------------
# source families
# ---------------------------------------------------------------------------

def su2(level: int) -> orbmod.ModularDatum:
    n = level + 1
    i = np.arange(1, n + 1)
    s = np.sqrt(2 / (level + 2)) * np.sin(np.pi * np.outer(i, i) / (level + 2))
    modules = [
        orbmod.ModuleInfo(f"j{j}", Fraction(j * (j + 2), 4 * (level + 2)))
        for j in range(n)
    ]
    return orbmod.ModularDatum(Fraction(3 * level, level + 2), modules, s)


def u1(two_m: int) -> orbmod.ModularDatum:
    a = np.arange(two_m)
    s = np.exp(-2j * np.pi * np.outer(a, a) / two_m) / np.sqrt(two_m)
    modules = [orbmod.ModuleInfo(f"q{x}", Fraction(x * x, 2 * two_m)) for x in a]
    return orbmod.ModularDatum(1, modules, s)


def deligne(d1: orbmod.ModularDatum, d2: orbmod.ModularDatum) -> orbmod.ModularDatum:
    modules = [
        orbmod.ModuleInfo(f"{m1.label}*{m2.label}", m1.weight + m2.weight)
        for m1 in d1.modules
        for m2 in d2.modules
    ]
    return orbmod.ModularDatum(
        d1.central_charge + d2.central_charge,
        modules,
        np.kron(d1.s_matrix, d2.s_matrix),
    )


def source(spec: str) -> orbmod.ModularDatum:
    """Build a source datum from ``"su2:L"``, ``"u1:2M"``, ``"fix:NAME"``
    or a ``*``-joined Deligne product of those."""
    parts = spec.split("*")
    if len(parts) > 1:
        out = source(parts[0])
        for p in parts[1:]:
            out = deligne(out, source(p))
        return out
    family, arg = spec.split(":")
    if family == "su2":
        return su2(int(arg))
    if family == "u1":
        return u1(int(arg))
    if family == "fix":
        return fixtures.load(arg)
    raise ValueError(f"unknown source family {spec!r}")


def permuted(d: orbmod.ModularDatum, rng: random.Random) -> orbmod.ModularDatum:
    """The same datum with its non-vacuum modules in a seeded order."""
    order = list(range(1, d.rank))
    rng.shuffle(order)
    order = [0] + order
    s = np.asarray(d.s_matrix)[np.ix_(order, order)]
    return orbmod.ModularDatum(d.central_charge, [d.modules[i] for i in order], s)


def dump(doc) -> str:
    """The JSON layout the orbmod CLI writes."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def orbit_count(n: int, k: int) -> int:
    """Orbits of the permutation restriction data: diagonal, off-diagonal
    and twisted, one per source module (or rotation orbit)."""
    return n + (n**k - n) // k + n * (k - 1)


# ---------------------------------------------------------------------------
# SL(2, Z) matrices
# ---------------------------------------------------------------------------

# Partial quotients of the continued fraction of a/c.  decompose_to_generators
# expands a quotient q at an even position >= 2 into a run of about 2q
# tokens and leaves odd positions short, so the seed shuffles quotients only
# within each parity class: the word length, and with it the op's cost, is
# then the same for every seed.
_QUOTIENTS = (1, 2, 1, 1, 3, 2, 2, 1, 2, 3, 4, 3, 1, 4, 2, 5, 6, 7, 1, 2, 1, 3)


def sl2_matrix(rng: random.Random, long_run: int = 0) -> tuple[int, int, int, int]:
    """A seeded determinant-one integer matrix with entries up to about
    1e12.  ``long_run`` puts one large quotient at an even position, which
    makes the generator word about ``2 * long_run`` tokens long."""
    qs = list(_QUOTIENTS)
    if long_run:
        qs[2] = long_run
    even, odd = qs[2::2], qs[1::2]
    rng.shuffle(even)
    rng.shuffle(odd)
    qs[2::2], qs[1::2] = even, odd
    p0, p1, r0, r1 = 1, qs[0], 0, 1
    for q in qs[1:]:
        p0, p1 = p1, q * p1 + p0
        r0, r1 = r1, q * r1 + r0
    a, b, c, d = p1, p0, r1, r0
    if a * d - b * c != 1:
        b, d = -b, -d
    sign = rng.choice((1, -1))
    return sign * a, sign * b, sign * c, sign * d


# ---------------------------------------------------------------------------
# malformed documents
# ---------------------------------------------------------------------------

def malformed_datum(doc: dict, variant: str) -> str:
    doc = copy.deepcopy(doc)
    if variant == "missing_S":
        del doc["S"]
    elif variant == "truncated":
        text = dump(doc)
        return text[: len(text) // 2]
    elif variant == "bad_rational":
        doc["modules"][-1]["h"] = "1/0"
    elif variant == "ragged_S":
        doc["S"][-1].pop()
    elif variant == "bad_decimal":
        doc["S"][0][0]["re"] = "0.5.1"
    else:
        raise ValueError(variant)
    return dump(doc)


DATUM_MALFORMATIONS = ("missing_S", "truncated", "bad_rational", "ragged_S", "bad_decimal")


def malformed_spec(doc: dict, variant: str) -> str:
    doc = copy.deepcopy(doc)
    if variant == "missing_blocks":
        del doc["blocks"]
    elif variant == "truncated":
        text = dump(doc)
        return text[: len(text) // 2]
    elif variant == "bad_group":
        doc["group"] = [0]
    elif variant == "orbit_without_characters":
        del doc["orbits"][0]["characters"]
    # A top-level "orbits" or "blocks" that is not a list is valid JSON that
    # the documented contract answers with exit 2.
    elif variant == "orbits_not_list":
        doc["orbits"] = 5
    elif variant == "blocks_not_list":
        doc["blocks"] = 7
    else:
        raise ValueError(variant)
    return dump(doc)


SPEC_MALFORMATIONS = ("missing_blocks", "truncated", "bad_group", "orbit_without_characters")
# Malformed specs that crash the parser with a traceback instead of the
# documented exit 2.  They run as probes whose outcome every run prints.
SPEC_PROBES = ("orbits_not_list", "blocks_not_list")


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------

def _write_source(workdir: Path, name: str, spec: str, rng: random.Random) -> dict:
    d = permuted(source(spec), rng)
    report = orbmod.validate_modular_datum(d)
    if not report.ok:
        raise RuntimeError(f"generated source {spec} fails {[c.name for c in report.failures()]}")
    doc = orbmod.modular_datum_to_dict(d)
    (workdir / name).write_text(dump(doc))
    return {"file": name, "spec": spec, "n": d.rank}


def _cli(op_id: str, args: list[str], expect: int, check: str, **meta) -> dict:
    return {"id": op_id, "kind": "cli", "args": args, "expect": expect, "check": check, **meta}


def _perm_jobs(src: dict, k: int, tag: str, with_fusion: bool) -> list[dict]:
    n_out = orbmod.module_count(src["n"], k)
    out = f"{tag}.perm.json"
    meta = {"src": src["file"], "n": src["n"], "k": k, "n_out": n_out}
    ops = [
        _cli(f"{tag}:perm", ["perm", "--k", str(k), "-o", out, src["file"]], 0,
             "perm_file", out=out, **meta),
        _cli(f"{tag}:check", ["check", out], 0, "check", doc=out, **meta),
    ]
    if with_fusion:
        ops.append(_cli(f"{tag}:fusion", ["fusion", "--format", "json", out], 0,
                        "fusion_json", doc=out, **meta))
    return ops


def plan_desk_mix(workdir: Path, rng: random.Random) -> dict:
    """About 220 small CLI commands and library ops, every datum N <= 40."""
    specs = [
        "fix:ising", "fix:fibonacci", "fix:holomorphic_c8",
        "su2:1", "su2:3", "su2:5", "u1:2", "u1:4", "u1:6",
        "su2:1*u1:2", "su2:2*u1:2",
    ]
    sources = [_write_source(workdir, f"src{i:02d}.json", s, rng) for i, s in enumerate(specs)]
    fmts = ("pretty", "json", "csv")

    perms, perm_outputs = [], []
    for src in sources:
        ks = [2] + ([3] if src["n"] <= 3 else []) + ([5] if src["n"] == 1 else [])
        for k in ks:
            tag = f"{src['file'][:-5]}.k{k}"
            meta = {"src": src["file"], "n": src["n"], "k": k, "n_out": orbmod.module_count(src["n"], k)}
            out = f"{tag}.perm.json"
            perms.append(_cli(f"{tag}:perm-minus", ["perm", "--k", str(k), "-o", out, src["file"]],
                              0, "perm_file", out=out, **meta))
            perms.append(_cli(f"{tag}:perm-plus", ["perm", "--k", str(k), "--convention", "plus", src["file"]],
                              0 if k == 2 else 1, "perm_stdout", **meta))
            perm_outputs.append({"file": out, "n": meta["n_out"], "src": src["file"], "k": k})

    exports = []
    for src in sources:
        if src["n"] > 3:
            continue
        for k in (2, 3):
            tag = f"{src['file'][:-5]}.k{k}"
            exports.append({"id": f"{tag}:export", "kind": "export", "src": src["file"], "n": src["n"],
                            "k": k, "out": f"{tag}.spec.json", "expect": 0, "check": "export"})
    t_phase_ops = [
        {"id": f"{p['file'][:-10]}:t-phases", "kind": "t_phases", "src": p["src"], "k": p["k"],
         "doc": p["file"], "expect": 0, "check": "t_phases"}
        for p in perm_outputs if p["k"] == 3
    ]

    rest = []
    docs = sources + perm_outputs
    for i, doc in enumerate(docs):
        base = doc["file"][:-5]
        meta = {"doc": doc["file"]}
        rest.append(_cli(f"{base}:validate", ["validate", "--format", fmts[i % 3], doc["file"]],
                         0, "validate", fmt=fmts[i % 3], **meta))
        rest.append(_cli(f"{base}:check", ["check", doc["file"]], 0, "check", **meta))
        rest.append(_cli(f"{base}:fusion", ["fusion", "--format", fmts[(i + 1) % 3], doc["file"]],
                         0, "fusion_" + fmts[(i + 1) % 3], **meta))
        rest.append(_cli(f"{base}:tmatrix", ["tmatrix", "--format", fmts[(i + 2) % 3], doc["file"]],
                         0, "tmatrix", fmt=fmts[(i + 2) % 3], **meta))
    for j, e in enumerate(exports):
        out = f"{e['id'].split(':')[0]}.restricted.json"
        args = ["restricted", e["out"]] + (["-o", out] if j % 2 == 0 else [])
        rest.append(_cli(f"{e['id'].split(':')[0]}:restricted", args, 0, "restricted",
                         spec=e["out"], src=e["src"], k=e["k"], n=e["n"],
                         out=out if j % 2 == 0 else None))
    for j in range(40):
        m = sl2_matrix(rng, long_run=1000 if j % 10 == 0 else 0)
        rest.append(_cli(f"sl2z{j:02d}", ["sl2z", "decompose", *map(str, m)], 0, "sl2z", matrix=list(m)))

    # about 5% malformed documents, in both schemas
    multi = [s for s in sources if s["n"] > 1]
    commands = (["validate"], ["check"], ["fusion"], ["tmatrix"], ["perm", "--k", "2"])
    for j in range(8):
        variant = DATUM_MALFORMATIONS[j % len(DATUM_MALFORMATIONS)]
        src = rng.choice(multi)
        name = f"bad{j}.{variant}.json"
        doc = json.loads((workdir / src["file"]).read_text())
        (workdir / name).write_text(malformed_datum(doc, variant))
        cmd = commands[j % len(commands)]
        rest.append(_cli(f"bad{j}:{cmd[0]}", [*cmd, name], 2, "input_error"))
    spec_doc = _tiny_spec(workdir, rng.choice([s for s in sources if s["n"] <= 3]))
    for j, variant in enumerate(SPEC_MALFORMATIONS):
        name = f"badspec{j}.{variant}.json"
        (workdir / name).write_text(malformed_spec(spec_doc, variant))
        rest.append(_cli(f"badspec{j}:restricted", ["restricted", name], 2, "input_error"))
    probes = []
    for j, variant in enumerate(SPEC_PROBES):
        name = f"probe{j}.{variant}.json"
        (workdir / name).write_text(malformed_spec(spec_doc, variant))
        probes.append(_cli(f"probe:{variant}", ["restricted", name], 2, "input_error"))

    # Producers first: their files feed the rest.  The order is fixed, as
    # on the other workloads: which op pays for a garbage collection or a
    # cold cache depends on the order, so a seeded order would move op_p50.
    return {"round": perms + exports + t_phase_ops + rest, "probes": probes, "warmup_rounds": 1}


def _tiny_spec(workdir: Path, src: dict) -> dict:
    """A small valid restricted spec to derive malformed ones from."""
    d = orbmod.parse_modular_datum((workdir / src["file"]).read_text())
    return orbmod.restricted_spec_to_dict(*orbmod.permutation_restriction_data(d, 2))


def plan_orbifold_large(workdir: Path, rng: random.Random) -> dict:
    """perm -o -> check (-> fusion --format json) with N_out 99 and 85.

    Each op takes 0.2 to 1 s, so that a run holds about 20 rounds: an op's
    median time is only as steady as the number of rounds it is taken over,
    and at N_out 124 and 130 (ops of 1 to 4 s, 5 rounds a run) the timings
    spread by a third between runs on a shared host."""
    slots = [
        ("su2:10", 2, False),       # N_out 99
        ("su2:4", 3, True),         # N_out 85
    ]
    # The job order is fixed: the order of large allocations sets the peak
    # RSS, which must not depend on the seed.
    ops = []
    for i, (spec, k, with_fusion) in enumerate(slots):
        src = _write_source(workdir, f"src{i}.json", spec, rng)
        ops += _perm_jobs(src, k, f"job{i}", with_fusion)
    return {"round": ops, "probes": [], "warmup_rounds": 0}


def plan_restricted_oracle(workdir: Path, rng: random.Random) -> dict:
    """Library export of the permutation data as a restricted spec, then
    ``orbmod restricted`` on it, with N_out in [123, 225]."""
    slots = [
        ("su2:12", 2),          # N_out 130
        ("u1:6", 3),            # N_out 124
        ("su2:2", 5),           # N_out 123
        ("su2:3*u1:4", 2),      # N_out 184
        ("su2:2*u1:6", 2),      # N_out 225
    ]
    ops = []  # fixed job order, as in plan_orbifold_large
    for i, (spec, k) in enumerate(slots):
        src = _write_source(workdir, f"src{i}.json", spec, rng)
        tag = f"job{i}"
        spec_file, out = f"{tag}.spec.json", f"{tag}.restricted.json"
        ops += [
            {"id": f"{tag}:export", "kind": "export", "src": src["file"], "n": src["n"], "k": k,
             "out": spec_file, "expect": 0, "check": "export"},
            _cli(f"{tag}:restricted", ["restricted", spec_file, "-o", out], 0, "restricted",
                 spec=spec_file, src=src["file"], k=k, n=src["n"], out=out),
        ]
    return {"round": ops, "probes": [], "warmup_rounds": 0}


PLANS = {
    "desk-mix": plan_desk_mix,
    "orbifold-large": plan_orbifold_large,
    "restricted-oracle": plan_restricted_oracle,
}


def setup(workload: str, seed: int, workdir: Path) -> dict:
    """Generate and write every input of one workload; return its plan."""
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}/{seed}")
    return PLANS[workload](workdir, rng)
