"""The models the tests share, built without pytest so that scripts such as
``manifest.py`` can read them under any Python: the nine pattern fixtures'
DSL text, the join x split models and the or-fed join models."""

from __future__ import annotations

from pathlib import Path

from flowspec.dsl import parse_dsl

DATA_DIR = Path(__file__).parent / "data"

FIXTURE_DSL = {
    path.stem: path.read_text() for path in sorted(DATA_DIR.glob("m[1-9].pml"))
}

M1_DSL = FIXTURE_DSL["m1"]

JOIN_SPLITS = [(join, split) for join in ("and", "or", "xor", "multi") for split in ("and", "or")]

JOIN_SPLIT_VARIANTS = ["flat", "nested sources", "nested target", "guarded"]
# The guarded variant's two combinations whose strict reverse reads the
# guard g0 as a third source (ROADMAP item 3): not yet isomorphic.
GUARD_READ_AS_SOURCE = {("and", "and"), ("or", "and")}


def join_split_model(join, split, variant="flat"):
    """An and-split, then one transition t1 that joins its two branches and
    splits to two states, each branch guarded when it is an or-split.

    ``variant`` is ``flat``; ``nested sources`` (t1 consumes P.a and Q.b,
    each in its own composite); ``nested target`` (t1 enters composite C at
    its default child x); or ``guarded`` (flat, with the shared guard g0).
    """
    s1, s2, s3, more = "S1", "S2", "S3", ""
    states = ["state S1", "state S2", "state S3"]
    if variant == "nested sources":
        s1, s2 = "P.a", "Q.b"
        states[:2] = ["state P { initial a state a }", "state Q { initial b state b }"]
    if variant == "nested target":
        s3, more = "C", "trans t2 { from C.x on e3 to C.y }"
        states[2] = "state C { initial x state x state y }"
    g0 = "if g0 " if variant == "guarded" else ""
    g1, g2 = ("if g1 ", "if g2 ") if split == "or" else ("", "")
    return parse_dsl(f"""\
process "join {join} split {split}" {{
  {" ".join(states)}
  state S4
  trans t0 {{ from alpha on start split and to {s1.split(".")[0]}, {s2.split(".")[0]} }}
  trans t1 {{ from {s1} on e1, {s2} on e2 join {join} split {split} {g0}to {s3} {g1}do a1, S4 {g2}do a2 }}
  {more}
}}
""")


OR_FED_JOINS = [(join, target) for join in ("and", "or", "xor", "multi") for target in ("composite", "leaf")]


def or_fed_join_model(join, target="composite"):
    """An or-split t1 into composites C and D, then a join t2 of their
    default children C.a and D.a.  ``target`` is ``composite`` (t1 targets
    C and D, so it feeds t2 through their default leaves) or ``leaf`` (t1
    targets C.a and D.a)."""
    c, d = ("C", "D") if target == "composite" else ("C.a", "D.a")
    return parse_dsl(f"""\
process "or-fed join {join} to {target}" {{
  state C {{ initial a state a }}
  state D {{ initial a state a }}
  state S3
  trans t1 {{ from alpha on go split or to {c} if g1, {d} if g2 }}
  trans t2 {{ from C.a on e1, D.a on e2 join {join} to S3 }}
}}
""")
