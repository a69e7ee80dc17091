"""Seeded generator of small pointer programs (the `generated` corpus).

Grown from the random-program generator of ``tests/test_slice_fuzz.py``.
That generator draws raw statements uniformly, so nearly every program
dereferences nil or breaks well-formedness and fails (96 of 100).  Here
each program mixes *guarded idioms* (a dereference behind a nil
test, a push that links a fresh cell into ``x``) with *raw* statements,
and the postcondition is drawn from ones that usually hold or usually
fail, so that VERIFIED and FAILED each make up a large share.

The engine sees only the generated source text.
"""

from __future__ import annotations

import random
import re
from typing import List, Tuple

HEADER = """\
program {name};
type
  Color = (red, blue);
  List = ^Item;
  Item = record case tag: Color of red, blue: (next: List) end;
{{data}} var x: List;
{{pointer}} var p, q: List;
begin
"""

#: Statements that cannot fault on a well-formed store: copies,
#: dereferences behind a nil test, and a push onto ``x``.
GUARDED = [
    "p := x",
    "q := x",
    "q := p",
    "p := q",
    "p := nil",
    "if p <> nil then p := p^.next",
    "if q <> nil then q := q^.next",
    "if x <> nil then p := x^.next",
    "if p = q then q := nil else q := p",
    "begin new(p, red); p^.next := x; x := p end",
    "begin new(q, blue); q^.next := x; x := q end",
]

#: Statements that fault or break well-formedness on some stores.
RAW = [
    "p := x^.next",
    "q := p^.next",
    "p^.next := nil",
    "new(p, red)",
]

LOOPS = [
    "while p <> nil do p := p^.next",
    "while q <> nil do q := q^.next",
]

#: Postconditions that hold after most guarded programs.
USUALLY_TRUE = [None, "{x = x}", "{x<next*>p | p = nil}",
                "{q = nil | x<next*>q}"]

#: Postconditions that most programs violate.
USUALLY_FALSE = ["{p = nil}", "{p <> nil}", "{x<next*>q & q <> nil}",
                 "{x = nil}"]

#: Share of programs with one raw statement, and with a postcondition
#: that usually fails.  Tuned so that VERIFIED and FAILED each stay well
#: above a quarter of the corpus (README.md records the mix).
RAW_SHARE = 0.35
FALSE_POST_SHARE = 0.25

#: Seed of the program set itself.  The benchmark's ``--seed`` only
#: renames (swaps ``p``/``q`` and ``red``/``blue`` in a program's body)
#: and reorders, so every seed gives the same amount of work: a corpus
#: drawn afresh per seed moved its total cost by a fifth between seeds.
CORPUS_SEED = 1997


def generate(rng: random.Random, name: str) -> str:
    """One random program drawn from ``rng``."""
    length = rng.randint(2, 4)
    lines = [rng.choice(GUARDED) for _ in range(length)]
    if rng.random() < RAW_SHARE:
        lines[rng.randrange(length)] = rng.choice(RAW)
    if rng.random() < 0.5:
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(LOOPS))
    body = ";\n".join(f"  {line}" for line in lines)
    pool = USUALLY_FALSE if rng.random() < FALSE_POST_SHARE else USUALLY_TRUE
    post = rng.choice(pool)
    if post is not None:
        body += f"\n  {post}"
    return HEADER.format(name=name) + body + "\nend.\n"


def rename(source: str, rng: random.Random) -> str:
    """Swap ``p``/``q`` and ``red``/``blue`` in the body, each with
    probability one half: an equivalent program with other names."""
    header, body = source.split("begin\n", 1)
    for left, right in (("p", "q"), ("red", "blue")):
        if rng.random() < 0.5:
            body = re.sub(rf"\b({left}|{right})\b",
                          lambda m: right if m.group(1) == left else left,
                          body)
    return header + "begin\n" + body


def corpus(seed: int, count: int) -> List[Tuple[str, str]]:
    """``count`` (name, source) pairs; the same seed gives the same
    corpus."""
    programs = random.Random(CORPUS_SEED)
    names = random.Random(seed)
    return [(f"gen{index:03d}",
             rename(generate(programs, f"gen{index:03d}"), names))
            for index in range(count)]
