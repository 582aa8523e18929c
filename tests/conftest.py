import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from quivercrystal import build_ar, parse_quiver

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_capped(args: list[str], cap: int = 1 << 30, timeout: float = 120):
    """`python *args` in a child with src on PYTHONPATH and its address space capped at
    `cap` bytes, so a regression fails the test, not the host; text output captured."""
    pytest.importorskip("resource")
    import resource

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), preexec_fn=cap_memory,
                          timeout=timeout)


@functools.lru_cache(maxsize=None)
def ar_of(spec: str):
    return build_ar(parse_quiver(spec))


A3_LINEAR = "A3: 3->2, 2->1"
A3_MIDDLE = "A3: 2->1, 2->3"
A2 = "A2: 2->1"


def sinks(q):
    outs = {a for a, _ in q.arrows}
    return tuple(v for v in range(1, q.diagram.rank + 1) if v not in outs)


def projective(ar, i):
    return next(x for x in ar.indecs if x.projective_vertex == i)


def injective(ar, i):
    return next(x for x in ar.indecs if x.injective_vertex == i)


def tau_inv(ar, x):
    """The Z with tau Z = X, None exactly on injectives."""
    return next((z for z in ar.indecs if ar.tau(z) == ar.indec(x)), None)


def ext_dim(ar, x, y):
    """dim Ext^1(X, Y) = dim Hom(Y, tau X), zero when X is projective."""
    return 0 if ar.indec(x).is_projective else ar.hom_dim(y, ar.tau(x))


def hom_to_simple(ar, m, i):
    return sum(k * ar.hom_dim(b, ar.simple(i)) for b, k in zip(ar.indecs, m.mults) if k)


def leq_elements(p, a, b):
    return bool(p.above[p.pos(a)] >> p.pos(b) & 1)


def minimum(p):
    return p.elements[p.above.index((1 << len(p)) - 1)]


def maximum(p):
    return p.elements[p.below.index((1 << len(p)) - 1)]
