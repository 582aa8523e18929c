import functools
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from quivercrystal import build_ar, parse_quiver


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
