"""An independent realization of B(infinity): the Nakashima-Zelevinsky polyhedral crystal.

The Kashiwara embedding sends B(infinity) into Z^infinity_iota, iota = (1, ..., n) repeated,
with x = (..., x_2, x_1) (Nakashima-Zelevinsky, Adv. Math. 131 (1997); Kashiwara, Duke Math.
J. 71 (1993)).  With sigma_k(x) = x_k + sum_{j > k} a_{i_k, i_j} x_j, epsilon_i is the largest
sigma_k over {k : i_k = i}; f_i adds 1 at the smallest such k attaining it, and e_i subtracts
1 at the largest one.  Only the Cartan matrix is used: no AR quiver, no Hom poset, no
operator of the package.

Vectors are truncated to `periods` copies of the word.  The last period is kept at zero, so
every sigma_k of the infinite tail (all 0) is represented; a step that would touch it raises.
"""

from __future__ import annotations


class TruncationError(Exception):
    """A step reached the last period of the truncated word."""


class Polyhedral:
    def __init__(self, diagram, periods: int):
        n = self.rank = diagram.rank
        edges = {frozenset(e) for e in diagram.edges}
        self.cartan = [[2 if i == j else -({i, j} in edges) for j in range(1, n + 1)]
                       for i in range(1, n + 1)]
        self.word = [k % n + 1 for k in range(n * periods)]  # word[k] is i_{k+1}
        self.free = n * (periods - 1)  # positions before the last period

    def _sigmas(self, x: tuple[int, ...], i: int) -> list[tuple[int, int]]:
        """(sigma_k, k) for every k with i_k = i."""
        row, word = self.cartan[i - 1], self.word
        return [(x[k] + sum(row[word[j] - 1] * x[j] for j in range(k + 1, len(x))), k)
                for k in range(i - 1, len(x), self.rank)]

    def epsilon(self, x: tuple[int, ...], i: int) -> int:
        return max(s for s, _ in self._sigmas(x, i))

    def _step(self, x: tuple[int, ...], k: int, d: int) -> tuple[int, ...]:
        if k >= self.free:
            raise TruncationError(f"step at position {k + 1} of {len(x)}")
        return x[:k] + (x[k] + d,) + x[k + 1:]

    def f(self, x: tuple[int, ...], i: int) -> tuple[int, ...]:
        sigmas = self._sigmas(x, i)
        top = max(s for s, _ in sigmas)
        return self._step(x, min(k for s, k in sigmas if s == top), 1)

    def e(self, x: tuple[int, ...], i: int) -> tuple[int, ...] | None:
        sigmas = self._sigmas(x, i)
        top = max(s for s, _ in sigmas)
        return self._step(x, max(k for s, k in sigmas if s == top), -1) if top > 0 else None

    def weight(self, x: tuple[int, ...]) -> tuple[int, ...]:
        """-sum of x_k alpha_{i_k}, in the basis of simple roots."""
        return tuple(-sum(x[i - 1::self.rank]) for i in range(1, self.rank + 1))

    def phi(self, x: tuple[int, ...], i: int) -> int:
        return self.epsilon(x, i) + sum(map(int.__mul__, self.cartan[i - 1], self.weight(x)))
