"""The k-lights-out game on a digraph.

Each vertex carries a label from Z/kZ.  Toggling a vertex v adds 1
(mod k) to v itself and to every vertex v dominates, i.e. every head of
an arc with tail v.  A labeling is winnable when some multiset of
toggles turns every label into 0; only the number of times each vertex
is toggled matters, never the order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .digraph import Digraph, check_ordering, induced_subgraph, strong_components
from .errors import InputError
from .modalg import (
    IntMatrix,
    ModMatrix,
    ModVector,
    det_int,
    is_unit_mod,
    solve_mod,
    unsolvable_certificate,
)

# Both are vectors indexed by vertex: a labeling holds the current
# light values, a toggle vector holds how many times to press each.
Labeling = ModVector
ToggleVector = ModVector


@dataclass(frozen=True)
class PlayTranscript:
    """Record of one sequential greedy play-through.

    ``ordering`` is the vertex order used, ``counts`` the presses made
    at each vertex in that order, ``final`` the labeling left behind.
    """

    ordering: tuple[int, ...]
    counts: tuple[int, ...]
    final: Labeling

    def counts_by_vertex(self) -> tuple[int, ...]:
        out = [0] * len(self.ordering)
        for v, c in zip(self.ordering, self.counts):
            out[v] = c
        return tuple(out)


def neighborhood_matrix(d: Digraph) -> IntMatrix:
    """The 0/1 matrix with row v marking v and the vertices v dominates.

    Entry (v, w) is 1 when w == v or v has an arc to w, else 0.  Its
    determinant drives winnability for every modulus at once.
    """
    rows = []
    for v in range(d.n):
        row = [0] * d.n
        row[v] = 1
        for w in d.out_lists[v]:
            row[w] = 1
        rows.append(row)
    return IntMatrix.from_rows(rows)


def system_matrix(d: Digraph, k: int) -> ModMatrix:
    """Coefficient matrix of the winnability system modulo k.

    Column v records which labels a toggle at v bumps, so this is the
    transpose of :func:`neighborhood_matrix` reduced mod k: solving
    ``system_matrix(d, k) @ x == c`` finds toggle counts x whose total
    effect on the labels is c.  Row w marks w and every u with an arc
    u -> w, so it is built straight from the in-neighbour lists.
    """
    rows = []
    for w in range(d.n):
        row = [0] * d.n
        row[w] = 1
        for u in d.in_lists[w]:
            row[u] = 1
        rows.append(tuple(row))
    return ModMatrix(tuple(rows), k)


def apply_toggles(d: Digraph, labeling: Labeling, toggles: ToggleVector) -> Labeling:
    """The labeling after pressing each vertex the given number of times."""
    _check_vector(d, labeling)
    _check_vector(d, toggles)
    k = labeling.modulus
    out = list(labeling.values)
    for v, t in enumerate(toggles.values):
        if t == 0:
            continue
        out[v] = (out[v] + t) % k
        for w in d.out_lists[v]:
            out[w] = (out[w] + t) % k
    return Labeling(tuple(out), k)


def solve_labeling(d: Digraph, labeling: Labeling) -> ToggleVector | None:
    """Toggle counts that clear the labeling, or None if it is unwinnable."""
    _check_vector(d, labeling)
    return solve_mod(system_matrix(d, labeling.modulus), labeling.negate())


def unwinnable_certificate(d: Digraph, labeling: Labeling) -> ModVector | None:
    """Vertex weights y proving the labeling unwinnable, or None if it is winnable.

    For every vertex v, y summed over v and the vertices v dominates is
    0 mod k, so no press changes the weighted sum of the labels.  That
    sum is y . labeling != 0, while a cleared board has sum 0.
    """
    _check_vector(d, labeling)
    return unsolvable_certificate(system_matrix(d, labeling.modulus), labeling.negate())


def is_winnable(d: Digraph, labeling: Labeling) -> bool:
    return solve_labeling(d, labeling) is not None


def neighborhood_det(d: Digraph) -> int:
    """Exact determinant of :func:`neighborhood_matrix`, one strong component at a time.

    Number the vertices component by component, in the acyclic order of
    :func:`strong_components`.  Every arc between two components then
    runs from an earlier block to a later one, so for that permutation
    matrix P, P N P^T is block upper triangular with the components'
    own neighborhood matrices on its diagonal.  Its determinant is
    det(P)^2 det(N) = det(N), so det(N) is the product of the blocks'
    determinants, sign included.  A single vertex's block is [1], as
    there are no self-loops, so an acyclic digraph has det(N) = 1 and
    needs no elimination.
    """
    det = 1
    for comp in strong_components(d):
        if len(comp) > 1:
            sub, _ = induced_subgraph(d, comp)
            det *= det_int(neighborhood_matrix(sub))
    return det


def is_k_aw(d: Digraph, k: int) -> bool:
    """True iff every labeling of d is winnable with k states per light.

    Holds exactly when det(N) is a unit mod k.  The determinant comes
    from :func:`neighborhood_det`, block by block over the strong
    components.  The empty digraph qualifies vacuously.
    """
    if k < 2:
        raise InputError(f"k must be >= 2, got {k}")
    return is_unit_mod(neighborhood_det(d), k)


def is_k_aw_componentwise(d: Digraph, k: int) -> bool:
    """Winnability for all labelings, decided one strong component at a time.

    Agrees with :func:`is_k_aw` on every digraph; arcs between distinct
    strong components never matter.
    """
    if k < 2:
        raise InputError(f"k must be >= 2, got {k}")
    for comp in strong_components(d):
        sub, _ = induced_subgraph(d, comp)
        if not is_unit_mod(det_int(neighborhood_matrix(sub)), k):
            return False
    return True


def greedy_play(d: Digraph, ordering: tuple[int, ...], labeling: Labeling) -> PlayTranscript:
    """Play the vertices in order, pressing each just enough to zero it.

    When a vertex comes up with label x, it is pressed (k - x) mod k
    times; later vertices it dominates absorb the same bumps.  On an
    acyclic ordering this clears the whole board, because no press ever
    disturbs a vertex already passed.
    """
    _check_vector(d, labeling)
    perm = check_ordering(d, ordering)
    k = labeling.modulus
    cur = list(labeling.values)
    counts = []
    for v in perm:
        t = (k - cur[v]) % k
        counts.append(t)
        if t:
            cur[v] = 0
            for w in d.out_lists[v]:
                cur[w] = (cur[w] + t) % k
    return PlayTranscript(perm, tuple(counts), Labeling(tuple(cur), k))


def _check_vector(d: Digraph, vec: ModVector) -> None:
    if len(vec.values) != d.n:
        raise InputError(f"vector length {len(vec.values)} does not match {d.n} vertices")
