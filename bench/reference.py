"""Reference computations that the benchmark checks lcsg's outputs against.

Nothing in this module imports lcsg.  Grammars are plain ``Spec`` values
that the benchmark generates itself and renders to the grammar file format
for lcsg to parse; every check here works from the ``Spec``, never from an
lcsg object, so a fault in parsing, rewriting, search, weighting or
prediction cannot hide behind a matching fault in its own check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

Names = tuple[str, ...]
END = None  # the END pseudo-token in reference distributions


@dataclass(frozen=True)
class Spec:
    """A grammar as data: alphabets, start symbol, ordered productions.

    Each production is ``(lhs, rhs, weight)`` over symbol names; a weight of
    ``None`` renders without ``p=`` and counts as 1.0 where weights matter.
    """

    name: str
    start: str
    terminals: Names
    nonterminals: Names
    productions: tuple[tuple[Names, Names, float | None], ...]

    def text(self) -> str:
        lines = [
            f"start: {self.start}",
            "terminals: " + " ".join(self.terminals),
            "nonterminals: " + " ".join(self.nonterminals),
        ]
        for lhs, rhs, w in self.productions:
            line = f"{' '.join(lhs)} -> {' '.join(rhs) if rhs else '_'}"
            if w is not None:
                line += f" p={w!r}"
            lines.append(line)
        return "\n".join(lines) + "\n"

    def renamed(self, suffix: str, terminals: bool = False) -> "Spec":
        """The same grammar with every nonterminal renamed ``<name><suffix>``,
        and every terminal too if ``terminals``.

        Renamed copies do the same work but are different cache keys, so
        each round of a workload starts its searches cold.
        """
        renamed = set(self.nonterminals) | (set(self.terminals) if terminals else set())

        def r(names: Names) -> Names:
            return tuple(n + suffix if n in renamed else n for n in names)

        return Spec(
            self.name,
            self.start + suffix,
            r(self.terminals),
            r(self.nonterminals),
            tuple((r(lhs), r(rhs), w) for lhs, rhs, w in self.productions),
        )

    def weight(self, index: int) -> float:
        w = self.productions[index][2]
        return 1.0 if w is None else w

    def rewrites(self, form: Names) -> list[tuple[int, int, Names]]:
        """Every one-step rewrite ``(production, position, result)``."""
        out = []
        for pos in range(len(form)):
            for i, (lhs, rhs, _) in enumerate(self.productions):
                if form[pos:pos + len(lhs)] == lhs:
                    out.append((i, pos, form[:pos] + rhs + form[pos + len(lhs):]))
        return out

    def is_terminal_string(self, form: Names) -> bool:
        return all(s in self.terminals for s in form)


# ---------------------------------------------------------------------------
# Grammar families


def counting_spec(name: str, letters: Sequence[str], order: Sequence[int] | None = None) -> Spec:
    """``x1^n x2^n ... xk^n`` (n >= 1) for k >= 2 letters.

    The classic monotone construction: ``S`` lays down ``x1`` and one marker
    per later letter, markers sort themselves by swapping, and each marker
    turns into its letter once the letter to its left is in place.  With the
    letters ``a b c`` this is exactly the textbook ``a^n b^n c^n`` grammar.
    ``order`` permutes the production list.
    """
    k = len(letters)
    marks = [f"B{j}" for j in range(1, k)]  # marker for letters[j]
    prods: list[tuple[Names, Names, None]] = [
        (("S",), (letters[0], "S", *marks), None),
        (("S",), (letters[0], *marks), None),
    ]
    for j in range(len(marks)):
        for i in range(j):
            prods.append(((marks[j], marks[i]), (marks[i], marks[j]), None))
    prods.append(((letters[0], marks[0]), (letters[0], letters[1]), None))
    for j in range(1, k):
        prods.append(((letters[j], marks[j - 1]), (letters[j], letters[j]), None))
        if j + 1 < k:
            prods.append(((letters[j], marks[j]), (letters[j], letters[j + 1]), None))
    if order is not None:
        prods = [prods[i] for i in order]
    return Spec(name, "S", tuple(letters), ("S", *marks), tuple(prods))


def in_counting(letters: Sequence[str], w: Names) -> bool:
    k = len(letters)
    if not w or len(w) % k:
        return False
    n = len(w) // k
    return w == tuple(x for x in letters for _ in range(n))


CROSS_SERIAL = Spec(
    "crossserial",
    "S",
    ("a", "b", "c", "d"),
    ("S", "T", "C", "D"),
    tuple(
        (tuple(lhs.split()), tuple(rhs.split()), None)
        for lhs, rhs in [
            ("S", "a S C"), ("S", "a T C"), ("T", "b T D"), ("T", "b D"),
            ("D C", "C D"), ("b C", "b c"), ("c C", "c c"), ("c D", "c d"), ("d D", "d d"),
        ]
    ),
)


def in_cross_serial(w: Names) -> bool:
    """``a^n b^m c^n d^m`` with n, m >= 1."""
    runs: list[list] = []
    for s in w:
        if runs and runs[-1][0] == s:
            runs[-1][1] += 1
        else:
            runs.append([s, 1])
    if [r[0] for r in runs] != ["a", "b", "c", "d"]:
        return False
    (_, n1), (_, m1), (_, n2), (_, m2) = runs
    return n1 == n2 and m1 == m2


LOOP = Spec(
    "loop",
    "S",
    ("a", "b"),
    ("S",),
    ((("S",), ("a", "S"), 1.0), (("S",), ("a",), 1.0), (("S",), ("b",), 2.0)),
)


def loop_probability(w: Names) -> float:
    """P(a^k a) = 1/4^(k+1) and P(a^k b) = 1/2 * 1/4^k under ``LOOP``."""
    if not w or any(s != "a" for s in w[:-1]):
        return 0.0
    k = len(w) - 1
    if w[-1] == "a":
        return 0.25 ** (k + 1)
    if w[-1] == "b":
        return 0.5 * 0.25 ** k
    return 0.0


def unit_cycle_spec(name: str, rates: Sequence[tuple[float, float, float]]) -> Spec:
    """States ``N0 .. N(m-1)`` on a cycle of unit productions.

    State i has weights ``(r, s, e)`` for ``Ni -> N(i+1)``, ``Ni -> ci Ni``
    and ``Ni -> ci``.  Every same-length layer holds a unit cycle, so exact
    probabilities need a linear solve in every layer.
    """
    m = len(rates)
    prods = []
    for i, (r, s, e) in enumerate(rates):
        prods.append(((f"N{i}",), (f"N{(i + 1) % m}",), r))
        prods.append(((f"N{i}",), (f"c{i}", f"N{i}"), s))
        prods.append(((f"N{i}",), (f"c{i}",), e))
    return Spec(
        name, "N0", tuple(f"c{i}" for i in range(m)),
        tuple(f"N{i}" for i in range(m)), tuple(prods),
    )


def unit_cycle_probability(rates: Sequence[tuple[float, float, float]], w: Names) -> float:
    """Closed form: a geometric series around the cycle between emissions.

    From state i the walk reaches state j by unit steps with total weight
    ``G[i, j] = prod(r_i .. r_(j-1)) / (1 - prod(all r))``; each emitted
    ``cj`` then costs ``s_j`` (stay) or, for the last one, ``e_j`` (stop).
    """
    m = len(rates)
    norm = [(r / (r + s + e), s / (r + s + e), e / (r + s + e)) for r, s, e in rates]
    loop = math.prod(r for r, _, _ in norm)

    def g(i: int, j: int) -> float:
        walk = 1.0
        while i != j:
            walk *= norm[i][0]
            i = (i + 1) % m
        return walk / (1.0 - loop)

    state, p = 0, 1.0
    for n, sym in enumerate(w):
        j = int(sym[1:])
        p *= g(state, j) * (norm[j][2] if n == len(w) - 1 else norm[j][1])
        state = j
    return p if w else 0.0


def left_cs_spec(name: str, shape, rng, n_nt: int, n_t: int, end_weight: float) -> Spec:
    """A weighted left context-sensitive grammar.

    Every form is an emitted terminal prefix followed by one nonterminal.
    Each nonterminal ``A`` has a free production ``A -> t B`` for every
    terminal ``t``, a context production ``z A -> z u B`` of weight 2 for
    every terminal ``z``, and an ending production ``A -> t`` weighted
    ``end_weight``.  ``shape`` draws the targets ``B``, ``u`` and the ending
    token; ``rng`` splits a weight of ``2 n_t`` among the free productions.

    Every token can follow every prefix, and after the first token exactly
    one context production applies, so a derivation ends at each step with
    the same chance ``e / (2 n_t + 2 + e)``.  With a fixed ``shape`` the
    language and the length distribution of derivations are the same
    whatever ``rng`` draws; only the probabilities change.
    """
    ts = tuple(f"t{i}" for i in range(n_t))
    nts = ("S",) + tuple(f"N{i}" for i in range(1, n_nt))
    prods: list[tuple[Names, Names, float]] = []
    for a in nts:
        free = [2.0] * n_t
        for _ in range(n_t):
            i, j = rng.randrange(n_t), rng.randrange(n_t)
            if free[i] > 1.0:
                free[i] -= 1.0
                free[j] += 1.0
        for t, w in zip(ts, free):
            prods.append(((a,), (t, shape.choice(nts)), w))
        for z in ts:
            prods.append(((z, a), (z, shape.choice(ts), shape.choice(nts)), 2.0))
        prods.append(((a,), (shape.choice(ts),), end_weight))
    return Spec(name, "S", ts, nts, tuple(prods))


# ---------------------------------------------------------------------------
# Derivations and path sums


def replay_steps(spec: Spec, steps: Sequence[tuple[Names, int, int, Names]]) -> Names:
    """Re-run ``(before, production, position, after)`` steps from the start.

    Raises ``ValueError`` on the first step that does not chain, does not
    match its production, or records a wrong result.
    """
    form: Names = (spec.start,)
    for n, (before, index, pos, after) in enumerate(steps):
        if before != form:
            raise ValueError(f"step {n} starts from {before}, expected {form}")
        if not 0 <= index < len(spec.productions):
            raise ValueError(f"step {n} names production {index}")
        lhs, rhs, _ = spec.productions[index]
        if form[pos:pos + len(lhs)] != lhs:
            raise ValueError(f"step {n}: production {index} does not match at {pos}")
        form = form[:pos] + rhs + form[pos + len(lhs):]
        if form != after:
            raise ValueError(f"step {n} records {after}, rewriting gives {form}")
    return form


def path_sum(spec: Spec, bound: int) -> dict[Names, float]:
    """Exact string probabilities up to ``bound`` by summing over paths.

    Every form rewrites by each applicable step with its renormalized
    weight; the probability of a terminal string is the memoized sum over
    all paths to it.  Only for grammars without same-length cycles and
    without shrinking productions, so that paths are finite and a form
    longer than ``bound`` can never come back within it.
    """
    memo: dict[Names, dict[Names, float]] = {}

    def dist(form: Names) -> dict[Names, float]:
        if form in memo:
            return memo[form]
        if spec.is_terminal_string(form):
            return {form: 1.0}
        steps = spec.rewrites(form)
        total = sum(spec.weight(i) for i, _, _ in steps)
        out: dict[Names, float] = {}
        for i, _, after in steps:
            if len(after) > bound:
                continue
            p = spec.weight(i) / total
            for w, q in dist(after).items():
                out[w] = out.get(w, 0.0) + p * q
        memo[form] = out
        return out

    return dist((spec.start,))


class LeftCSOracle:
    """Exact prefix and string probabilities for a ``left_cs_spec`` grammar.

    Forms are ``prefix + A``: each step appends one terminal and either
    keeps a nonterminal or ends.  A forward pass over the prefix tracks
    the probability of each pending nonterminal.  The arithmetic is
    rational, so tied probabilities stay exactly tied and convert to the
    same floats as any other exact computation of them.
    """

    def __init__(self, spec: Spec):
        self.spec = spec
        self._moves: dict[tuple, list] = {}

    def moves(self, nt: str, last: str | None) -> list[tuple[str, str | None, Fraction]]:
        """Applicable ``(token, next nonterminal or None, probability)``."""
        if (nt, last) in self._moves:
            return self._moves[(nt, last)]
        moves = []
        for lhs, rhs, w in self.spec.productions:
            if lhs == (nt,):
                moves.append((rhs[0], rhs[1] if len(rhs) > 1 else None, Fraction(w)))
            elif len(lhs) == 2 and lhs[1] == nt and lhs[0] == last:
                moves.append((rhs[1], rhs[2], Fraction(w)))
        total = sum(w for _, _, w in moves)
        self._moves[(nt, last)] = [(t, b, w / total) for t, b, w in moves]
        return self._moves[(nt, last)]

    def _step(self, pending: dict, last: str | None, tok: str) -> tuple[dict, Fraction]:
        grown: dict[str, Fraction] = {}
        ended = Fraction(0)
        for nt, p in pending.items():
            for t, b, q in self.moves(nt, last):
                if t != tok:
                    continue
                if b is None:
                    ended += p * q
                else:
                    grown[b] = grown.get(b, 0) + p * q
        return grown, ended

    def next_distributions(self, x: Names) -> tuple[list[dict], float, float]:
        """P(next token | x[:i]) for i = 0 .. len(x), with END keyed ``None``,
        then P(the string starts with x) and P(the string is x).

        One forward pass; an impossible prefix ends the list early.
        """
        out = []
        pending, exact = {self.spec.start: Fraction(1)}, Fraction(0)
        for i in range(len(x) + 1):
            prefix = sum(pending.values()) + exact
            if prefix == 0:
                break
            last = x[i - 1] if i else None
            dist: dict = {t: Fraction(0) for t in self.spec.terminals}
            for nt, p in pending.items():
                for t, _, q in self.moves(nt, last):
                    dist[t] += p * q
            dist[END] = exact
            out.append({t: float(p / prefix) for t, p in dist.items()})
            if i < len(x):
                pending, exact = self._step(pending, last, x[i])
        return out, float(sum(pending.values()) + exact), float(exact)

    def length_distribution(self, cap: int) -> list[float]:
        """P(len == n) for n < cap, and the rest of the mass at index cap."""
        # state: (last token, pending nonterminal) -> probability
        states: dict[tuple, Fraction] = {(None, self.spec.start): Fraction(1)}
        out = [Fraction(0)] * (cap + 1)
        for n in range(1, cap):
            grown: dict[tuple, Fraction] = {}
            for (last, nt), p in states.items():
                for t, b, q in self.moves(nt, last):
                    if b is None:
                        out[n] += p * q
                    else:
                        grown[(t, b)] = grown.get((t, b), 0) + p * q
            states = grown
        out[cap] = 1 - sum(out[:cap])
        return [float(p) for p in out]

    def language(self, max_len: int) -> dict[Names, float]:
        """Every string up to ``max_len`` with its probability."""
        out: dict[Names, float] = {}
        frontier: list[tuple[Names, dict]] = [((), {self.spec.start: Fraction(1)})]
        for _ in range(max_len):
            grown = []
            for x, pending in frontier:
                for t in self.spec.terminals:
                    nxt, exact = self._step(pending, x[-1] if x else None, t)
                    if exact > 0:
                        out[x + (t,)] = float(exact)
                    if nxt:
                        grown.append((x + (t,), nxt))
            frontier = grown
        return out


# ---------------------------------------------------------------------------
# k-gram maximum likelihood


class NgramOracle:
    """Maximum-likelihood k-gram distributions counted from a corpus.

    The state after a context is its last ``min(k, len(context))`` tokens;
    END closes every line; unseen states give the uniform distribution over
    vocabulary plus END.
    """

    def __init__(self, corpus: Sequence[Sequence[str]], k: int, vocab: Sequence[str]):
        self.k = k
        self.vocab = tuple(vocab)
        counts: dict[Names, dict] = {}
        for line in corpus:
            line = tuple(line)
            for i in range(len(line) + 1):
                ctx = line[max(0, i - k):i]
                nxt = line[i] if i < len(line) else END
                bucket = counts.setdefault(ctx, {})
                bucket[nxt] = bucket.get(nxt, 0) + 1
        self.counts = counts

    def state(self, context: Names) -> Names:
        return tuple(context[max(0, len(context) - self.k):]) if self.k else ()

    def distribution(self, context: Names) -> dict:
        bucket = self.counts.get(self.state(context))
        if bucket is None:
            u = 1.0 / (len(self.vocab) + 1)
            return {t: u for t in (*self.vocab, END)}
        total = sum(bucket.values())
        return {t: bucket.get(t, 0) / total for t in (*self.vocab, END)}

    def language(self, max_len: int) -> dict[Names, float]:
        out: dict[Names, float] = {}
        frontier: list[tuple[Names, float]] = [((), 1.0)]
        for _ in range(max_len):
            grown = []
            for x, p in frontier:
                dist = self.distribution(x)
                for t in self.vocab:
                    if dist[t] > 0.0:
                        y, q = x + (t,), p * dist[t]
                        end = self.distribution(y)[END]
                        if end > 0.0:
                            out[y] = q * end
                        grown.append((y, q))
            frontier = grown
        return out

    def spec(self, name: str) -> Spec:
        """The k-gram written as a right-linear grammar, one state per context."""
        def nt(ctx: Names) -> str:
            return "q_" + "_".join(ctx) if ctx else "q0"

        prods: list[tuple[Names, Names, float]] = [(("Z",), (nt(()),), 1.0)]
        states = sorted(self.counts)
        for ctx in states:
            bucket = self.counts[ctx]
            total = sum(bucket.values())
            for t in self.vocab:
                if bucket.get(t):
                    prods.append(((nt(ctx),), (t, nt(self.state(ctx + (t,)))), bucket[t] / total))
            if bucket.get(END):
                prods.append(((nt(ctx),), (), bucket[END] / total))
        return Spec(name, "Z", self.vocab, ("Z",) + tuple(nt(c) for c in states), tuple(prods))


def choose(dist: Sequence[tuple[object, float]], policy: str, u: float | None) -> object:
    """The decoding rule: greedy keeps the first maximum; sample is inverse CDF."""
    if policy == "greedy":
        best, best_p = dist[0]
        for tok, p in dist[1:]:
            if p > best_p:
                best, best_p = tok, p
        return best
    cumulative = 0.0
    for tok, p in dist:
        cumulative += p
        if u < cumulative:
            return tok
    return dist[-1][0]


# ---------------------------------------------------------------------------
# Attention forward pass


def attention_probabilities(weights: dict, token_ids: Sequence[int]) -> np.ndarray:
    """Next-token probabilities after every prefix, from the documented formula.

    Row i predicts the token after the first i tokens; the last column is
    END.  ``weights`` holds E, bos, Wq, Wk, Wv and Wo as named arrays.
    """
    emb, bos = weights["E"], weights["bos"]
    d = emb.shape[1]
    n_rows = len(token_ids) + 1
    pos = np.zeros((n_rows, d))
    for p in range(n_rows):
        for j in range(d):
            if j % 2 == 0:
                pos[p, j] = math.sin(p / 10000.0 ** (j / d))
            else:
                pos[p, j] = math.cos(p / 10000.0 ** ((j - 1) / d))
    x = np.array([bos] + [emb[i] for i in token_ids]) + pos
    q, k, v = x @ weights["Wq"], x @ weights["Wk"], x @ weights["Wv"]
    scores = q @ k.T / math.sqrt(d)
    scores[np.triu_indices(n_rows, k=1)] = -np.inf
    att = np.exp(scores - scores.max(axis=1, keepdims=True))
    att /= att.sum(axis=1, keepdims=True)
    logits = (att @ v) @ weights["Wo"]
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    return probs / probs.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# Small helpers


def close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-12 + 1e-9 * max(abs(a), abs(b))


def same_distribution(got: dict, want: dict) -> bool:
    """Same support (ignoring zeros) and probabilities equal within tolerance."""
    keys = {k for k, p in got.items() if p > 0.0} | {k for k, p in want.items() if p > 0.0}
    return all(close(got.get(k, 0.0), want.get(k, 0.0)) for k in keys)


def tv_budget(samples: int, bins: int) -> float:
    """A total-variation bound that an honest sampler exceeds with P < 1e-9.

    The expected distance is at most ``0.5 * sqrt(bins / samples)``, and the
    distance moves by at most ``1 / samples`` per sample, so McDiarmid's
    inequality adds ``sqrt(ln(1e9) / (2 * samples))``.
    """
    return 0.5 * math.sqrt(bins / samples) + math.sqrt(math.log(1e9) / (2 * samples))


def total_variation(p: dict, q: dict) -> float:
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in set(p) | set(q))


def is_right_linear(productions: Sequence[tuple[Names, Names]], nonterminals: set[str]) -> bool:
    """Each production is ``A -> w`` or ``A -> w B`` with ``w`` all terminals."""
    for lhs, rhs in productions:
        if len(lhs) != 1 or lhs[0] not in nonterminals:
            return False
        body = rhs[:-1] if rhs and rhs[-1] in nonterminals else rhs
        if any(s in nonterminals for s in body):
            return False
    return True
