"""The four workloads: seeded inputs, timed operations, and their checks.

``build(name, seed, tracer)`` returns a ``Workload`` whose ``make_round(r)``
gives round r: a fixed list of operations, each a call (or a short
pipeline of calls) into lcsg's public API plus a check against
``reference``.  Every round does the same work on the same inputs, but
parses its own copies of the grammars, with renamed symbols, and builds its
own predictors, so no cache carries work from one round into the next.
Checks run outside the timed calls and use separate predictor instances,
so they never warm a cache that a later timed call reads.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Any, Callable

import lcsg
from lcsg import SymbolString, terminal

import reference as ref
from reference import END, Names
from tracing import TimedPredictor, Tracer


class CheckFailed(Exception):
    """An output disagrees with the benchmark's own computation."""


class KnownFault(Exception):
    """An output is wrong because of one of two known faults in lcsg.

    ``NgramPredictor.next_distribution`` slices the state with a negative
    start when ``0 < len(context) < k``, so a k = 3 predictor forgets the
    first of two context tokens.  ``induce_grammar`` leaves a state first
    reached at the horizon with only its lambda production, so a string of
    exactly the horizon length that ends in such a state gets its prefix
    probability.  Operations that hit either count as failed.
    """


@dataclass
class Op:
    run: Callable[[], Any]
    check: Callable[[Any], str]  # canonical text of the checked output


@dataclass
class Workload:
    make_round: Callable[[int], list[Op]]  # the same operations in every round, in order
    grammars: list  # lcsg grammars parsed so far; traced runs time hashing them
    finish: Callable[[], list[str]]  # whole-run checks, after every round


def build(name: str, seed: int, tr: Tracer) -> Workload:
    return {
        "membership": membership,
        "weighted": weighted,
        "generation": generation,
        "induction": induction,
    }[name](seed, tr)


def _parse(spec: ref.Spec, tr: Tracer):
    with tr.span("grammar_io.parse_grammar"):
        return lcsg.parse_grammar(spec.text())


def _weighted(spec: ref.Spec, tr: Tracer):
    return lcsg.WeightedGrammar.from_grammar(_parse(spec, tr))


def _string(names: Names) -> SymbolString:
    return SymbolString(tuple(terminal(n) for n in names))


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _steps(trace) -> list[tuple[Names, int, int, Names]]:
    return [(s.before.names(), s.production_index, s.position, s.after.names()) for s in trace.steps]


def _replay(spec: ref.Spec, trace, want: Names | None) -> str:
    """Replay a derivation with the benchmark's own rewriting."""
    steps = _steps(trace)
    try:
        final = ref.replay_steps(spec, steps)
    except ValueError as e:
        raise CheckFailed(f"{spec.name}: {e}") from None
    _require(want is None or final == want, f"{spec.name}: derivation ends at {final}, not {want}")
    return " ".join(f"{i}@{p}" for _, i, p, _ in steps)


def _time_successors(tr: Tracer, forms, g) -> None:
    """Traced runs only: time ``successors`` on forms a workload trace passed."""
    for form in forms:
        with tr.span("derivation.successors"):
            lcsg.successors(form, g)


# ---------------------------------------------------------------------------
# membership: bounded search, cold and cached

# (cold search lengths) per grammar; each first query at a length starts a
# new search, the rest are answered from it.
_MEMBERSHIP_LENGTHS = {"abc": (18, 21), "crossserial": (14, 16), "count2": (48, 64), "count4": (8, 12)}
_QUERIES_PER_SEARCH = 250
_LETTERS = "efghijkmnpqrsuvxyz"


def _members(spec: ref.Spec, length: int) -> list[Names]:
    if spec.name == "crossserial":
        half = length // 2
        return [
            ("a",) * n + ("b",) * (half - n) + ("c",) * n + ("d",) * (half - n)
            for n in range(1, half) if length % 2 == 0
        ]
    k = len(spec.terminals)
    return [tuple(x for x in spec.terminals for _ in range(length // k))] if length % k == 0 else []


def _in_language(spec: ref.Spec, w: Names) -> bool:
    if spec.name == "crossserial":
        return ref.in_cross_serial(w)
    return ref.in_counting(spec.terminals, w)


def _queries(rng: random.Random, spec: ref.Spec, length: int) -> list[Names]:
    """One member first (it starts the search), then members one time in
    twenty and near misses otherwise: a substituted symbol, two swapped
    positions, or a random string over the alphabet."""
    members = _members(spec, length)
    out = [members[0]]
    for i in range(1, _QUERIES_PER_SEARCH):
        w = list(rng.choice(members))
        if i % 20 == 0:
            out.append(tuple(w))
            continue
        kind = rng.randrange(3)
        if kind == 0:
            w[rng.randrange(length)] = rng.choice(spec.terminals)
        elif kind == 1:
            i1, i2 = rng.randrange(length), rng.randrange(length)
            w[i1], w[i2] = w[i2], w[i1]
        else:
            w = [rng.choice(spec.terminals) for _ in range(length)]
        out.append(tuple(w))
    return out


def membership(seed: int, tr: Tracer) -> Workload:
    rng = random.Random(seed)
    specs = [ref.counting_spec("abc", "abc"), ref.CROSS_SERIAL]
    for k in (2, 4):
        letters = rng.sample(_LETTERS, k)
        order = list(range(len(ref.counting_spec("", letters).productions)))
        rng.shuffle(order)
        specs.append(ref.counting_spec(f"count{k}", letters, order))
    queries = {
        (spec.name, length): _queries(rng, spec, length)
        for spec in specs
        for length in _MEMBERSHIP_LENGTHS[spec.name]
    }

    grammars: list = []

    def make_round(r: int) -> list[Op]:
        grammars.clear()
        ops = []
        for base in specs:
            spec = base.renamed(f"_{r}")
            g = _parse(spec, tr)
            grammars.append(g)
            for length in _MEMBERSHIP_LENGTHS[base.name]:
                for n, w in enumerate(queries[(base.name, length)]):
                    ops.append(_membership_op(tr, spec, g, w, cold=n == 0))
        return ops

    return Workload(make_round, grammars, lambda: [])


def _membership_op(tr: Tracer, spec: ref.Spec, g, w: Names, cold: bool) -> Op:
    target = _string(w)
    span = "derivation.search" if cold else "derivation.query"

    def run():
        with tr.span(span):
            return lcsg.derives_bounded(g, target)

    def check(trace) -> str:
        member = _in_language(spec, w)
        _require((trace is not None) == member, f"{spec.name}: membership of {w} should be {member}")
        steps = _replay(spec, trace, w) if trace is not None else "none"
        if cold and trace is not None and tr.enabled:
            _time_successors(tr, (s.before for s in trace.steps), g)
        return f"{spec.name} {' '.join(w)}: {steps}"

    return Op(run, check)


# ---------------------------------------------------------------------------
# weighted: exact distributions and seeded sampling

_EXACT_BOUNDS = (("abc", 12), ("abc", 15), ("crossserial", 8), ("crossserial", 10), ("cycle", 3), ("loop", 16))
_LOOP_SAMPLES = 400
_LEFT_CS_SAMPLES = 40
_LEFT_CS_GRAMMARS = 3
_MAX_SAMPLE_STEPS = 40  # caps the tail of the geometric derivation lengths
_LENGTH_EDGES = (4, 8, 16, 32)  # length bins for the sampled left-CS check
_FIXED_SAMPLING_SEED = 20250417


def weighted(seed: int, tr: Tracer) -> Workload:
    rng = random.Random(seed)
    rates = [(float(rng.randint(2, 4)), 1.0, float(rng.randint(1, 2))) for _ in range(3)]
    exact_specs = {
        "abc": ref.counting_spec("abc", "abc"),
        "crossserial": ref.CROSS_SERIAL,
        "cycle": ref.unit_cycle_spec("cycle", rates),
        "loop": ref.LOOP,
    }
    closed_forms = {
        "cycle": lambda w: ref.unit_cycle_probability(rates, w),
        "loop": ref.loop_probability,
    }
    sampled = [ref.LOOP] + [
        ref.left_cs_spec(f"lcs{i}", random.Random(100 + i), rng, n_nt=3, n_t=3, end_weight=0.5)
        for i in range(_LEFT_CS_GRAMMARS)
    ]
    # Sampling seeds decide how long each derivation runs, and so the work;
    # they are fixed, and the seed draws the weights.
    sampling = random.Random(_FIXED_SAMPLING_SEED)
    seeds = {
        spec.name: [sampling.randrange(2**31) for _ in range(_LOOP_SAMPLES if spec.name == "loop" else _LEFT_CS_SAMPLES)]
        for spec in sampled
    }
    draws: dict[str, dict] = {spec.name: {} for spec in sampled}  # sample seed -> one draw per round

    grammars: list = []

    def make_round(r: int) -> list[Op]:
        grammars.clear()
        ops = []
        for name, bound in _EXACT_BOUNDS:
            spec = exact_specs[name].renamed(f"_{r}")
            wg = _weighted(spec, tr)
            grammars.append(wg.grammar)
            ops.append(_exact_op(tr, spec, wg, bound, closed_forms.get(name)))
        for base in sampled:
            spec = base.renamed(f"_{r}")
            wg = _weighted(spec, tr)
            grammars.append(wg.grammar)
            ops.extend(_sample_op(tr, spec, wg, s, draws[base.name]) for s in seeds[base.name])
        return ops

    def finish() -> list[str]:
        lines = [_check_sampling(base, draws[base.name]) for base in sampled]
        lines.extend(_cross_check_references(sampled[1]))
        return lines

    return Workload(make_round, grammars, finish)


def _exact_op(tr: Tracer, spec: ref.Spec, wg, bound: int, closed_form) -> Op:
    def run():
        with tr.span("stochastic.exact_distribution"):
            return lcsg.exact_distribution(wg, bound)

    def check(dist) -> str:
        got = {w.names(): p for w, p in dist.probabilities.items()}
        if closed_form is None:
            want = ref.path_sum(spec, bound)
        else:
            want = {w: closed_form(w) for w in _all_strings(spec.terminals, bound)}
        _require(ref.same_distribution(got, want), f"{spec.name}: exact distribution to {bound} differs")
        residual = max(0.0, 1.0 - sum(want.values()))
        _require(abs(dist.residual - residual) < 1e-9, f"{spec.name}: residual {dist.residual} != {residual}")
        return f"{spec.name} {bound}: " + " ".join(
            f"{' '.join(w)}={got[w]:.12g}" for w in sorted(got, key=lambda w: (len(w), w))
        )

    return Op(run, check)


def _all_strings(alphabet: Names, bound: int) -> list[Names]:
    out, layer = [], [()]
    for _ in range(bound):
        layer = [w + (t,) for w in layer for t in alphabet]
        out.extend(layer)
    return out


def _sample_op(tr: Tracer, spec: ref.Spec, wg, sample_seed: int, draws: dict) -> Op:
    def run():
        with tr.span("stochastic.sample_derivation") as s:
            out = lcsg.sample_derivation(wg, sample_seed, _MAX_SAMPLE_STEPS)
            s.work = len(out.trace.steps)
            return out

    def check(sampled) -> str:
        final = sampled.trace.final.names()
        steps = _replay(spec, sampled.trace, None)
        _require(sampled.truncated != spec.is_terminal_string(final), f"{spec.name}: truncation flag wrong")
        seen = draws.setdefault(sample_seed, [])
        if not seen and len(draws) % 10 == 1:  # every tenth seed, on its first round
            again = lcsg.sample_derivation(wg, sample_seed, _MAX_SAMPLE_STEPS)
            _require(_steps(again.trace) == _steps(sampled.trace), f"{spec.name}: seed {sample_seed} resampled differently")
            if tr.enabled:
                _time_successors(tr, (s.before for s in sampled.trace.steps), wg.grammar)
        seen.append((steps, sampled.truncated, None if sampled.truncated else final))
        return f"{spec.name} seed={sample_seed}: {steps}"

    return Op(run, check)


def _check_sampling(spec: ref.Spec, draws: dict) -> str:
    """One seed gives one trace in every round; frequencies stay within a
    total-variation budget of the exact distribution."""
    for sample_seed, per_round in draws.items():
        _require(all(d == per_round[0] for d in per_round), f"{spec.name}: seed {sample_seed} differs between rounds")
    if spec.name == "loop":
        bins = [w for n in range(1, 6) for w in (("a",) * (n - 1) + ("a",), ("a",) * (n - 1) + ("b",))]
        want = {w: ref.loop_probability(w) for w in bins}
        project = lambda w: w if w in want else "longer"  # noqa: E731
    else:
        lengths = ref.LeftCSOracle(spec).length_distribution(_LENGTH_EDGES[-1] + 1)
        edges = (0,) + _LENGTH_EDGES
        want = {hi: sum(lengths[lo + 1:hi + 1]) for lo, hi in zip(edges, edges[1:])}
        project = lambda w: next((hi for hi in _LENGTH_EDGES if len(w) <= hi), "longer")  # noqa: E731
    want["longer"] = max(0.0, 1.0 - sum(want.values()))
    seen: dict = {}
    for (_, truncated, final), *_ in draws.values():
        key = "longer" if truncated else project(final)
        seen[key] = seen.get(key, 0) + 1 / len(draws)
    distance = ref.total_variation(seen, want)
    budget = ref.tv_budget(len(draws), len(want))
    _require(distance <= budget, f"{spec.name}: sampled TV {distance:.3f} over budget {budget:.3f}")
    return f"{spec.name} samples={len(draws)} tv={distance:.12g}"


def _cross_check_references(lcs: ref.Spec) -> list[str]:
    """Where two reference computations overlap, they must agree."""
    loop = ref.path_sum(ref.LOOP, 6)
    _require(ref.same_distribution(loop, {w: ref.loop_probability(w) for w in _all_strings(("a", "b"), 6)}),
             "reference: loop path sum disagrees with its closed form")
    oracle = ref.LeftCSOracle(lcs)
    paths = ref.path_sum(lcs, 5)
    _require(ref.same_distribution(paths, oracle.language(5)),
             "reference: left-CS path sum disagrees with the forward pass")
    lengths = oracle.length_distribution(6)
    _require(all(ref.close(lengths[n], sum(p for w, p in paths.items() if len(w) == n)) for n in range(1, 6)),
             "reference: left-CS length distribution disagrees with the path sum")
    return [f"reference cross-checks: {len(paths)} strings"]


# ---------------------------------------------------------------------------
# generation: predictor runs, reports, trace round trips

_VOCAB32 = tuple(f"w{i:02d}" for i in range(32))
_NGRAM_VOCAB = tuple("abcdef")
_POSITION_CAP = 64  # toy attention positions, counting the leading bos row
_TOY_PROMPTS = (0, 4, 16, 32)
_GRAMMAR_PROMPTS = (0, 2, 5, 10)
_NGRAM_PROMPTS = (0, 1, 2, 3, 5, 7, 10, 12)
_FIXED_CORPUS_SEED = 20250415  # the k = 3 runs do not depend on --seed
# Attention weights decide whether greedy runs stop early or run to the
# position cap, and with it much of the workload's cost, so they are fixed
# (greedy runs of both reach the cap).  Sampled runs stop at a random step,
# and the grammar weights decide both where and which path a greedy run
# takes, so the toy prompts, the grammar weights and the sampling seeds of
# toy and grammar runs are fixed too; the seed draws the grammar prompts.
_FIXED_RUNS_SEED = 20250416
_TOY_WEIGHT_SEEDS = (0, 1)
_SAMPLED_RUNS = 4  # sampled runs per prompt, beside one greedy run


def _markov_corpus(rng: random.Random, lines: int, vocab: Names, lo: int, hi: int) -> list[list[str]]:
    """Lines from a random first-order chain, so k-grams see structure."""
    follow = {t: rng.sample(vocab, 3) for t in vocab}
    out = []
    for _ in range(lines):
        line = [rng.choice(vocab)]
        for _ in range(rng.randint(lo, hi) - 1):
            line.append(rng.choice(follow[line[-1]]))
        out.append(line)
    return out


def _left_cs_prefix(rng: random.Random, spec: ref.Spec, length: int) -> Names:
    """A prefix the grammar can emit, from a walk the benchmark samples."""
    oracle = ref.LeftCSOracle(spec)
    while True:
        x: Names = ()
        nt: str | None = spec.start
        while nt is not None and len(x) < length:
            moves = oracle.moves(nt, x[-1] if x else None)
            tok, nt, _ = rng.choices(moves, weights=[q for _, _, q in moves])[0]
            x += (tok,)
        if len(x) == length and nt is not None:
            return x


def generation(seed: int, tr: Tracer) -> Workload:
    rng = random.Random(seed)
    lcs = [ref.left_cs_spec(f"gen{i}", random.Random(200 + i), random.Random(_FIXED_RUNS_SEED + i),
                            n_nt=4, n_t=4, end_weight=0.5)
           for i in range(2)]
    corpus = _markov_corpus(rng, 16, _NGRAM_VOCAB, 40, 60)
    fixed = _markov_corpus(random.Random(_FIXED_CORPUS_SEED), 8, _NGRAM_VOCAB, 20, 30)

    grammars: list = []
    fixed_rng = random.Random(_FIXED_RUNS_SEED)
    runs = []  # (family key, prompt, policy, sample seed)
    for i in range(len(_TOY_WEIGHT_SEEDS)):
        for n in _TOY_PROMPTS:
            prompt = tuple(fixed_rng.choice(_VOCAB32) for _ in range(n))
            runs.append((("toy", i), prompt, "greedy", 0))
            runs += [(("toy", i), prompt, "sample", fixed_rng.randrange(2**31)) for _ in range(_SAMPLED_RUNS)]
    for i, spec in enumerate(lcs):
        for n in _GRAMMAR_PROMPTS:
            prompt = _left_cs_prefix(rng, spec, n)
            runs.append((("grammar", i), prompt, "greedy", 0))
            runs += [(("grammar", i), prompt, "sample", fixed_rng.randrange(2**31)) for _ in range(_SAMPLED_RUNS)]
    for k in (1, 2):
        for n in _NGRAM_PROMPTS:
            prompt = tuple(rng.choice(corpus)[:n])
            runs += [(("ngram", k), prompt, "greedy", 0), (("ngram", k), prompt, "sample", rng.randrange(2**31))]
    for n in (0, 1, 2):
        prompt = tuple(fixed[0][:n])
        runs += [(("ngram", 3), prompt, "greedy", 0), (("ngram", 3), prompt, "sample", 1000 + n)]

    def predictor(key, r: int):
        """A timed predictor, and a twin the checks may query freely."""
        family, i = key
        if family == "toy":
            make = lambda: lcsg.toy_attention_predictor(_TOY_WEIGHT_SEEDS[i], 8, _VOCAB32)  # noqa: E731
        elif family == "grammar":
            wg = _weighted(lcs[i].renamed(f"_{r}"), tr)
            grammars.append(wg.grammar)
            make = lambda: lcsg.grammar_predictor(wg)  # noqa: E731
        else:
            make = lambda: lcsg.ngram_train(corpus if i < 3 else fixed, i, _NGRAM_VOCAB)  # noqa: E731
        timed, twin = make(), make()
        return (TimedPredictor(timed, tr) if tr.enabled else timed), twin

    def make_round(r: int) -> list[Op]:
        grammars.clear()
        built = {key: predictor(key, r) for key in dict.fromkeys(key for key, _, _, _ in runs)}
        ops = []
        for key, prompt, policy, sample_seed in runs:
            timed, twin = built[key]
            oracle = _generation_oracle(key, twin, lcs, corpus, fixed)
            ops.append(_generation_op(tr, timed, twin, oracle, key, prompt, policy, sample_seed))
        return ops

    return Workload(make_round, grammars, lambda: [])


def _generation_oracle(key, twin, lcs, corpus, fixed):
    family, i = key
    if family == "toy":
        return {"E": twin.embeddings, "bos": twin.bos, "Wq": twin.w_query, "Wk": twin.w_key,
                "Wv": twin.w_value, "Wo": twin.w_out}
    if family == "grammar":
        return ref.LeftCSOracle(lcs[i])
    return ref.NgramOracle(corpus if i < 3 else fixed, i, _NGRAM_VOCAB)


def _generation_op(tr, predictor, twin, oracle, key, prompt: Names, policy: str, sample_seed: int) -> Op:
    prompt_string = _string(prompt)
    max_t = _POSITION_CAP - len(prompt)

    def run():
        with tr.span("autoregressive.generate") as s:
            record = lcsg.generate(predictor, prompt_string, policy, sample_seed, max_t)
            s.work = len(record.steps)
        with tr.span("bridge.build_trace_report"):
            report = lcsg.build_trace_report(record)
        with tr.span("traces.serialize_trace") as s:
            text = lcsg.serialize_trace(report)
            s.work = len(text)
        with tr.span("traces.parse_trace"):
            parsed = lcsg.parse_trace(text)
        return record, report, text, parsed

    def check(out) -> str:
        record, report, text, parsed = out
        _check_report(record, report, parsed)
        final = record.final.names()
        ended = record.termination == "END_sampled"
        _require(ended or len(record.steps) == max_t, "run stopped early without END")
        family = key[0]
        if family == "toy":
            _check_toy_run(oracle, twin, prompt, final, ended, policy, sample_seed)
        elif family == "grammar":
            _check_grammar_run(oracle, twin, prompt, final, ended, policy, sample_seed)
        else:
            _check_ngram_run(oracle, twin, prompt, record, ended, policy, sample_seed)
        digest = hashlib.sha256(text.encode()).hexdigest()[:16]
        return f"{key} {policy} {' '.join(prompt)} -> {' '.join(final)} report={digest}"

    return Op(run, check)


def _check_report(record, report, parsed) -> None:
    """Form check, the benchmark's own replay, and the trace round trip."""
    _require(report.conforming and report.replay_result == record.final, "report is not conforming")
    form: tuple = (lcsg.B_DYN,)
    for p, c in zip(report.productions, report.form_checks):
        if p.kind == "terminal":
            _require(len(p.lhs) == 1 and form[-1] == p.lhs[0] and not p.rhs, "closing production does not fit")
            _require(c.status is lcsg.FormCheckStatus.EXEMPT_TERMINAL, "closing production not exempt")
            form = form[:-1]
            continue
        _require(form == p.lhs, f"{p.kind} production does not match the form")
        if p.kind == "interior":
            alpha = p.lhs[:-1]
            _require(isinstance(p.lhs[-1], lcsg.DynamicNonterminal), "interior lhs lacks a trailing nonterminal")
            _require(p.rhs[:len(alpha)] == alpha and len(p.rhs) > len(alpha), "interior production breaks its context")
            _require(c.status is lcsg.FormCheckStatus.PASS, "interior production did not pass its form check")
        form = p.rhs
    _require(tuple(s.name for s in form) == record.final.names(), "replay does not rebuild the final string")
    _require(parsed == report, "parse_trace(serialize_trace(report)) != report")


def _by_name(dist) -> dict:
    return {(END if t is lcsg.END else t.name): q for t, q in dist.entries}


def _decode(dists: list[list[tuple]], final: Names, start: int, ended: bool, policy: str, sample_seed: int) -> None:
    """Re-make every choice of the run from reference distributions."""
    rng = random.Random(sample_seed) if policy == "sample" else None
    chosen = list(final[start:]) + ([END] if ended else [])
    for t, want in enumerate(chosen):
        got = ref.choose(dists[t], policy, rng.random() if rng else None)
        _require(got == want, f"step {t}: the reference chooses {got}, the run chose {want}")


def _check_toy_run(weights, twin, prompt, final, ended, policy, sample_seed) -> None:
    index = {n: i for i, n in enumerate(_VOCAB32)}
    probs = ref.attention_probabilities(weights, [index[n] for n in final])
    rows = range(len(prompt), len(final) + (1 if ended else 0))
    dists = [[(n, probs[row, i]) for i, n in enumerate(_VOCAB32)] + [(END, probs[row, -1])] for row in rows]
    for j, row in enumerate(rows):
        if j % 8 and j != len(rows) - 1:
            continue
        got, _ = twin.next_distribution(twin.initial_state, _string(final[:row]))
        _require(all(abs(p - q) < 1e-9 for (_, p), (_, q) in zip(got.entries, dists[j])),
                 f"attention distribution after {row} tokens differs from the forward pass")
    _decode(dists, final, len(prompt), ended, policy, sample_seed)


def _check_grammar_run(oracle, twin, prompt, final, ended, policy, sample_seed) -> None:
    want, prefix, exact = oracle.next_distributions(final)
    _require(len(want) == len(final) + 1, "the run emitted a string the grammar cannot produce")
    chain, state = 1.0, twin.initial_state
    for i in range(len(final) + 1):
        got, state = twin.next_distribution(state, _string(final[:i]))
        p = _by_name(got)
        _require(ref.same_distribution(p, want[i]), f"grammar predictor after {i} tokens differs from the path sum")
        chain *= p[final[i]] if i < len(final) else (p[END] if ended else 1.0)
    path = exact if ended else prefix
    _require(ref.close(chain, path), f"chain product {chain} != path sum {path}")
    vocab = oracle.spec.terminals
    dists = [[(t, d[t]) for t in sorted(vocab)] + [(END, d[END])] for d in want[len(prompt):]]
    _decode(dists, final, len(prompt), ended, policy, sample_seed)


def _check_ngram_run(oracle: ref.NgramOracle, twin, prompt, record, ended, policy, sample_seed) -> None:
    final = record.final.names()
    afters = [s.state_after.encoding for s in record.steps]
    for i in range(len(prompt), len(final) + (1 if ended else 0)):
        context = final[:i]
        got, state = twin.next_distribution(twin.initial_state, _string(context))
        p = _by_name(got)
        recorded = afters[i - len(prompt)] if i - len(prompt) < len(afters) else state.encoding
        if not ref.same_distribution(p, oracle.distribution(context)) or recorded != oracle.state(context):
            if 0 < len(context) < oracle.k:
                raise KnownFault(f"k={oracle.k} after {len(context)} tokens keeps state {recorded}")
            raise CheckFailed(f"k-gram distribution after {context} differs from the corpus counts")
    dists = [[(t, d[t]) for t in _NGRAM_VOCAB] + [(END, d[END])]
             for d in (oracle.distribution(final[:i]) for i in range(len(prompt), len(final) + 1))]
    _decode(dists, final, len(prompt), ended, policy, sample_seed)


# ---------------------------------------------------------------------------
# induction: grammars written down from predictors, then searched and weighed

_HORIZON = 4
_PROBABILITY_LENGTHS = (2, 2, 3, 3, 3, 3, 3, 3)  # one string_probability per entry
# One grammar source has fixed weights, like the k = 3 corpus of generation,
# and is also asked for every fifth of its horizon-length strings in sorted
# order.  Some of them end in a state first reached at the horizon and hit
# the induce_grammar fault, the same ones whatever --seed is.
_FIXED_SOURCE = 1
_FIXED_WEIGHT_SEED = 20250415
_HORIZON_STRIDE = 5
_INDUCTION_VOCAB = ("a", "b", "c")


def _de_bruijn(k: int, n: int) -> list[int]:
    """A cyclic sequence over ``range(k)`` holding every n-gram once."""
    a, out = [0] * (k * n), []

    def db(t: int, p: int) -> None:
        if t > n:
            if n % p == 0:
                out.extend(a[1:p + 1])
        else:
            a[t] = a[t - p]
            db(t + 1, p)
            for j in range(a[t - p] + 1, k):
                a[t] = j
                db(t + 1, t)

    db(1, 1)
    return out


def _covering_corpus(rng: random.Random) -> list[list[str]]:
    """Nine lines, one per opening pair, each once round a de Bruijn cycle of
    every 3-gram, plus three short random lines.  Every context of up to
    two tokens is followed by every token, so the k-gram's prefix tree is
    full and the cost of its grammar does not depend on the seed; the seed
    draws the letter order and the random lines, and so the probabilities.
    """
    letters = list(_INDUCTION_VOCAB)
    rng.shuffle(letters)
    cycle = [letters[i] for i in _de_bruijn(len(letters), 3)]
    lines = []
    for x in letters:
        for y in letters:
            i = next(i for i in range(len(cycle)) if cycle[i] == x and cycle[(i + 1) % len(cycle)] == y)
            turn = cycle[i:] + cycle[:i]
            lines.append(turn + turn[:2])
    lines += [[rng.choice(letters) for _ in range(rng.randint(3, 8))] for _ in range(3)]
    return lines


def induction(seed: int, tr: Tracer) -> Workload:
    rng = random.Random(seed)
    lcs = [
        ref.left_cs_spec(f"ind{i}", random.Random(300 + i),
                         random.Random(_FIXED_WEIGHT_SEED) if i == _FIXED_SOURCE else rng,
                         n_nt=3, n_t=3, end_weight=2.0)
        for i in range(3)
    ]
    corpus = _covering_corpus(rng)
    sources = []  # (source grammar, its language with probabilities, corpus or None)
    for spec in lcs:
        sources.append((spec, ref.LeftCSOracle(spec).language(_HORIZON), None))
    for k in (1, 2):
        oracle = ref.NgramOracle(corpus, k, _INDUCTION_VOCAB)
        sources.append((oracle.spec(f"ngram{k}"), oracle.language(_HORIZON), k))
    picks = []
    for _, language, _ in sources:
        strings = []
        for n in sorted(set(_PROBABILITY_LENGTHS)):
            pool = sorted(w for w in language if len(w) == n)
            want = _PROBABILITY_LENGTHS.count(n)
            strings += rng.sample(pool, want) if len(pool) >= want else rng.choices(pool, k=want)
        picks.append(strings)
    fixed_language = sources[_FIXED_SOURCE][1]
    picks[_FIXED_SOURCE] += sorted(w for w in fixed_language if len(w) == _HORIZON)[::_HORIZON_STRIDE]
    # What a horizon-length string gets when it hits the fault: its prefix
    # probability under the source.
    faulty = {w: ref.LeftCSOracle(lcs[_FIXED_SOURCE]).next_distributions(w)[1]
              for w in picks[_FIXED_SOURCE] if len(w) == _HORIZON}

    grammars: list = []

    def make_round(r: int) -> list[Op]:
        grammars.clear()
        # Terminals are renamed too: the k-gram grammars induced in two
        # rounds would otherwise be equal, and share one search cache entry.
        suffix = f"_{r}"

        def relabel(w: Names) -> Names:
            return tuple(x + suffix for x in w)

        ops = []
        for (base, language, k), strings in zip(sources, picks):
            spec = base.renamed(suffix, terminals=True)
            source = _weighted(spec, tr)
            grammars.append(source.grammar)
            if k is None:
                made = lcsg.grammar_predictor(source)
            else:
                made = lcsg.ngram_train([relabel(line) for line in corpus], k, spec.terminals)
            predictor = TimedPredictor(made, tr) if tr.enabled else made
            ops.extend(_induction_ops(
                tr, predictor, source, spec,
                {relabel(w): p for w, p in language.items()}, [relabel(w) for w in strings],
                {relabel(w): p for w, p in faulty.items()} if base.name == lcs[_FIXED_SOURCE].name else {},
            ))
        return ops

    return Workload(make_round, grammars, lambda: [])


def _induction_ops(tr, predictor, source, spec: ref.Spec, language: dict, strings: list[Names],
                   faulty: dict) -> list[Op]:
    name = spec.name
    induced: dict = {}  # the induced grammar, for the operations after induce

    def induce():
        with tr.span("bridge.induce_grammar") as s:
            induced["wg"] = lcsg.induce_grammar(predictor, spec.terminals, _HORIZON)
            s.work = len(induced["wg"].grammar.productions)
            return induced["wg"]

    def check_induce(wg) -> str:
        g = wg.grammar
        skeleton = lcsg.lambda_free_skeleton(wg)
        nts = {s.name for s in skeleton.nonterminals}
        _require(ref.is_right_linear([(p.lhs.names(), p.rhs.names()) for p in skeleton.productions], nts),
                 f"{name}: the lambda-free skeleton is not right-linear")
        if tr.enabled:
            for w in strings[:3]:
                trace = lcsg.derives_bounded(g, _string(w))
                _time_successors(tr, (s.before for s in trace.steps), g)
        rendered = sorted(f"{p.lhs} -> {p.rhs} {p.weight:.12g}" for p in g.productions)
        return f"{name} induced: " + "; ".join(rendered)

    def enumerate_():
        with tr.span("derivation.search"):
            return lcsg.enumerate_language(induced["wg"].grammar, _HORIZON)

    def check_enumerate(found) -> str:
        names = {w.names() for w in found}
        _require(names == set(language), f"{name}: induced language differs from the source's")
        return f"{name} language: {len(names)} strings"

    def equivalence():
        with tr.span("bridge.check_weak_equivalence"):
            return lcsg.check_weak_equivalence(source.grammar, induced["wg"].grammar, _HORIZON)

    def check_equivalence(verdict) -> str:
        _require(verdict.equivalent, f"{name}: induced grammar is not weakly equivalent to its source")
        return f"{name} equivalent to {_HORIZON}"

    ops = [Op(induce, check_induce), Op(enumerate_, check_enumerate), Op(equivalence, check_equivalence)]
    for w in strings:
        ops.append(_string_probability_op(tr, induced, name, w, language[w], faulty.get(w)))
    return ops


def _string_probability_op(tr, induced: dict, name: str, w: Names, want: float, faulty: float | None) -> Op:
    target = _string(w)

    def run():
        with tr.span("stochastic.string_probability"):
            return lcsg.string_probability(induced["wg"], target)

    def check(p: float) -> str:
        if not ref.close(p, want) and faulty is not None and ref.close(p, faulty):
            raise KnownFault(f"{name}: P({' '.join(w)}) = {p} is its prefix probability, not {want}")
        _require(ref.close(p, want), f"{name}: P({' '.join(w)}) = {p}, the source gives {want}")
        return f"{name} P({' '.join(w)}) = {p:.12g}"

    return Op(run, check)
