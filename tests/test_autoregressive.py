"""The generation loop, its two substeps, and the run record."""

from __future__ import annotations

import random

import pytest

from lcsg import (
    END,
    Configuration,
    EndOfSequence,
    EndTokenError,
    GenerationRecord,
    GenerationStep,
    PredictorState,
    SymbolString,
    TokenDistribution,
    WeightedGrammar,
    generate,
    grammar_predictor,
    step_cwu,
    step_ntp,
    terminal,
)

x, y = terminal("x"), terminal("y")


class ScriptedPredictor:
    """Emits by context length parity; the state encodes the length seen."""

    family = "scripted"
    finite_state = True
    vocabulary = (x, y)

    def __init__(self, end_when_odd: bool = True):
        self.end_when_odd = end_when_odd
        self.initial_state = PredictorState(self.family, 0)

    def next_distribution(self, state, context):
        n = len(context)
        if n % 2 == 0:
            entries = ((x, 1.0), (y, 0.0), (END, 0.0))
        elif self.end_when_odd:
            entries = ((x, 0.0), (y, 0.4), (END, 0.6))
        else:
            entries = ((x, 0.0), (y, 1.0), (END, 0.0))
        return TokenDistribution(entries), PredictorState(self.family, n)


# --- END and distributions ---


def test_end_is_a_singleton_outside_the_vocabulary():
    assert EndOfSequence() is END
    assert repr(END) == "<END>"


def test_distribution_validates_mass():
    with pytest.raises(ValueError):
        TokenDistribution(((x, 0.5), (END, 0.4)))
    with pytest.raises(ValueError):
        TokenDistribution(((x, -0.1), (END, 1.1)))
    with pytest.raises(ValueError):
        TokenDistribution(((x, 0.5), (x, 0.5)))


@pytest.mark.parametrize("p", [float("nan"), float("inf"), float("-inf")])
def test_distribution_rejects_non_finite_probabilities(p):
    # NaN slips past both a sign test and a sum test; infinities must not pass either.
    with pytest.raises(ValueError, match="finite"):
        TokenDistribution(((x, p), (END, 1.0)))


def test_argmax_breaks_ties_toward_the_earliest_entry():
    d = TokenDistribution(((x, 0.5), (y, 0.5), (END, 0.0)))
    assert d.argmax() == x
    d2 = TokenDistribution(((x, 0.2), (y, 0.4), (END, 0.4)))
    assert d2.argmax() == y


def test_sample_is_inverse_cdf_with_right_closed_boundaries():
    d = TokenDistribution(((x, 0.5), (y, 0.5)))
    assert d.sample(0.0) == x
    assert d.sample(0.49) == x
    assert d.sample(0.5) == y
    assert d.sample(0.999) == y


def test_sample_returns_the_last_entry_where_rounding_leaves_the_sum_at_or_below_u():
    tokens = [terminal(f"t{i}") for i in range(10)]
    d = TokenDistribution(tuple((t, 0.1) for t in tokens))
    total = sum(p for _, p in d.entries)
    assert total < 1.0
    assert d.sample(total) == tokens[-1]


def test_list_arguments_are_stored_as_tuples():
    d = TokenDistribution([(x, 0.5), (END, 0.5)])
    assert d.entries == ((x, 0.5), (END, 0.5))
    assert isinstance(d.entries, tuple)
    state = PredictorState("scripted", 0)
    rec = GenerationRecord(
        prompt=SymbolString(()),
        steps=[GenerationStep(state, x, state)],
        final=SymbolString((x,)),
        termination="END_sampled",
        seed=0,
        policy="greedy",
        initial_state=state,
    )
    assert rec.steps == (GenerationStep(state, x, state),)
    assert isinstance(rec.steps, tuple)


def test_probability_lookup():
    d = TokenDistribution(((x, 0.3), (y, 0.7)))
    assert d.probability(x) == 0.3
    assert d.probability(END) == 0.0


# --- substeps ---


def test_step_ntp_greedy_and_sample():
    pred = ScriptedPredictor()
    c = Configuration(SymbolString(()), pred.initial_state, 0)
    ic = step_ntp(c, pred, "greedy")
    assert ic.pending_token == x
    assert ic.next_state.encoding == 0
    assert ic.t == 0

    with pytest.raises(ValueError):
        step_ntp(c, pred, "sample")  # no generator
    with pytest.raises(ValueError):
        step_ntp(c, pred, "nucleus")

    ic2 = step_ntp(c, pred, "sample", random.Random(0))
    assert ic2.pending_token == x  # the only positive-mass token


def test_step_cwu_appends_and_advances():
    pred = ScriptedPredictor()
    c = Configuration(SymbolString(()), pred.initial_state, 0)
    ic = step_ntp(c, pred, "greedy")
    after = step_cwu(ic)
    assert after.context == SymbolString((x,))
    assert after.t == 1

    from lcsg import IntermediateConfiguration

    pending_end = IntermediateConfiguration(SymbolString(()), END, pred.initial_state, 0)
    with pytest.raises(EndTokenError):
        step_cwu(pending_end)


# --- the generation loop ---


def test_generate_greedy_hand_checked():
    rec = generate(ScriptedPredictor(), SymbolString(()), "greedy", seed=0, max_t=10)
    # even length emits x, odd length ends the run
    assert rec.final == SymbolString((x,))
    assert rec.termination == "END_sampled"
    assert len(rec.steps) == 1
    assert rec.steps[0].token == x
    assert rec.steps[0].state_before == rec.initial_state
    assert rec.conforming


def test_generate_stops_at_max_t():
    rec = generate(
        ScriptedPredictor(end_when_odd=False), SymbolString(()), "greedy", seed=0, max_t=4
    )
    assert rec.termination == "max_T_reached"
    assert rec.final.names() == ("x", "y", "x", "y")
    assert len(rec.steps) == 4


def test_generate_zero_steps():
    rec = generate(ScriptedPredictor(), SymbolString((x,)), "greedy", seed=3, max_t=0)
    assert rec.steps == ()
    assert rec.final == SymbolString((x,))
    assert rec.termination == "max_T_reached"


def test_generate_seed_determinism_under_sampling():
    pred = ScriptedPredictor()
    runs = [generate(pred, SymbolString(()), "sample", seed=11, max_t=8) for _ in range(2)]
    assert runs[0] == runs[1]
    other = generate(pred, SymbolString(()), "sample", seed=12, max_t=8)
    assert other.seed != runs[0].seed


def test_generate_validates_arguments():
    pred = ScriptedPredictor()
    with pytest.raises(ValueError):
        generate(pred, SymbolString(()), "greedy", seed=0, max_t=-1)
    with pytest.raises(ValueError):
        generate(pred, SymbolString(()), "beam", seed=0, max_t=1)
    with pytest.raises(ValueError):
        generate(pred, SymbolString(()), "greedy", seed=0, max_t=1, window=-2)


def test_window_truncation_marks_the_record_nonconforming():
    pred = ScriptedPredictor(end_when_odd=False)
    rec = generate(pred, SymbolString(()), "greedy", seed=0, max_t=3, window=1)
    assert not rec.conforming
    assert rec.final.names() == ("x", "y", "y")  # the window hides the true parity

    unwindowed = generate(pred, SymbolString(()), "greedy", seed=0, max_t=3)
    assert unwindowed.conforming


def test_window_larger_than_the_run_stays_conforming():
    rec = generate(ScriptedPredictor(), SymbolString(()), "greedy", seed=0, max_t=5, window=64)
    assert rec.conforming


def test_generate_with_the_grammar_predictor(chain):
    pred = grammar_predictor(WeightedGrammar.from_grammar(chain))
    rec = generate(pred, SymbolString(()), "greedy", seed=0, max_t=10)
    assert str(rec.final) == "a b c"
    assert rec.termination == "END_sampled"
    assert len(rec.steps) == 3

    prompted = generate(pred, chain.string_of(["a"]), "greedy", seed=0, max_t=10)
    assert str(prompted.final) == "a b c"
    assert len(prompted.steps) == 2


def test_recorded_states_chain(chain):
    pred = grammar_predictor(WeightedGrammar.from_grammar(chain))
    rec = generate(pred, SymbolString(()), "greedy", seed=0, max_t=10)
    assert rec.steps[0].state_before == rec.initial_state
    for first, second in zip(rec.steps, rec.steps[1:]):
        assert first.state_after == second.state_before


# --- record validation ---


def test_record_rejects_inconsistent_final():
    state = PredictorState("scripted", 0)
    step = GenerationStep(state, x, state)
    with pytest.raises(ValueError):
        GenerationRecord(
            prompt=SymbolString(()),
            steps=(step,),
            final=SymbolString((y,)),
            termination="END_sampled",
            seed=0,
            policy="greedy",
            initial_state=state,
        )


def test_record_rejects_unknown_termination():
    state = PredictorState("scripted", 0)
    with pytest.raises(ValueError):
        GenerationRecord(
            prompt=SymbolString(()),
            steps=(),
            final=SymbolString(()),
            termination="gave_up",
            seed=0,
            policy="greedy",
            initial_state=state,
        )
