"""The attack engine vs the pre-engine reference enumerator.

Before the attack-engine refactor, guess streams came from the
enumerator now kept as ``iter_guesses_reference`` in
``tests/oracles.py``: per-structure
``descending_products`` over dict-table factor lists, merged by
``merge_weighted_descending`` and deduplicated.  The engine rebuilds
the same stream on :class:`~repro.core.frozen.FrozenGrammar`'s
interned flat arrays with one global heap over per-length variant
lattices.

The bench takes the same number of guesses through both paths on a
full-scale trained meter, asserts they agree (same surfaces, same
probabilities to 1e-9 — the engine path is additionally asserted
*bit-identical* to the frozen kernel in ``tests/test_attacks_engine``),
then records the speedup.  The acceptance floor is 5x: below that the
engine has fallen off its compiled arrays.
"""

import time

from repro.core.meter import FuzzyPSM

from bench_lib import SMOKE, emit, record
from tests.oracles import iter_guesses_reference

#: Guesses materialized per path.  The reference path is the slow side
#: at any scale; smoke keeps the same comparison at toy size.
GUESSES = 500 if SMOKE else 20_000

_MIN_SPEEDUP = 5.0


def test_timing_attack_enumeration(corpora, csdn_quarters, capsys):
    train, _ = csdn_quarters
    meter = FuzzyPSM.train(
        base_dictionary=corpora["tianya"].unique_passwords(),
        training=list(train.items()),
    )

    # Engine first: its one-off costs — the table build, timed
    # separately, and the lazy variant-lattice materialization, paid by
    # an untimed warm-up pass (the standard bench idiom; the lattices
    # are cached for the meter's lifetime, so steady state is what a
    # 10^7-guess session actually runs at).  Any parse-cache warmth
    # left behind favours the reference side.
    start = time.perf_counter()
    engine = meter.attack_engine()
    build_seconds = time.perf_counter() - start

    list(engine.guesses(limit=GUESSES))  # untimed lattice warm-up

    start = time.perf_counter()
    engine_guesses = list(engine.guesses(limit=GUESSES))
    engine_seconds = time.perf_counter() - start

    start = time.perf_counter()
    reference_guesses = []
    for item in iter_guesses_reference(meter):
        reference_guesses.append(item)
        if len(reference_guesses) >= GUESSES:
            break
    reference_seconds = time.perf_counter() - start

    # Equivalence: same stream, whichever path produced it.  (The
    # reference includes zero-probability tail entries only after every
    # positive guess, so equal-length prefixes must match.)
    assert len(engine_guesses) == len(reference_guesses)
    assert (
        {surface for surface, _ in engine_guesses}
        == {surface for surface, _ in reference_guesses}
    )
    for (_, engine_p), (_, reference_p) in zip(
        sorted(engine_guesses, key=lambda g: (-g[1], g[0])),
        sorted(reference_guesses, key=lambda g: (-g[1], g[0])),
    ):
        assert abs(engine_p - reference_p) <= 1e-9 * reference_p

    speedup = reference_seconds / engine_seconds
    emit(
        capsys,
        f"(timing) attack enumeration, {len(engine_guesses):,} guesses:\n"
        f"  reference {reference_seconds:7.3f} s\n"
        f"  engine    {engine_seconds:7.3f} s   {speedup:5.2f}x "
        f"(+ {build_seconds:.3f} s one-off build)",
    )
    record(
        "attack_enumeration",
        guesses=len(engine_guesses),
        reference_seconds=reference_seconds,
        engine_seconds=engine_seconds,
        build_seconds=build_seconds,
        speedup=speedup,
    )
    if SMOKE:
        return  # equivalence asserted above; toy-scale ratios are noise
    assert speedup > _MIN_SPEEDUP, (
        f"attack engine below its {_MIN_SPEEDUP}x floor ({speedup:.2f}x)"
    )
