"""Statevector register, oracle/diffusion unitaries, and the closed form."""

import dataclasses
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import generator_state, grover_matrix, random_marked_locations, record_generators

from grover_ev import (
    EnsembleModel,
    MarkedSet,
    attenuation,
    class_state,
    extract_location,
    grover_angle,
    make_plan,
)
from grover_ev import measurement
from grover_ev.cli import MAX_SWEEP_VALUES
from grover_ev.core import (
    DRAW,
    MAX_MARKED,
    READ,
    ROW,
    StateVector,
    apply_diffusion,
    apply_grover,
    apply_oracle,
    class_amplitudes,
    closed_form_state,
    draw_marked_set,
    new_uniform,
    qubit_values,
    rekey,
    stream,
)
from grover_ev.cli import main


# ---------------------------------------------------------------- StateVector

def test_uniform_one_qubit():
    state = new_uniform(1)
    assert np.allclose(state.amplitudes, [1 / math.sqrt(2)] * 2, atol=1e-15)


def test_uniform_two_qubits():
    state = new_uniform(2)
    assert np.allclose(state.amplitudes, [0.5] * 4, atol=1e-15)


def test_uniform_norm_ten_qubits():
    assert abs(np.sum(np.abs(new_uniform(10).amplitudes) ** 2) - 1.0) <= 1e-12


@pytest.mark.parametrize("bad_l", [0, -1, 25])
def test_uniform_rejects_out_of_range(bad_l):
    with pytest.raises(ValueError):
        new_uniform(bad_l)


def test_statevector_rejects_wrong_length():
    with pytest.raises(ValueError):
        StateVector(2, np.ones(3) / math.sqrt(3))


def test_statevector_rejects_unnormalized():
    with pytest.raises(ValueError):
        StateVector(1, np.array([1.0, 1.0]))


def test_qubit_values_bit_order():
    # label 5 = binary 101: qubit 1 set, qubit 2 clear, qubit 3 set
    assert qubit_values(3, 1)[5] == 1
    assert qubit_values(3, 2)[5] == 0
    assert qubit_values(3, 3)[5] == 1
    with pytest.raises(ValueError):
        qubit_values(3, 4)


# ------------------------------------------------------------------ MarkedSet

def test_marked_set_sorts_locations():
    marked = MarkedSet((5, 1, 3), 8)
    assert marked.locations == (1, 3, 5)
    assert marked.count == 3
    assert 5 in marked and 2 not in marked
    # Membership is a search of the sorted tuple; check every label and
    # the labels just outside the universe.
    assert [x for x in range(-1, 9) if x in marked] == [1, 3, 5]
    assert [x for x in range(-1, 9) if x in MarkedSet((0, 7), 8)] == [0, 7]


@pytest.mark.parametrize(
    "locations,n",
    [((), 4), ((1, 1), 4), ((4,), 4), ((-1,), 4), ([3.7], 16), (["3"], 16)],
)
def test_marked_set_rejects_invalid(locations, n):
    with pytest.raises(ValueError):
        MarkedSet(locations, n)


def test_marked_set_reads_integer_locations_as_ints():
    # Each location goes through operator.index: ints, bools and numpy
    # integers are read, and stored as Python ints.
    marked = MarkedSet([np.int64(9), True, np.uint8(3)], 16)
    assert marked.locations == (1, 3, 9)
    assert {type(x) for x in marked.locations} == {int}
    with pytest.raises(ValueError, match=r"^marked locations must be integers: \[3\.7\]$"):
        MarkedSet([3.7], 16)


_INTEGER_INPUTS = {
    "grover_angle-N": lambda x: grover_angle(x, 1),
    "grover_angle-M": lambda x: grover_angle(16, x),
    "make_plan-M": lambda x: make_plan(16, x, 0.1),
    "attenuation-m": lambda x: attenuation(16, 1, x),
    "class_state-m": lambda x: class_state(MarkedSet([3, 9], 16), x),
    "extract_location-m": lambda x: extract_location(MarkedSet([3, 9], 16), x,
                                                     EnsembleModel(), 0.0),
    "EnsembleModel-shots": lambda x: EnsembleModel(shots=x, seed=1),
    "EnsembleModel-seed": lambda x: EnsembleModel(seed=x),
}


@pytest.mark.parametrize("value", [1.5, "16"])
@pytest.mark.parametrize("call", _INTEGER_INPUTS.values(), ids=_INTEGER_INPUTS)
def test_integer_inputs_are_read_as_integers(call, value):
    # N, M, an iterate count, shots and seed go through operator.index in the
    # check that bounds them: a float or a string raises TypeError there, as
    # range(1.5) does, and is never truncated or compared.  A numpy integer
    # is read as an integer.
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        call(value)
    call(np.int64(2))


def test_marked_set_holds_one_read_only_label_array():
    # The int64 labels are built once with the set and are not a field:
    # equality, hashing, repr and the fields read the tuple and N alone.
    marked = MarkedSet([9, 3, 1], 16)
    assert marked.labels.dtype == np.int64 and marked.labels.tolist() == [1, 3, 9]
    assert not marked.labels.flags.writeable
    with pytest.raises(ValueError):
        marked.labels[0] = 2
    assert [f.name for f in dataclasses.fields(MarkedSet)] == ["locations", "universe_size"]
    assert repr(marked) == "MarkedSet(locations=(1, 3, 9), universe_size=16)"
    assert marked == MarkedSet((1, 3, 9), 16) and hash(marked) == hash(MarkedSet((9, 1, 3), 16))
    assert marked != MarkedSet((1, 3, 9), 32)
    # Every class_state of the set reads that one array; no row rebuilds it.
    first, second = class_state(marked, 1), class_state(marked, 2)
    assert first.heavy is marked.labels and second.heavy is marked.labels
    wide = 2**62 - 1
    assert MarkedSet((wide, 0), 2**62).labels.tolist() == [0, wide]


def test_marked_set_counts_each_qubits_ones_once(monkeypatch):
    # ones(k) counts the locations with bit k set on the first call for k and
    # reads the memo after; the memo is no field, so equality and hashing
    # do not see it.
    marked = MarkedSet([1, 3, 6, 12], 16)
    counted = []
    real = np.count_nonzero

    def spy(a, *args, **kwargs):
        counted.append(a)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np, "count_nonzero", spy)
    assert [marked.ones(k) for k in (1, 2, 3, 4, 1, 2, 3, 4)] == [2, 2, 2, 1] * 2
    assert len(counted) == 4
    assert type(marked.ones(1)) is int
    assert marked == MarkedSet([1, 3, 6, 12], 16) and hash(marked) == hash(MarkedSet([12, 6, 3, 1], 16))


def test_full_marked_set_fails_the_angle_check():
    # MarkedSet leaves M < N to grover_angle, the one check of (N, M).
    full = MarkedSet((0, 1, 2, 3), 4)
    message = "marked_count must satisfy 1 <= M < N, got M=4, N=4"
    for call in (
        lambda: class_state(full, 1),
        lambda: extract_location(full, 1, EnsembleModel(), 0.1),
    ):
        with pytest.raises(ValueError) as excinfo:
            call()
        assert str(excinfo.value) == message


def test_marked_draw_is_numpy_choice_without_replacement():
    # The draw is Generator.choice(N, M, replace=False) on the stream
    # (seed, DRAW, 0), a Philox generator keyed [seed, DRAW << 32 | 0], sorted.
    for n, count, seed in [(16, 3, 0), (1024, 7, 5), (2**62, 4, 1), (2**17, MAX_MARKED, 2)]:
        philox = np.random.Philox(key=np.array([seed, DRAW << 32 | 0], dtype=np.uint64))
        expected = np.random.Generator(philox).choice(n, size=count, replace=False)
        marked = draw_marked_set(n, count, seed)
        assert marked.locations == tuple(sorted(int(x) for x in expected))
        assert {type(x) for x in marked.locations} == {int}
        assert marked.universe_size == n


def test_marked_count_is_bounded_before_any_draw(monkeypatch):
    # One limit, MAX_MARKED = 2**16, on explicit and drawn sets alike.  A
    # draw past it raises before a generator is built, so M = 2**35 at
    # N = 2**40 costs nothing; M >= 2**61 at N = 2**62 is rejected the same way.
    assert MAX_MARKED == 2**16
    message = f"a marked set holds at most {MAX_MARKED} locations, got {MAX_MARKED + 1}"
    with pytest.raises(ValueError, match=f"^{message}$"):
        MarkedSet(range(MAX_MARKED + 1), 2**20)
    assert MarkedSet(range(MAX_MARKED), 2**20).count == MAX_MARKED
    built = record_generators(monkeypatch)
    for n, count in [(2**20, MAX_MARKED + 1), (2**40, 2**35), (2**62, 2**61)]:
        with pytest.raises(ValueError, match=f"at most {MAX_MARKED} locations, got {count}$"):
            draw_marked_set(n, count, 0)
    assert built == []


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("purpose", [DRAW, READ, ROW])
@pytest.mark.parametrize("index", [0, MAX_SWEEP_VALUES - 1])
def test_stream_is_philox_keyed_by_its_name(seed, purpose, index):
    # A stream hands Philox its key through a small ISeedSequence, unhashed:
    # it is, state and draws alike, the generator Philox(key=[seed,
    # purpose << 32 | index]) builds, so a numpy change to that route fails here.
    ours = stream(seed, purpose, index)
    # The key as a uint64 array: numpy casts a list through float64, which
    # cannot hold 2**64 - 1.
    key = np.array([seed, purpose << 32 | index], dtype=np.uint64)
    theirs = np.random.Generator(np.random.Philox(key=key))
    assert generator_state(ours) == generator_state(theirs)
    for rng in (ours, theirs):
        assert rng.bit_generator.state["state"]["key"].tolist() == [seed, purpose << 32 | index]
    assert ours.binomial(1024, 0.3, 20).tolist() == theirs.binomial(1024, 0.3, 20).tolist()
    assert ours.normal(0.0, 0.05, 3).tolist() == theirs.normal(0.0, 0.05, 3).tolist()
    assert ours.choice(2**40, 4, replace=False).tolist() == theirs.choice(
        2**40, 4, replace=False).tolist()
    assert generator_state(ours) == generator_state(theirs)


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("purpose", [DRAW, READ, ROW])
@pytest.mark.parametrize("index", [0, 2**32 - 1])
def test_a_rekeyed_generator_is_the_named_stream(seed, purpose, index):
    # A generator that has drawn (a binomial block, a normal value and one
    # 32-bit value, so that half a 64-bit word is held and the buffer is part
    # used), moved by rekey, is in the state a fresh stream of that name
    # starts in, and draws what it draws.
    ours = stream(5, ROW, 7)
    ours.binomial(1024, 0.3, 20)
    ours.normal(0.0, 0.05)
    ours.integers(0, 2**32, dtype=np.uint32)
    held = ours.bit_generator.state
    assert held["has_uint32"] == 1 and held["buffer_pos"] < 4
    assert rekey(ours, seed, purpose, index) is ours
    theirs = stream(seed, purpose, index)
    assert generator_state(ours) == generator_state(theirs)
    assert ours.binomial(1024, 0.3, 20).tolist() == theirs.binomial(1024, 0.3, 20).tolist()
    assert ours.normal(0.0, 0.05, 3).tolist() == theirs.normal(0.0, 0.05, 3).tolist()
    weights = [0.25] * 4
    assert ours.multinomial(500, weights).tolist() == theirs.multinomial(500, weights).tolist()
    assert ours.choice(2**40, 4, replace=False).tolist() == theirs.choice(
        2**40, 4, replace=False).tolist()
    assert generator_state(ours) == generator_state(theirs)


def test_rekey_checks_the_index_as_stream_does():
    # An index outside [0, 2**32) raises stream's ValueError, and the
    # generator keeps the state it had.
    rng = stream(3, ROW, 5)
    rng.normal()
    before = generator_state(rng)
    for index in (-1, 2**32):
        with pytest.raises(ValueError) as built:
            stream(3, ROW, index)
        with pytest.raises(ValueError) as moved:
            rekey(rng, 3, ROW, index)
        assert str(moved.value) == str(built.value)
        assert generator_state(rng) == before


def test_distinct_names_are_distinct_streams():
    # No two names on a small grid share a stream, where seed XOR index
    # repeats: (0, ROW, 1) and (1, ROW, 0) differ, as do one name's three
    # purposes.  An index takes the low 32 bits of word 1 alone.
    firsts = {tuple(stream(seed, purpose, index).bit_generator.random_raw(2).tolist())
              for seed in range(4) for purpose in (DRAW, READ, ROW) for index in range(4)}
    assert len(firsts) == 4 * 3 * 4
    for index in (-1, 2**32):
        with pytest.raises(ValueError, match=r"stream index must be in \[0, 2\*\*32\)"):
            stream(0, ROW, index)


def test_a_set_draw_and_its_search_readout_are_uncorrelated():
    # A search with --m-count draws its set from (seed, DRAW, 0) and reads its
    # runs from (seed, READ, 0).  Over 20,000 seeds at N = 2^16, M = 3, the
    # smallest drawn label and the first count the readout's generator draws
    # correlate within 5 standard errors, |r| <= 5 / sqrt(20,000) = 0.035.
    # When both were default_rng(seed), one stream, they read r = 0.22.
    seeds = range(20_000)
    labels = [draw_marked_set(1 << 16, 3, seed).locations[0] for seed in seeds]
    counts = [measurement._run_generator(EnsembleModel(shots=4096, seed=seed)).binomial(4096, 0.3)
              for seed in seeds]
    assert abs(np.corrcoef(labels, counts)[0, 1]) <= 5 / math.sqrt(len(seeds))


# --------------------------------------------------------------------- oracle

def test_oracle_flips_marked_amplitude():
    state = apply_oracle(new_uniform(1), MarkedSet((1,), 2))
    root_half = 1 / math.sqrt(2)
    assert np.allclose(state.amplitudes, [root_half, -root_half], atol=1e-15)


@pytest.mark.parametrize("label", [0, 3, 5])
def test_oracle_negates_marked_basis_state(label):
    amps = np.zeros(8, dtype=complex)
    amps[label] = 1.0
    state = StateVector(3, amps)
    flipped = apply_oracle(state, MarkedSet((label,), 8))
    assert np.allclose(flipped.amplitudes, -amps, atol=1e-15)


def test_oracle_rejects_size_mismatch():
    with pytest.raises(ValueError):
        apply_oracle(new_uniform(2), MarkedSet((1,), 8))


def test_oracle_is_involution():
    rng = np.random.default_rng(7)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    amps /= np.linalg.norm(amps)
    state = StateVector(3, amps)
    marked = MarkedSet((2, 6), 8)
    twice = apply_oracle(apply_oracle(state, marked), marked)
    assert np.max(np.abs(twice.amplitudes - state.amplitudes)) <= 1e-12


# ------------------------------------------------------------------ diffusion

def test_diffusion_on_basis_state():
    # mean amplitude is 1/4, so c -> -c + 1/2 at the occupied label
    amps = np.zeros(4, dtype=complex)
    amps[0] = 1.0
    state = apply_diffusion(StateVector(2, amps))
    assert np.allclose(state.amplitudes, [-0.5, 0.5, 0.5, 0.5], atol=1e-15)


def test_diffusion_fixes_uniform_state():
    state = new_uniform(3)
    assert np.allclose(apply_diffusion(state).amplitudes, state.amplitudes, atol=1e-15)


def test_diffusion_is_involution():
    rng = np.random.default_rng(11)
    amps = rng.normal(size=16) + 1j * rng.normal(size=16)
    amps /= np.linalg.norm(amps)
    state = StateVector(4, amps)
    twice = apply_diffusion(apply_diffusion(state))
    assert np.max(np.abs(twice.amplitudes - state.amplitudes)) <= 1e-12


def test_diffusion_matrix_squares_to_identity():
    from conftest import diffusion_matrix

    mat = diffusion_matrix(3)
    assert np.allclose(mat @ mat, np.eye(8), atol=1e-13)


# -------------------------------------------------------------- grover iterate

def test_single_iterate_four_items():
    state = apply_grover(new_uniform(2), MarkedSet((3,), 4))
    assert np.max(np.abs(state.amplitudes - np.array([0, 0, 0, 1.0]))) <= 1e-12


def test_single_iterate_matches_closed_form():
    marked = MarkedSet((5,), 16)
    iterated = apply_grover(new_uniform(4), marked)
    analytic = closed_form_state(4, marked, 1)
    assert np.max(np.abs(iterated.amplitudes - analytic.amplitudes)) <= 1e-12


def test_iterate_matches_explicit_matrix():
    marked = MarkedSet((2, 7), 8)
    mat = grover_matrix(3, marked.locations)
    state = new_uniform(3)
    expected = state.amplitudes.copy()
    for _ in range(3):
        expected = mat @ expected
        state = apply_grover(state, marked)
    assert np.max(np.abs(state.amplitudes - expected)) <= 1e-12


def test_norm_preserved_along_random_sequences():
    rng = np.random.default_rng(23)
    for _ in range(20):
        qubits = int(rng.integers(2, 7))
        marked = MarkedSet(random_marked_locations(rng, 1 << qubits, 2), 1 << qubits)
        state = new_uniform(qubits)
        for _ in range(int(rng.integers(1, 30))):
            op = rng.integers(0, 3)
            if op == 0:
                state = apply_oracle(state, marked)
            elif op == 1:
                state = apply_diffusion(state)
            else:
                state = apply_grover(state, marked)
        assert abs(np.sum(np.abs(state.amplitudes) ** 2) - 1.0) <= 1e-9


# ---------------------------------------------------------------------- angle

def test_angle_four_items():
    assert grover_angle(4, 1) == pytest.approx(math.pi / 3, abs=1e-12)


def test_angle_half_marked():
    assert grover_angle(4, 2) == pytest.approx(math.pi / 2, abs=1e-12)


def test_angle_sixteen_items():
    assert grover_angle(16, 1) == pytest.approx(0.5053605102841573, abs=1e-12)


@pytest.mark.parametrize("n", [4, 8, 64, 1024, 2**20])
def test_angle_single_item_identity(n):
    assert math.cos(grover_angle(n, 1)) == pytest.approx(1 - 2 / n, abs=1e-12)


@pytest.mark.parametrize("n,m", [(4, 0), (4, 4), (4, 5), (8, -1)])
def test_angle_rejects_bad_counts(n, m):
    with pytest.raises(ValueError):
        grover_angle(n, m)


@pytest.mark.parametrize("n", [0, 1, 3, 17, 2**40 + 1])
def test_every_entry_point_rejects_non_power_of_two(n):
    # grover_angle makes the one check; MarkedSet cannot hold N <= 1, so
    # class_state gets a stand-in with the fields it reads.
    stand_in = SimpleNamespace(universe_size=n, count=1, locations=(0,))
    for call in (
        lambda: grover_angle(n, 1),
        lambda: attenuation(n, 1, 1),
        lambda: make_plan(n, 1, 0.1),
        lambda: class_state(stand_in, 1),
    ):
        with pytest.raises(ValueError, match=f"power of two >= 2, got N={n}$"):
            call()


def test_angle_bounded_to_float_resolved_universes():
    assert grover_angle(2**62, 1) > 0.0
    for n in (2**62 + 1, 2**63, 2**1100):
        with pytest.raises(ValueError, match="at most 2"):
            grover_angle(n, 1)


def register_entry(entry, qubits, capsys):
    """Run ``entry`` on the marked set {5} of a ``qubits``-qubit register:
    None when it runs, else the one message it rejects the register with."""
    marked = MarkedSet((5,), 2**qubits)
    library = {
        "new_uniform": lambda: new_uniform(qubits),
        "closed_form_state": lambda: closed_form_state(qubits, marked, 1),
        "class_state": lambda: class_state(marked, 1),
        "extract_location": lambda: extract_location(marked, 1, EnsembleModel(), 0.0),
    }
    if entry in library:
        try:
            library[entry]()
        except ValueError as exc:
            return str(exc)
        return None
    argv = [entry, "--n", str(2**qubits), "--marked", "5", "--a-th", "0.25"]
    if entry == "sweep":
        argv += ["--sweep", "m", "--values", "1..1"]
    code = main(argv)
    out, err = capsys.readouterr()
    if code == 0:
        return None
    assert (code, out) == (2, "") and err.startswith("error: ") and err.count("\n") == 1
    return err.removeprefix("error: ").rstrip("\n")


@pytest.mark.parametrize(
    "entry",
    ["new_uniform", "closed_form_state", "class_state", "extract_location", "search", "sweep"],
)
def test_register_cap_has_one_message(entry, capsys):
    # The dense reference holds at most MAX_QUBITS = 24 qubits.  The
    # two-amplitude path builds no statevector: it runs at 25 qubits, and its
    # one register rule is grover_angle's N <= 2**62.
    if entry in ("new_uniform", "closed_form_state"):
        assert register_entry(entry, 25, capsys) == "qubit_count must be in 1..24, got 25"
        return
    assert register_entry(entry, 25, capsys) is None
    message = f"universe_size must be at most 2**62, got N={2**63}"
    assert register_entry(entry, 63, capsys) == message


# ---------------------------------------------------------------- closed form

def test_closed_form_zero_iterations_is_uniform():
    for qubits, locations in [(2, (1,)), (3, (0, 5)), (4, (2, 9, 11))]:
        state = closed_form_state(qubits, MarkedSet(locations, 1 << qubits), 0)
        assert np.max(np.abs(state.amplitudes - new_uniform(qubits).amplitudes)) <= 1e-12


def test_closed_form_peak_at_four_items():
    state = closed_form_state(2, MarkedSet((3,), 4), 1)
    assert np.max(np.abs(state.amplitudes - np.array([0, 0, 0, 1.0]))) <= 1e-12


def test_closed_form_rejects_negative_iterations():
    with pytest.raises(ValueError):
        closed_form_state(2, MarkedSet((3,), 4), -1)


def test_closed_form_matches_iteration_everywhere():
    # Brute-force operator application is the reference for every iterate
    # count up to the standard stopping point.
    rng = np.random.default_rng(2024)
    for qubits in range(2, 11):
        n = 1 << qubits
        for marked_count in (1, 2, 3):
            for _ in range(200):
                marked = MarkedSet(random_marked_locations(rng, n, marked_count), n)
                state = new_uniform(qubits)
                for m in range(1, make_plan(n, marked_count, 0.0).m_stand + 1):
                    state = apply_grover(state, marked)
                    analytic = closed_form_state(qubits, marked, m)
                    assert np.max(np.abs(state.amplitudes - analytic.amplitudes)) <= 1e-10


def test_two_amplitude_symmetry():
    # Marked amplitudes stay equal to each other at every step, as do all
    # unmarked ones.
    rng = np.random.default_rng(5)
    for qubits in (3, 5, 8):
        n = 1 << qubits
        marked = MarkedSet(random_marked_locations(rng, n, 3), n)
        mask = np.zeros(n, dtype=bool)
        mask[list(marked.locations)] = True
        state = new_uniform(qubits)
        for _ in range(make_plan(n, 3, 0.0).m_stand):
            state = apply_grover(state, marked)
            on_values = state.amplitudes[mask]
            off_values = state.amplitudes[~mask]
            assert np.max(np.abs(on_values - on_values[0])) <= 1e-12
            assert np.max(np.abs(off_values - off_values[0])) <= 1e-12


# ------------------------------------------------------- return to uniform

# M/N -> theta / pi at the three ratios where the state can return to equal
# weights at m > 0.
RETURN_RATIOS = {Fraction(1, 4): Fraction(1, 3), Fraction(1, 2): Fraction(1, 2),
                 Fraction(3, 4): Fraction(2, 3)}


def weights_equal_exactly(ratio, m):
    """Whether sin^2((2m+1) theta/2) = M/N: m theta or (m+1) theta is a
    multiple of pi."""
    turn = RETURN_RATIOS[ratio]
    return (m * turn).denominator == 1 or ((m + 1) * turn).denominator == 1


@pytest.mark.parametrize("ratio", sorted(RETURN_RATIOS))
def test_equal_weights_give_exact_zero(ratio):
    for qubits in range(2, 13):
        n = 1 << qubits
        marked_count = int(ratio * n)
        for m in range(25):
            on, off = class_amplitudes(n, marked_count, m)
            if weights_equal_exactly(ratio, m):
                assert abs(on) == abs(off) == 1.0 / math.sqrt(n)
                assert on * on - off * off == 0.0
                assert attenuation(n, marked_count, m) == 0.0
            else:
                assert abs(attenuation(n, marked_count, m)) >= 1.0


def test_equal_weights_only_at_return_ratios():
    # Away from M/N in {1/4, 1/2, 3/4} and m = 0, the attenuation curve has
    # no zero: the plain formula stays far from 0 while its residue at the
    # exact zeros is rounding.
    for qubits in range(1, 9):
        n = 1 << qubits
        for marked_count in range(1, n):
            theta = grover_angle(n, marked_count)
            for m in range(31):
                plain = (math.sin((2 * m + 1) * theta / 2) ** 2 * n - marked_count) / (
                    n - marked_count)
                ratio = Fraction(marked_count, n)
                exact_zero = m == 0 or (ratio in RETURN_RATIOS
                                        and weights_equal_exactly(ratio, m))
                assert (abs(plain) < 1e-9) == exact_zero
                assert (attenuation(n, marked_count, m) == 0.0) == exact_zero


def test_equal_weights_keep_their_signs():
    # The exact amplitudes still match brute-force iteration, signs included.
    for qubits, locations in [(2, (1,)), (3, (0, 3, 6, 7)), (4, (1, 3, 5, 7, 9, 11, 13, 15)),
                              (4, tuple(range(12)))]:
        n = 1 << qubits
        marked = MarkedSet(locations, n)
        state = new_uniform(qubits)
        for m in range(1, 13):
            state = apply_grover(state, marked)
            analytic = closed_form_state(qubits, marked, m)
            assert np.max(np.abs(state.amplitudes - analytic.amplitudes)) <= 1e-10
