import functools
import itertools
import json
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinlogic import cli, npn, pc, search, spinsim
from spinlogic.search import (
    ExperimentTable,
    Quantizer,
    achievable_classes,
    evaluate_table,
    quantize,
)
from spinlogic.spinsim import (
    SequenceTemplate,
    selective_delay_inputs,
    single_pulse_template,
    two_pulse_template,
)
from spinlogic.ternary import encode, multiplication
from spin_reference import apply_element, at_equilibrium
import spin_reference

TRIPLE = (math.pi / 2, math.pi, 3 * math.pi / 2)


def test_quantize_thresholds():
    q = Quantizer(epsilon=0.5)
    assert quantize(0.0, q) == 0
    assert quantize(1.0, q) == 1
    assert quantize(-0.999, q) == -1
    assert quantize(0.499, q) == 0
    assert quantize(0.5, q) == 1


def test_quantize_rejects_nan_like_an_out_of_range_readout():
    # NaN fails every comparison, so only a bound check written as "not
    # within the bound" catches it
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"^readout {bad} outside"):
            quantize(bad)
        with pytest.raises(ValueError, match=f"^readout {bad} outside"):
            quantize([0.5, bad, 2.0])
    assert quantize([0.5, -0.5, 0.1]).tolist() == [1, -1, 0]


def test_quantize_is_odd():
    rng = random.Random(11)
    q = Quantizer()
    for _ in range(200):
        x = rng.uniform(-1, 1)
        if abs(abs(x) - q.epsilon) < 1e-9:
            continue
        assert quantize(-x, q) == -quantize(x, q)


def test_quantize_rejects_out_of_range_readout():
    with pytest.raises(ValueError):
        quantize(1.5, Quantizer())


def test_quantizer_validation():
    with pytest.raises(ValueError):
        Quantizer(epsilon=0.0)
    with pytest.raises(ValueError):
        Quantizer(epsilon=1.0)


def test_single_pulse_triple_gives_multiplication():
    table = evaluate_table(single_pulse_template(), TRIPLE, TRIPLE)
    assert table.logic == multiplication()
    for i, a in enumerate(TRIPLE):
        for j, b in enumerate(TRIPLE):
            assert table.raw[i][j] == math.sin(a) * math.sin(b)


def test_single_pulse_rank_one_structure():
    rng = random.Random(2)
    a_vals = tuple(rng.uniform(0, 2 * math.pi) for _ in range(3))
    b_vals = tuple(rng.uniform(0, 2 * math.pi) for _ in range(3))
    table = evaluate_table(single_pulse_template(), a_vals, b_vals)
    for i in range(3):
        for j in range(3):
            assert abs(table.raw[i][j] - math.sin(a_vals[i]) * math.sin(b_vals[j])) < 1e-12


def test_binary_xor_subtable():
    # On {pi/2, 3pi/2} the surface is the sign product: +1 on equal inputs.
    tpl = single_pulse_template()
    for a in (math.pi / 2, 3 * math.pi / 2):
        for b in (math.pi / 2, 3 * math.pi / 2):
            out = quantize(tpl.readouts([a], [b])[0, 0])
            assert out == (1 if a == b else -1)


def test_selective_delay_table_and_pc():
    template, delays, freqs = selective_delay_inputs()
    table = evaluate_table(template, delays, freqs)
    assert table.logic.rows() == ((1, 0, 1), (0, 0, -1), (-1, 0, 1))
    assert pc.pc_signature(table.logic) == pc.PcSignature.of((2, 2, 3), (1, 2, 3))
    # raw values follow the precession cosine for the matched peak
    omega_a = math.pi
    for i, tau in enumerate(delays):
        assert table.raw[i][0] == pytest.approx(math.cos(omega_a * tau), abs=1e-12)
        assert table.raw[i][1] == 0.0
        assert table.raw[i][2] == pytest.approx(math.cos(2 * omega_a * tau), abs=1e-12)


def test_constant_experiment_pc():
    # beta = 0 everywhere: nothing is excited, all readouts are 0.
    table = evaluate_table(single_pulse_template(), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    assert pc.pc_signature(table.logic) == pc.PcSignature.of((1, 1, 1), (1, 1, 1))


def test_table_class_invariant_under_input_relabelling():
    rng = random.Random(8)
    tpl = single_pulse_template()
    a_vals = [0.4, 1.9, 4.6]
    b_vals = [0.9, 2.8, 5.1]
    base = evaluate_table(tpl, a_vals, b_vals)
    base_canon = npn.canonical_index(encode(base.logic))
    for _ in range(10):
        pa = a_vals[:]
        pb = b_vals[:]
        rng.shuffle(pa)
        rng.shuffle(pb)
        permuted = evaluate_table(tpl, pa, pb)
        assert npn.canonical_index(encode(permuted.logic)) == base_canon


def test_evaluate_table_needs_three_values():
    with pytest.raises(ValueError):
        evaluate_table(single_pulse_template(), (1.0, 2.0), TRIPLE)


def test_template_requires_both_placeholders():
    with pytest.raises(ValueError):
        SequenceTemplate(
            {
                "peaks": [{"label": "s", "offset_rad_s": 0.0}],
                "sequence": [{"type": "hard_pulse", "beta": "$A", "phi": 0.0}],
            }
        )
    with pytest.raises(ValueError):
        SequenceTemplate(
            {
                "peaks": [{"label": "s", "offset_rad_s": 0.0}],
                "sequence": [{"type": "hard_pulse", "beta": "$A", "phi": "$C"}],
            }
        )


def test_template_json_and_readouts():
    document = {
        "peaks": [{"label": "s", "offset_rad_s": 0.0}],
        "sequence": [{"type": "hard_pulse", "beta": "$A", "phi": "$B"}],
    }
    tpl = SequenceTemplate.from_json(json.dumps(document))
    assert tpl.slots == ((0, "beta", "$A"), (0, "phi", "$B"))
    assert tpl.readouts([math.pi / 2], [math.pi / 2])[0, 0] == pytest.approx(1.0)
    # evaluation does not mutate the parsed template or the document
    assert tpl.sequence.elements[0].beta == 1.0
    assert document["sequence"][0]["beta"] == "$A"


def test_search_finds_multiplication():
    grid = sorted({0.3, math.pi / 2, 2.0, math.pi, 4.0, 3 * math.pi / 2, 5.5, 6.0})
    hits = search.search(single_pulse_template(), grid, grid, targets={encode(multiplication())})
    assert hits
    assert {h.npn_class.canonical for h in hits} == {npn.canonical_index(encode(multiplication()))}
    assert any(h.a_values == TRIPLE and h.b_values == TRIPLE for h in hits)


def test_search_hits_reproduce_their_class():
    grid = sorted({0.3, math.pi / 2, 2.0, math.pi, 4.0, 3 * math.pi / 2, 5.5, 6.0})
    target = encode(multiplication())
    hits = search.search(single_pulse_template(), grid, grid, targets={target})
    rng = random.Random(6)
    for h in rng.sample(hits, min(10, len(hits))):
        table = evaluate_table(single_pulse_template(), h.a_values, h.b_values)
        assert encode(table.logic) == h.index
        assert encode(table.logic) in h.npn_class.members


def test_search_empty_targets_and_small_grids():
    tpl = single_pulse_template()
    assert search.search(tpl, (0.0, 1.0, 2.0), (0.0, 1.0, 2.0), targets=set()) == []
    with pytest.raises(ValueError):
        search.search(tpl, (0.0, 1.0), (0.0, 1.0, 2.0), targets={0})


def test_achievable_classes_counts_every_table():
    grid = [0.0, math.pi / 2, math.pi, 3 * math.pi / 2, 5.0]
    counts = achievable_classes(single_pulse_template(), grid, grid)
    n_triples = math.comb(5, 3)
    assert sum(counts.values()) == n_triples * n_triples
    canon = npn.canonical_map(3)
    assert all(int(canon[c]) == c for c in counts)


def test_two_pulse_template_runs():
    tpl = two_pulse_template(phi1=math.pi / 2, beta2=math.pi / 2)
    # beta1 = 0 reduces to the single-pulse surface
    assert tpl.readouts([0.0], [1.2])[0, 0] == pytest.approx(math.sin(1.2), abs=1e-12)


def test_experiment_table_is_frozen_consistent():
    table = evaluate_table(single_pulse_template(), TRIPLE, TRIPLE)
    assert isinstance(table, ExperimentTable)
    q = Quantizer()
    for i in range(3):
        for j in range(3):
            assert table.logic.rows()[i][j] == quantize(table.raw[i][j], q)


# --- class counts and hits against the pair-by-pair brute force ----------------


def _table_indices(digits):
    """Brute-force oracle: function index of every (a-triple, b-triple) pair,
    as a (C(n,3), C(m,3)) array in lexicographic triple order."""
    n, m = digits.shape
    ai = np.array(list(itertools.combinations(range(n), 3)), dtype=np.intp)
    bi = np.array(list(itertools.combinations(range(m), 3)), dtype=np.intp)
    sub = digits[ai[:, None, :, None], bi[None, :, None, :]].astype(np.int64)
    powers = 3 ** (3 * np.arange(3, dtype=np.int64)[:, None] + np.arange(3, dtype=np.int64))
    return (sub * powers[None, None]).sum(axis=(2, 3))


@st.composite
def digit_grids(draw):
    n, m = draw(st.integers(3, 12)), draw(st.integers(3, 12))
    kind = draw(st.sampled_from(("random", "constant", "repeated_rows")))
    if kind == "constant":
        return np.full((n, m), draw(st.integers(0, 2)), dtype=np.uint8)
    row = st.lists(st.integers(0, 2), min_size=m, max_size=m)
    if kind == "repeated_rows":
        rows = draw(st.lists(row, min_size=1, max_size=3))
        picks = draw(st.lists(st.integers(0, len(rows) - 1), min_size=n, max_size=n))
        return np.array([rows[i] for i in picks], dtype=np.uint8)
    return np.array(draw(st.lists(row, min_size=n, max_size=n)), dtype=np.uint8)


@settings(max_examples=60, deadline=None)
@given(digit_grids())
def test_histogram_counts_equal_pairwise_counts(digits):
    values, counts = np.unique(np.asarray(npn.canonical_map(3))[_table_indices(digits)], return_counts=True)
    got = search._class_counts(digits)
    assert got == dict(zip(values.tolist(), counts.tolist()))
    n, m = digits.shape
    assert sum(got.values()) == math.comb(n, 3) * math.comb(m, 3)


def _tensor_class_counts(digits):
    """Oracle of the class count: the ordered 27**3 tensor fold over all n
    rows and all b-triples at once.  Cell (x, y, z) sums h_x*h_y*h_z less
    the pair products on its diagonals plus twice the single counts on the
    main one, the ordered triples of distinct rows with codes x, y, z, and
    each unordered a-triple is counted once per row order, six times."""
    n, m = digits.shape
    b = np.array(list(itertools.combinations(range(m), 3)), dtype=np.intp)
    codes = digits[:, b[:, 0]] + 3 * digits[:, b[:, 1]] + 9 * digits[:, b[:, 2]]
    hist = np.stack([(codes == c).sum(axis=0) for c in range(27)], axis=1).astype(np.float64)
    assert len(b) * n**3 < 2**53  # every product and sum below is exact
    triple = np.stack([hist.T @ (hist * hist[:, z, None]) for z in range(27)]).astype(np.int64)
    pair = (hist.T @ hist).astype(np.int64)
    single = hist.sum(axis=0).astype(np.int64)
    diag = np.arange(27)
    triple[diag, diag, :] -= pair
    triple[:, diag, diag] -= pair
    triple[diag, :, diag] -= pair
    triple[diag, diag, diag] += 2 * single
    # cell (x, y, z) holds rows with codes x, y, z: function index x + 27y + 729z
    per_class = np.zeros(27**3, dtype=np.int64)
    np.add.at(per_class, np.asarray(npn.canonical_map(3)), triple.transpose(2, 1, 0).ravel())
    assert not (per_class % 6).any()
    hit = np.flatnonzero(per_class)
    return dict(zip(hit.tolist(), (per_class[hit] // 6).tolist()))


@st.composite
def repeated_row_grids(draw):
    """Digit grids of up to 40x40 whose n rows are drawn from a few distinct
    rows, with digits from one, two or all three values."""
    n, m = draw(st.integers(3, 40)), draw(st.integers(3, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = np.array(draw(st.sampled_from([(1,), (0, 2), (0, 1, 2)])), dtype=np.uint8)
    rows = rng.choice(values, size=(draw(st.integers(1, n)), m))
    return rows[rng.integers(0, len(rows), size=n)]


@settings(max_examples=60, deadline=None)
@given(repeated_row_grids())
def test_class_counts_equal_the_tensor_fold_on_a_grid_and_its_transpose(digits):
    expected = _tensor_class_counts(digits)
    # the input swap is in the group: the transpose has the same counts
    assert _tensor_class_counts(digits.T) == expected
    assert search._class_counts(digits) == expected
    assert search._class_counts(digits.T) == expected


def test_class_counts_walk_the_axis_with_fewer_triples(monkeypatch):
    made = []
    triples = search._triples

    def counting_triples(n, size):
        made.append(n)
        return triples(n, size)

    monkeypatch.setattr(search, "_triples", counting_triples)
    digits = np.random.default_rng(3).integers(0, 3, size=(4, 60), dtype=np.uint8)
    assert search._class_counts(digits) == search._class_counts(digits.T)
    assert made == [4, 4]


def test_hit_search_walks_the_axis_with_fewer_triples(monkeypatch):
    made = []
    triples = search._triples

    def counting_triples(n, size):
        for chunk in triples(n, size):
            made.append((n, len(chunk)))
            yield chunk

    digits = np.random.default_rng(3).integers(0, 3, size=(4, 60), dtype=np.uint8)
    targets = set(sorted(search._class_counts(digits))[:3])
    monkeypatch.setattr(search, "_triples", counting_triples)
    monkeypatch.setattr(search, "_quantized_grid", lambda *args: digits)
    rows = search.hit_rows(None, None, None, targets=targets)
    # the b-triples are the C(4,3) of the 4 rows, and no a-triple is made
    assert made == [(4, 4)]
    assert len(rows) == sum(search._class_counts(digits)[c] for c in targets)


@functools.lru_cache(maxsize=None)
def _transposed_indices():
    """The function index of each table's transpose."""
    return np.array([npn._transpose(i) for i in range(3**9)], dtype=np.int32)


@settings(max_examples=60, deadline=None)
@given(digit_grids(), st.sampled_from([1, 7, 64, search.STEP_CELLS]), st.data())
def test_hit_rows_of_a_grid_are_those_of_its_transpose_swapped(digits, step_cells, data):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "STEP_CELLS", step_cells)
        counts = search._class_counts(digits)
        some = st.one_of(st.sampled_from(sorted(counts)), st.integers(0, 3**9 - 1))
        targets = data.draw(st.sets(some, min_size=1, max_size=4))
        mp.setattr(search, "_quantized_grid", lambda *args: digits)
        rows = search.hit_rows(None, None, None, targets=targets)
        mp.setattr(search, "_quantized_grid", lambda *args: digits.T)
        swapped = search.hit_rows(None, None, None, targets=targets)
    back = swapped[:, [3, 4, 5, 0, 1, 2, 6]]
    back[:, 6] = _transposed_indices()[back[:, 6]]
    assert rows.dtype == swapped.dtype == np.int32
    assert np.array_equal(rows, back[np.lexsort(back[:, 5::-1].T)])


@pytest.mark.parametrize("step_cells", [1, 7, 200, 1 << 18])
def test_search_hits_match_pairwise_oracle_in_order(monkeypatch, step_cells):
    monkeypatch.setattr(spinsim, "STEP_CELLS", step_cells)
    monkeypatch.setattr(search, "STEP_CELLS", step_cells)
    made = {}
    triples = search._triples

    def counting_triples(n, size):
        for chunk in triples(n, size):
            made[n] = made.get(n, 0) + len(chunk)
            yield chunk

    monkeypatch.setattr(search, "_triples", counting_triples)
    rng = random.Random(4)
    tpl = single_pulse_template()
    grid_a = sorted(rng.uniform(0, 2 * math.pi) for _ in range(9)) + list(TRIPLE)
    grid_b = list(TRIPLE) + sorted(rng.uniform(0, 2 * math.pi) for _ in range(6))
    targets = {encode(multiplication()), 0}
    hits = search.search(tpl, grid_a, grid_b, targets=targets)
    # each b-triple is made once, whatever the step
    assert made[len(grid_b)] == math.comb(len(grid_b), 3)

    indices = _table_indices(search._quantized_grid(tpl, grid_a, grid_b, Quantizer()))
    wanted = [npn.canonical_index(t) for t in targets]
    a_combos = list(itertools.combinations(grid_a, 3))
    b_combos = list(itertools.combinations(grid_b, 3))
    expected = [
        (a_combos[k], b_combos[l], int(indices[k, l]))
        for k, l in zip(*np.nonzero(np.isin(np.asarray(npn.canonical_map(3))[indices], wanted)))
    ]
    assert expected
    assert [(h.a_values, h.b_values, h.index) for h in hits] == expected
    # the class count makes each b-triple once too, and no a-triple
    made.clear()
    achievable_classes(tpl, grid_a, grid_b)
    assert made == {len(grid_b): math.comb(len(grid_b), 3)}


@settings(max_examples=60, deadline=None)
@given(digit_grids(), st.sampled_from([1, 7, 64, search.STEP_CELLS]), st.data())
def test_hits_per_class_equal_the_class_counts(digits, step_cells, data):
    # the two folds over the b-triple walk: listing the hits of a class
    # finds as many as counting the class's pairs
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "STEP_CELLS", step_cells)
        mp.setattr(search, "_quantized_grid", lambda *args: digits)
        counts = search._class_counts(digits)
        some = st.one_of(st.sampled_from(sorted(counts)), st.integers(0, 3**9 - 1))
        targets = data.draw(st.sets(some, min_size=1, max_size=4))
        rows = search.hit_rows(None, None, None, targets=targets)
    canon = np.asarray(npn.canonical_map(3))
    classes = {npn.canonical_index(t) for t in targets}
    values, found = np.unique(canon[rows[:, 6]], return_counts=True)
    assert dict(zip(values.tolist(), found.tolist())) == {c: counts[c] for c in classes if c in counts}
    # each row is its table: the digits at its a-rows and b-columns
    powers = 3 ** (3 * np.arange(3)[:, None] + np.arange(3))
    tables = digits[rows[:, :3, None], rows[:, None, 3:6]].astype(np.int64)
    assert np.array_equal((tables * powers).sum(axis=(1, 2)), rows[:, 6])
    # ascending triples, each pair once, in strict triple order
    assert (np.diff(rows[:, :3]) > 0).all() and (np.diff(rows[:, 3:6]) > 0).all()
    pairs = [tuple(r[:6]) for r in rows.tolist()]
    assert all(p < q for p, q in zip(pairs, pairs[1:]))


def _assert_steps_within_the_budget(mp, digits, targets):
    """Runs both folds of the b-triple walk on ``digits`` with ``_triples``
    wrapped to record each walk's (n, size), and checks that each step of k
    b-triples holds k*(rows + 27*27 + cells) <= STEP_CELLS cells, or a single
    b-triple: the count walks the distinct rows with no target cell, the hit
    search all rows with the sorted cells of the targets.  Returns the
    number of steps of each walk."""
    walks = []
    triples = search._triples

    def recording_triples(n, size):
        walks.append((n, size))
        return triples(n, size)

    walked = search._walked(digits)
    cells = len(search._target_cells(np.isin(npn.canonical_map(3), sorted(targets)))[0])
    mp.setattr(search, "_triples", recording_triples)
    mp.setattr(search, "_quantized_grid", lambda *args: digits)
    counts = search._class_counts(digits)
    rows = search.hit_rows(None, None, None, targets=targets)
    assert len(rows) == sum(counts.get(npn.canonical_index(t), 0) for t in targets)
    distinct = len(search._distinct_rows(walked)[0])
    m = walked.shape[1]
    assert [n for n, _ in walks] == [m, m]
    for (_, size), (n, c) in zip(walks, [(distinct, 0), (len(walked), cells)]):
        assert size == 1 or size * (n + 27 * 27 + c) <= search.STEP_CELLS
        assert size == 1 or (size + 1) * (n + 27 * 27 + c) > search.STEP_CELLS  # no smaller than that
    return [-(-math.comb(m, 3) // size) for _, size in walks]


@settings(max_examples=40, deadline=None)
@given(
    digit_grids(),
    st.sampled_from([800, 3000, 20000, search.STEP_CELLS]),
    st.sets(st.sampled_from(sorted(set(npn.canonical_map(3)))), min_size=1, max_size=4)
    | st.just(set(npn.canonical_map(3))),
)
def test_every_step_of_either_fold_stays_within_the_budget(digits, step_cells, targets):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "STEP_CELLS", step_cells)
        _assert_steps_within_the_budget(mp, digits, targets)


def test_a_hit_search_for_all_classes_takes_smaller_steps_than_the_count(monkeypatch):
    # all 84 classes have 3,654 sorted cells: on 20 rows a hit-search step
    # holds STEP_CELLS // (20 + 729 + 3654) = 59 b-triples, where the class
    # count takes the C(13,3) = 286 b-triples of 13 columns in one step
    digits = np.random.default_rng(5).integers(0, 3, size=(20, 13), dtype=np.uint8)
    assert search.STEP_CELLS // (20 + 27 * 27 + 3654) == 59
    steps = _assert_steps_within_the_budget(monkeypatch, digits, set(npn.canonical_map(3)))
    assert steps == [1, 5]


def test_a_hit_search_without_picks_expands_no_a_triple(monkeypatch):
    # a constant $A grid reads 0 everywhere: no b-triple's row-code histogram
    # has a pick in a multiplication cell, so the count-and-expand walk
    # expands nothing, and no a-triple of the 1200 $A values is made
    made = []
    triples = search._triples

    def counting_triples(n, size):
        for chunk in triples(n, size):
            made.append((n, len(chunk)))
            yield chunk

    monkeypatch.setattr(search, "_triples", counting_triples)
    rows = search.hit_rows(single_pulse_template(), [0.0] * 1200, [0.5, 1.5, 2.5],
                           targets={encode(multiplication())})
    assert rows.shape == (0, 7) and rows.dtype == np.int32
    assert made == [(3, 1)]


def test_count_and_expand_working_memory():
    # a hit search of 30x30 random digits against all 84 classes (3,654
    # target cells) over its cap of 0 hits: the walk counts the (b-triple,
    # cell) picks of a step of 59 b-triples, within STEP_CELLS, and stops
    # before it expands any, which traced 5.5 MB
    digits = np.random.default_rng(7).integers(0, 3, size=(30, 30), dtype=np.uint8)
    classes = sorted(set(npn.canonical_map(3)))
    assert len(classes) == 84 and len(search._target_cells(np.ones(27**3, dtype=bool))[0]) == 3654
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "_quantized_grid", lambda *args: digits)
        mp.setattr(search, "MAX_GRID_POINTS", 0)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"^search has {math.comb(30, 3) ** 2} hits"):
                search.hit_rows(None, None, None, targets=classes)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 12e6
    # a hit search of n >= m rows takes min(C(m,3), STEP_CELLS // (n + 27*27
    # + cells)) b-triples per step, at most 351, as on this 14x14 grid
    # against the constant class's 3 cells, where the 492 hits traced 343 KB
    grid = [2 * math.pi * k / 13 for k in range(14)]
    assert math.comb(13, 3) < search.STEP_CELLS // (14 + 27 * 27) == 352 < math.comb(14, 3)
    x, _, _ = search._target_cells(np.isin(npn.canonical_map(3), [0]))
    assert search.STEP_CELLS // len(x) > 352
    assert search.STEP_CELLS // (14 + 27 * 27 + len(x)) == 351
    tracemalloc.start()
    try:
        rows = search.hit_rows(two_pulse_template(), grid, grid, targets={0})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) == 492 and peak < 1e6


@pytest.mark.parametrize("step_cells", [1, 5, 64, search.STEP_CELLS])
def test_derived_steps_do_not_change_results(monkeypatch, step_cells):
    # $A in a selective pulse's target_offset and $B in a T1 delay's tau, so
    # both axes broadcast through np.where and _exp
    tpl = SequenceTemplate(
        {
            "peaks": [
                {"label": "A", "offset_rad_s": 2.0, "t1_s": 1.0},
                {"label": "B", "offset_rad_s": 5.0},
                {"label": "C", "offset_rad_s": 3.0, "t1_s": 0.5},
            ],
            "sequence": [
                {"type": "hard_pulse", "beta": "$A", "phi": 0.3},
                {"type": "delay", "tau": "$B"},
                {"type": "selective_pulse", "beta": math.pi / 2, "phi": "$B",
                 "target_offset": "$A", "tolerance": 1.0},
            ],
        }
    )
    rng = random.Random(9)
    grid_a = [rng.uniform(0, 2 * math.pi) for _ in range(7)]
    grid_b = [rng.uniform(0, 2 * math.pi) for _ in range(5)]
    digits = np.random.default_rng(9).integers(0, 3, size=(13, 9)).astype(np.uint8)
    expected = tpl.readouts(grid_a, grid_b)
    expected_digits = (quantize(expected, Quantizer(), tpl.readout_bound) + 1).astype(np.uint8)
    assert set(expected_digits.ravel().tolist()) == {0, 1, 2}
    monkeypatch.setattr(spinsim, "STEP_CELLS", step_cells)
    monkeypatch.setattr(search, "STEP_CELLS", step_cells)
    # at 64 cells a tile holds 4 of the 7 rows of 5 points times 3 peaks
    assert np.array_equal(tpl.readouts(grid_a, grid_b), expected)
    assert np.array_equal(search._quantized_grid(tpl, grid_a, grid_b, Quantizer()), expected_digits)
    values, counts = np.unique(np.asarray(npn.canonical_map(3))[_table_indices(digits)], return_counts=True)
    assert search._class_counts(digits) == dict(zip(values.tolist(), counts.tolist()))


@pytest.mark.parametrize("step_cells", [5, spinsim.STEP_CELLS])
def test_block_quantization_reports_the_first_readout_out_of_bound(monkeypatch, step_cells):
    tpl = single_pulse_template()
    tpl.readout_bound = 0.5
    grid_a, grid_b = [0.0, 0.1, 2.0, 1.5], [0.3, 1.0, 2.5, 4.0, 6.0]
    readouts = tpl.readouts(grid_a, grid_b)
    with pytest.raises(ValueError) as whole:
        quantize(readouts, Quantizer(), tpl.readout_bound)
    # at 5 cells a tile is one row, and the first two rows are within the bound
    assert np.abs(readouts[:2]).max() < tpl.readout_bound
    monkeypatch.setattr(spinsim, "STEP_CELLS", step_cells)
    with pytest.raises(ValueError) as blocks:
        search._quantized_grid(tpl, grid_a, grid_b, Quantizer())
    assert str(blocks.value) == str(whole.value)


def test_quantized_grid_never_holds_the_float_grid():
    grid_a = [2 * math.pi * k / 9999 for k in range(10000)]
    grid_b = [2 * math.pi * k / 99 for k in range(100)]
    tracemalloc.start()
    try:
        digits = search._quantized_grid(two_pulse_template(), grid_a, grid_b, Quantizer())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert digits.shape == (10000, 100)
    # the float grid alone is 8 MB, and quantizing it whole took a 47.5 MB peak
    assert peak < 32e6


def t1_sequence_document(peaks: int) -> dict:
    """The benchmark's T1 sequence on ``peaks`` peaks spread over 1.5..8.5
    rad/s, every other one with T1."""
    return {
        "peaks": [
            {"label": f"p{k}", "offset_rad_s": 1.5 + 7.0 * k / peaks}
            | ({"t1_s": 0.5 + k / peaks} if k % 2 == 0 else {})
            for k in range(peaks)
        ],
        "sequence": [
            {"type": "hard_pulse", "beta": "$A", "phi": 0.3},
            {"type": "delay", "tau": 0.25},
            {"type": "selective_pulse", "beta": math.pi / 2, "phi": "$B",
             "target_offset": 5.0, "tolerance": 1.0},
            {"type": "delay", "tau": 0.15},
        ],
    }


def three_peak_document() -> dict:
    """The T1 sequence on three peaks, two with T1: hard pulse $A, delay, a
    pulse at phase $B selective for the middle peak, delay."""
    return t1_sequence_document(3) | {
        "peaks": [
            {"label": "p1", "offset_rad_s": 2.0, "t1_s": 1.2},
            {"label": "p2", "offset_rad_s": 5.0, "t1_s": 0.7},
            {"label": "p3", "offset_rad_s": 8.0},
        ]
    }


@pytest.mark.parametrize("step_cells", [1, 5, 64, spinsim.STEP_CELLS])
def test_tiles_stay_within_the_budget_and_cover_the_grid_in_row_major_order(monkeypatch, step_cells):
    tpl = SequenceTemplate(t1_sequence_document(3))
    rng = random.Random(13)
    grid_a = [rng.uniform(0, 2 * math.pi) for _ in range(7)]
    grid_b = [rng.uniform(0, 2 * math.pi) for _ in range(25)]
    grids = [(grid_a, grid_b), ([], grid_b), (grid_a, [])]
    expected = [tpl.readouts(a, b) for a, b in grids]
    calls = []
    run_peak = spinsim.run_peak

    def recording_run_peak(peak, steps):
        # the $A slot is the hard pulse's beta and the $B slot the selective pulse's phi
        rows, cols = len(steps[0][1]["beta"]), len(steps[2][1]["phi"])
        # a $A value is a (rows, 1) column and a $B value a (cols,) row
        assert {np.shape(v) for _, fields in steps for v in fields.values()} <= {(), (rows, 1), (cols,)}
        calls.append((rows, cols))
        return run_peak(peak, steps)

    monkeypatch.setattr(spinsim, "STEP_CELLS", step_cells)
    monkeypatch.setattr(spinsim, "run_peak", recording_run_peak)
    # at 64 cells a tile holds 16 points, so a row of 25 is split into 16 and 9
    tiles = [tile for tile, _ in tpl._tiles(grid_a, grid_b)]
    assert all(rows * cols <= max(step_cells // 4, 1) for rows, cols in calls)
    index = np.arange(7 * 25).reshape(7, 25)
    assert calls == [index[tile].shape for tile in tiles for _ in range(3)]
    assert np.concatenate([index[tile].ravel() for tile in tiles]).tolist() == list(range(7 * 25))
    for (a, b), values in zip(grids, expected):
        got = tpl.readouts(a, b)
        assert got.shape == (len(a), len(b)) and np.array_equal(got, values)


def test_many_peak_readouts_split_long_rows():
    tpl = SequenceTemplate(t1_sequence_document(300))
    grid_b = [2 * math.pi * k / 2999 for k in range(3000)]
    tracemalloc.start()
    try:
        values = tpl.readouts([0.1, 0.2, 0.3], grid_b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert values.shape == (3, 3000)
    # one row is 900,000 point-peaks; simulated whole, it took an 86.6 MB peak
    assert peak < 40e6


def traced_bytes_per_point(template, grid_a, grid_b):
    """Peak traced bytes of ``readouts`` per point of the grid."""
    template.readouts(grid_a[:1], grid_b[:1])  # lazy set-up outside the trace
    tracemalloc.start()
    try:
        template.readouts(grid_a, grid_b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (len(grid_a) * len(grid_b))


def traced_bytes_per_point_peak(template, grid_a, grid_b):
    """Peak traced bytes of ``readouts`` per point-peak of the grid."""
    return traced_bytes_per_point(template, grid_a, grid_b) / len(template.system.peaks)


def test_readouts_trace_at_most_64_bytes_per_point_peak():
    # one tile of 100 x 100 points
    three_peaks = SequenceTemplate(three_peak_document())
    grid = [2 * math.pi * k / 99 for k in range(100)]
    assert traced_bytes_per_point_peak(three_peaks, grid, grid) <= 64
    # a single-pulse grid of exactly STEP_CELLS points, in four tiles, output included
    side = math.isqrt(spinsim.STEP_CELLS)
    grid = [2 * math.pi * k / (side - 1) for k in range(side)]
    assert side * side == spinsim.STEP_CELLS
    assert traced_bytes_per_point_peak(single_pulse_template(), grid, grid) <= 64


def test_readouts_keep_the_peaks_a_window_leaves_out_off_the_grid():
    # the 64-byte test's three peaks: the $B pulse selects only the middle
    # one, so the outer two run on (rows, 1) points
    tpl = SequenceTemplate(three_peak_document())
    grid = [2 * math.pi * k / 99 for k in range(100)]
    assert traced_bytes_per_point_peak(tpl, grid, grid) <= 32


def test_full_tile_three_peak_readouts_trace_at_most_13_bytes_per_point():
    # the 64-byte test's template on 1000x1000, in 16 tiles of at most 65
    # rows of 1000 points: the output alone is 8 bytes per point, and one
    # tile's kernel arrays and temporaries are the rest
    grid = [2 * math.pi * k / 999 for k in range(1000)]
    assert traced_bytes_per_point(SequenceTemplate(three_peak_document()), grid, grid) <= 13


def test_many_peak_readouts_trace_at_most_90_bytes_per_point():
    # a tile holds at most STEP_CELLS // 4 points whatever the peak count,
    # and the sum over the peaks is one more array; the output alone is 8
    # bytes per point.  With tiles of STEP_CELLS point-peaks, one 3x873 tile
    # per 300 peaks, this grid traced 143 bytes per point.
    tpl = SequenceTemplate(t1_sequence_document(300))
    grid_b = [2 * math.pi * k / 9999 for k in range(10000)]
    assert traced_bytes_per_point(tpl, [0.1, 0.2, 0.3], grid_b) <= 90


def test_one_row_readout_tiles_trace_at_most_18_bytes_per_point():
    # a row of 250,000 points is split into tiles of STEP_CELLS // 4 points,
    # the output alone being 8 bytes per point; in one-row tiles of
    # STEP_CELLS points this grid traced 28 bytes per point
    grid_b = [2 * math.pi * k / 249999 for k in range(250000)]
    assert traced_bytes_per_point(single_pulse_template(), [0.5, 1.5, 2.5, 3.5], grid_b) <= 18


@pytest.mark.parametrize("n", [0, 1, 3, 4, 9, 23])
@pytest.mark.parametrize("size", [1, 2, 7, 10**6])
def test_triples_are_the_combinations_in_chunks(n, size):
    expected = list(itertools.combinations(range(n), 3))
    chunks = list(search._triples(n, size))
    assert [len(c) for c in chunks] == [min(size, len(expected) - s) for s in range(0, len(expected), size)]
    assert all(c.dtype == np.intp and c.shape[1:] == (3,) for c in chunks)
    assert [tuple(t) for c in chunks for t in c.tolist()] == expected


def test_exactness_guard_at_its_boundary():
    # one step of one b-triple: below n**3 = 2**53 the products are float64,
    # from there on int64, and both count exactly
    assert search._class_counts(np.zeros((208063, 3), np.uint8)) == {0: math.comb(208063, 3)}
    assert search._class_counts(np.zeros((208064, 3), np.uint8)) == {0: math.comb(208064, 3)}
    assert search._class_counts(np.full((300000, 3), 1, np.uint8)) == {0: math.comb(300000, 3)}
    # an odd n**3 above 2**53 has no float64 representation
    assert search._class_counts(np.full((299999, 3), 2, np.uint8)) == {0: math.comb(299999, 3)}
    # three codes of 250,001 rows each: h_x*h_y*h_z is odd and above 2**53,
    # so float64 steps miscount it (their totals fail the sum check)
    digits = np.zeros((750003, 3), np.uint8)
    digits[250001:500002, 0], digits[500002:, 0] = 1, 2
    assert sum(search._class_counts(digits).values()) == math.comb(750003, 3)


@pytest.mark.parametrize(
    "n, m",
    [
        pytest.param(208063, 3, id="208063"),
        pytest.param(208064, 3, id="208064"),
        # 81 distinct rows: one int64 step of all four b-triples
        pytest.param(210000, 4, id="210000x4"),
    ],
)
def test_class_counts_on_a_tall_grid_equal_the_histogram_oracle(n, m):
    # under one b-triple, the a-triples taking c_x rows of code x form
    # prod C(h_x, c_x) tables, counted here with Python ints
    digits = np.random.default_rng(n).integers(0, 3, size=(n, m), dtype=np.uint8)
    expected: dict[int, int] = {}
    for b in itertools.combinations(range(m), 3):
        codes = digits[:, b[0]].astype(np.int64) + 3 * digits[:, b[1]] + 9 * digits[:, b[2]]
        hist = np.bincount(codes, minlength=27).tolist()
        for x, y, z in itertools.combinations_with_replacement(range(27), 3):
            multiplicity = {x: 0, y: 0, z: 0}
            for code in (x, y, z):
                multiplicity[code] += 1
            tables = math.prod(math.comb(hist[code], c) for code, c in multiplicity.items())
            canonical = npn.canonical_index(x + 27 * y + 729 * z)
            expected[canonical] = expected.get(canonical, 0) + tables
    assert search._class_counts(digits) == {c: t for c, t in expected.items() if t}
    assert sum(expected.values()) == math.comb(n, 3) * math.comb(m, 3)


def test_single_pulse_class_set_equals_that_of_representative_products():
    # a single-pulse readout is a product u*v (u = sin beta, v = sin phi), so
    # its table depends only on the signs of the u_i and v_j and on which
    # products clear epsilon = 0.25; 21 values, 0, +-0.1 and nine magnitudes
    # in [0.26, 1] with their negatives, realize 42 classes: the set of every
    # such table, enumerated below, and the one that the grid search finds
    # at each grid size tried
    magnitudes = np.geomspace(0.26, 1, 9)
    values = np.concatenate([[0.0, 0.1, -0.1], magnitudes, -magnitudes])
    digits = (quantize(np.multiply.outer(values, values)) + 1).astype(np.uint8)
    products = set(search._class_counts(digits))
    assert len(products) == 42
    # the complete set: a table is s_i*r_j*F[i][j], with row and column
    # signs s, r in {-1, 0, 1} and F the 0/1 pattern of |u_i|*|v_j| >=
    # epsilon, whose row supports are nested (each pattern is realized by
    # some |u|, |v| <= 1 at epsilon < 1); a table's digits are its values + 1
    ferrers = [
        rows
        for rows in itertools.product(itertools.product((0, 1), repeat=3), repeat=3)
        if all(all(a <= b for a, b in zip(p, q)) or all(b <= a for a, b in zip(p, q))
               for p, q in itertools.combinations(rows, 2))
    ]
    assert len(ferrers) == 230
    signs = list(itertools.product((-1, 0, 1), repeat=3))
    indices = {
        sum((s[i] * r[j] * f[i][j] + 1) * 3 ** (3 * i + j) for i in range(3) for j in range(3))
        for f in ferrers
        for s in signs
        for r in signs
    }
    assert {npn.canonical_index(t) for t in indices} == products
    for n in (12, 24, 40):
        grid = [2 * math.pi * k / (n - 1) for k in range(n)]
        assert set(achievable_classes(single_pulse_template(), grid, grid)) == products
    # acceptance 6's negative result on these values too: no product table
    # lies in the selective-delay class
    template, delays, freqs = selective_delay_inputs()
    selective = npn.canonical_index(encode(evaluate_table(template, delays, freqs).logic))
    assert selective == 152
    assert selective not in products


def test_class_count_working_memory_does_not_grow_with_the_step():
    grid = [2 * math.pi * k / 23 for k in range(24)]
    digits = search._quantized_grid(two_pulse_template(), grid, grid, Quantizer())
    npn.canonical_map(3)
    # steps of 348 b-triples: a (348, 27*27) float64 outer product alone is 2 MB
    assert max(1, search.STEP_CELLS // (24 + 27 * 27)) == 348
    tracemalloc.start()
    try:
        search._class_counts(digits)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6


def test_class_count_traced_peak_on_the_benchmark_grid():
    # the 24x24 two-pulse grid of the benchmark's class count: over all 24
    # rows with a 27**3 float64 step tensor and its int64 copy the count
    # traced 940 KB; over its 23 distinct rows and one 28**3 moment tensor (27
    # codes and a unit code), 487 KB, bounded here with a margin of about 11 %
    grid = [2 * math.pi * k / 23 for k in range(24)]
    digits = search._quantized_grid(two_pulse_template(), grid, grid, Quantizer())
    npn.canonical_map(3)
    tracemalloc.start()
    try:
        search._class_counts(digits)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 540e3


def test_search_computes_each_class_orbit_once(monkeypatch):
    calls = []
    orbit = npn.orbit

    def counting_orbit(index, radix=3):
        calls.append(index)
        return orbit(index, radix)

    monkeypatch.setattr(npn, "orbit", counting_orbit)
    grid = sorted({0.3, math.pi / 2, 2.0, math.pi, 4.0, 3 * math.pi / 2, 5.5, 6.0})
    hits = search.search(single_pulse_template(), grid, grid, targets={encode(multiplication())})
    assert len(hits) > 1
    assert calls == [npn.canonical_index(encode(multiplication()))]
    assert len({id(h.npn_class) for h in hits}) == 1


# --- template contract -----------------------------------------------------------


def _two_peak_template():
    return SequenceTemplate(
        {
            "peaks": [{"label": "A", "offset_rad_s": 0.0}, {"label": "B", "offset_rad_s": 5.0}],
            "sequence": [{"type": "hard_pulse", "beta": "$A", "phi": "$B"}],
        }
    )


def test_readout_bound_scales_with_peak_count():
    tpl = _two_peak_template()
    assert len(tpl.system.peaks) == 2
    table = evaluate_table(tpl, TRIPLE, TRIPLE)
    assert table.raw[0][0] == pytest.approx(2.0)
    # the threshold is not scaled: the summed readouts 2*sin(a)*sin(b) still
    # quantize to their signs
    assert table.logic == multiplication()
    grid = [0.0, *TRIPLE, 5.0]
    counts = achievable_classes(tpl, grid, grid)
    assert sum(counts.values()) == math.comb(5, 3) ** 2
    # the bound is one per peak: a readout just beyond it is still rejected
    assert tpl.readout_bound == 2.0
    assert quantize(tpl.readout_bound, bound=tpl.readout_bound) == 1
    with pytest.raises(ValueError, match="outside"):
        quantize(tpl.readout_bound + 2 * search.RAW_SLACK, bound=tpl.readout_bound)


def test_template_rejects_unknown_fields():
    element = {"type": "hard_pulse", "beta": "$A", "phi": "$B"}
    peak = {"label": "s", "offset_rad_s": 0.0}
    with pytest.raises(ValueError, match="bogus"):
        SequenceTemplate({"peaks": [peak], "sequence": [{**element, "bogus": 1}]})
    with pytest.raises(ValueError, match="t1"):
        SequenceTemplate({"peaks": [{**peak, "t1": 2.0}], "sequence": [element]})
    with pytest.raises(ValueError, match="warp"):
        SequenceTemplate({"peaks": [peak], "sequence": [element, {"type": "warp", "tau": "$B"}]})
    with pytest.raises(ValueError, match="list"):
        SequenceTemplate({"peaks": peak, "sequence": [element]})
    with pytest.raises(ValueError, match="extra"):
        SequenceTemplate({"peaks": [peak], "sequence": [element], "extra": 1})


ANGLE = st.floats(0.0, 2 * math.pi)
ELEMENT = st.one_of(
    st.builds(lambda b, p: {"type": "hard_pulse", "beta": b, "phi": p}, ANGLE, ANGLE),
    st.builds(
        lambda b, p, f: {
            "type": "selective_pulse", "beta": b, "phi": p, "target_offset": f, "tolerance": 1.0,
        },
        ANGLE, ANGLE, st.floats(-5.0, 5.0),
    ),
    st.builds(lambda t: {"type": "delay", "tau": t}, st.floats(0.0, 5.0)),
)


@st.composite
def t1_templates(draw):
    """A template whose peaks may carry T1, with a delay of $A and a pulse
    phase of $B placed anywhere among random fixed elements."""
    peak = st.tuples(st.floats(-5.0, 5.0), st.none() | st.floats(0.1, 5.0))
    peaks = [
        {"label": f"p{k}", "offset_rad_s": offset, **({"t1_s": t1} if t1 is not None else {})}
        for k, (offset, t1) in enumerate(draw(st.lists(peak, min_size=1, max_size=3)))
    ]
    sequence = draw(st.lists(ELEMENT, max_size=5))
    sequence.insert(draw(st.integers(0, len(sequence))), {"type": "delay", "tau": "$A"})
    beta = draw(ANGLE)
    sequence.insert(draw(st.integers(0, len(sequence))), {"type": "hard_pulse", "beta": beta, "phi": "$B"})
    return SequenceTemplate({"peaks": peaks, "sequence": sequence})


@settings(max_examples=150, deadline=None)
@given(t1_templates(), st.floats(0.0, 5.0), ANGLE)
def test_t1_readout_stays_within_the_derived_bound(tpl, a, b):
    assert abs(tpl.readouts([a], [b])[0, 0]) <= tpl.readout_bound + search.RAW_SLACK



# Every value here is valid in every numeric element field (tolerance > 0, tau >= 0).
FIELD_VALUE = st.floats(0.01, 7.0)
ANY_ELEMENT = st.one_of(
    st.builds(lambda b, p: {"type": "hard_pulse", "beta": b, "phi": p}, FIELD_VALUE, FIELD_VALUE),
    st.builds(
        lambda b, p, f, t: {
            "type": "selective_pulse", "beta": b, "phi": p, "target_offset": f, "tolerance": t,
        },
        FIELD_VALUE, FIELD_VALUE, st.floats(-5.0, 5.0), FIELD_VALUE,
    ),
    st.builds(lambda t: {"type": "delay", "tau": t}, FIELD_VALUE),
)


@st.composite
def any_templates(draw):
    """A template document of 1-3 peaks, some with T1, and hard pulses,
    selective pulses and delays, with $A and $B in any numeric fields."""
    peak = st.tuples(st.floats(-5.0, 5.0), st.none() | st.floats(0.1, 5.0))
    peaks = [
        {"label": f"p{k}", "offset_rad_s": offset, **({"t1_s": t1} if t1 is not None else {})}
        for k, (offset, t1) in enumerate(draw(st.lists(peak, min_size=1, max_size=3)))
    ]
    sequence = draw(st.lists(ANY_ELEMENT, min_size=1, max_size=5))
    fields = [(k, key) for k, e in enumerate(sequence) for key in e if key != "type"]
    if len(fields) < 2:
        sequence.append({"type": "hard_pulse", "beta": 1.0, "phi": 1.0})
        fields += [(len(sequence) - 1, "beta"), (len(sequence) - 1, "phi")]
    marks = draw(st.lists(st.sampled_from([None, "$A", "$B"]), min_size=len(fields), max_size=len(fields)))
    a, b = draw(st.lists(st.integers(0, len(fields) - 1), min_size=2, max_size=2, unique=True))
    marks[a], marks[b] = "$A", "$B"
    for (k, key), mark in zip(fields, marks):
        if mark is not None:
            sequence[k][key] = mark
    return {"peaks": peaks, "sequence": sequence}


def stepwise_readout(document, a, b):
    """Bind the document's placeholders, parse it, and fold apply_element
    over the sequence from equilibrium."""
    bound = {"$A": a, "$B": b}
    sequence = [
        {key: bound.get(v, v) if isinstance(v, str) else v for key, v in e.items()}
        for e in document["sequence"]
    ]
    system, seq, _ = spinsim.document_from_dict({"peaks": document["peaks"], "sequence": sequence})
    state = at_equilibrium(system)
    for element in seq.elements:
        state = apply_element(state, element)
    return spinsim.read_mx(state)


GRID = st.lists(FIELD_VALUE, min_size=1, max_size=6)


@settings(max_examples=150, deadline=None)
@given(any_templates(), GRID, GRID)
def test_readouts_match_the_stepwise_reference(document, grid_a, grid_b):
    values = SequenceTemplate(document).readouts(grid_a, grid_b)
    assert values.shape == (len(grid_a), len(grid_b))
    for i, a in enumerate(grid_a):
        for j, b in enumerate(grid_b):
            assert abs(values[i, j] - stepwise_readout(document, a, b)) <= 1e-12


@st.composite
def windowed_templates(draw):
    """A template document of 1-6 peaks, some with T1, whose sequence is a
    hard pulse of flip angle $A followed, in drawn order, by 1-3 selective
    pulses with constant windows that hit none, some or all of the peaks,
    one selective pulse centred at $B, and delays; the constant windows'
    phases are constants or $B."""
    peak = st.tuples(st.floats(-5.0, 5.0), st.none() | st.floats(0.1, 5.0))
    peaks = draw(st.lists(peak, min_size=1, max_size=6))
    angle = st.floats(-7.0, 7.0)
    target = st.sampled_from([offset for offset, _ in peaks]) | st.floats(-5.0, 5.0)
    windows = [
        {
            "type": "selective_pulse", "beta": draw(angle), "phi": draw(st.just("$B") | angle),
            "target_offset": draw(target), "tolerance": draw(st.sampled_from([1e-3, 1.0, 100.0])),
        }
        for _ in range(draw(st.integers(1, 3)))
    ]
    centred = {"type": "selective_pulse", "beta": draw(angle), "phi": draw(angle),
               "target_offset": "$B", "tolerance": draw(st.sampled_from([1e-3, 1.0, 100.0]))}
    delays = [{"type": "delay", "tau": draw(st.floats(0.0, 3.0))} for _ in range(draw(st.integers(0, 3)))]
    return {
        "peaks": [
            {"label": f"p{k}", "offset_rad_s": offset, **({"t1_s": t1} if t1 is not None else {})}
            for k, (offset, t1) in enumerate(peaks)
        ],
        "sequence": [{"type": "hard_pulse", "beta": "$A", "phi": draw(angle)}]
        + draw(st.permutations(windows + [centred] + delays)),
    }


def full_array_readouts(document, grid_a, grid_b):
    """The template's readouts from one run of the whole system on full
    (rows, columns, peaks) arrays, summed peak by peak in listed order."""
    system, sequence, slots = spinsim.document_from_dict(document)
    steps = [(type(e), e._asdict()) for e in sequence.elements]
    columns = {"$A": np.reshape(grid_a, (-1, 1)), "$B": np.reshape(grid_b, (-1,))}
    for k, key, name in slots:
        steps[k][1][key] = columns[name]
    x, _, _ = spin_reference.run_steps(system, steps, (len(grid_a), len(grid_b)))
    return sum(np.moveaxis(x, -1, 0), 0.0)


@settings(max_examples=200, deadline=None)
@given(windowed_templates(), st.lists(st.floats(0.01, 7.0), min_size=1, max_size=5),
       st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=5))
def test_grouped_readouts_equal_the_whole_system_bit_for_bit(document, grid_a, grid_b):
    tpl = SequenceTemplate(document)
    assert np.array_equal(tpl.readouts(grid_a, grid_b), full_array_readouts(document, grid_a, grid_b))


@pytest.mark.parametrize(
    "element, message",
    [
        ({"type": "selective_pulse", "beta": "$A", "phi": "$B", "target_offset": 0.0, "tolerance": -1},
         "tolerance must be positive"),
        ({"type": "delay", "tau": -0.5}, "delay must be nonnegative"),
        ({"type": "hard_pulse", "beta": "$A", "phi": "x"}, "'phi' must be a number"),
    ],
)
def test_template_rejects_invalid_constants_when_constructed(monkeypatch, element, message):
    def no_simulation(*args):
        raise AssertionError("simulated before the template was checked")

    monkeypatch.setattr(spinsim, "run_peak", no_simulation)
    sequence = [{"type": "hard_pulse", "beta": "$A", "phi": "$B"}, element]
    with pytest.raises(ValueError, match=message):
        SequenceTemplate({"peaks": [{"label": "s", "offset_rad_s": 0.0}], "sequence": sequence})


def checked_per_value(template, name, grid):
    """Every grid value through the element's own validation, one at a time
    in grid order, for each slot of placeholder ``name``."""
    return [
        (k, key, [getattr(template.sequence.elements[k]._replace(**{key: v}), key) for v in grid])
        for k, key, placeholder in template.slots
        if placeholder == name
    ]


def check_outcome(checked):
    """The checked values as lists of floats, or the text of the error."""
    try:
        return [(k, key, np.asarray(values, dtype=float).tolist()) for k, key, values in checked()]
    except ValueError as exc:
        return str(exc)


BOUND_DOCUMENT = {
    "peaks": [{"label": "s", "offset_rad_s": 1.0}],
    "sequence": [
        {"type": "selective_pulse", "beta": "$A", "phi": 0.0, "target_offset": 1.0, "tolerance": "$B"},
        {"type": "delay", "tau": "$A"},
    ],
}
CHECK_VALUE = st.floats() | st.sampled_from([0.0, -0.0, -1.0, 5e-324, math.nan, math.inf, -math.inf])


@settings(max_examples=200, deadline=None)
@example(BOUND_DOCUMENT, [0.5, -0.25, -1.0], "$A")  # a negative tau
@example(BOUND_DOCUMENT, [0.5, 0.0, -1.0], "$B")  # a zero tolerance
@example(BOUND_DOCUMENT, [2.0, math.inf, math.nan], "$A")
@example(BOUND_DOCUMENT, [0.5, math.nan, 0.0], "$B")
@example(BOUND_DOCUMENT, [-0.0, 0.0, 3.0], "$A")
@example(BOUND_DOCUMENT, [], "$B")
@given(any_templates(), st.lists(CHECK_VALUE, max_size=6), st.sampled_from(["$A", "$B"]))
def test_checked_grid_equals_the_per_value_check(document, grid, name):
    template = SequenceTemplate(document)
    expected = check_outcome(lambda: checked_per_value(template, name, grid))
    assert check_outcome(lambda: template._checked(name, grid)) == expected


def test_bound_values_are_checked_by_their_element():
    tpl = SequenceTemplate(
        {
            "peaks": [{"label": "s", "offset_rad_s": 1.0}],
            "sequence": [
                {"type": "selective_pulse", "beta": 1.0, "phi": 0.0, "target_offset": 1.0, "tolerance": "$B"},
                {"type": "delay", "tau": "$A"},
            ],
        }
    )
    assert tpl.readouts([0.0, 0.5], [0.5, 2.0]).shape == (2, 2)
    with pytest.raises(ValueError, match="delay must be nonnegative"):
        tpl.readouts([0.5, -1.0], [0.5])
    with pytest.raises(ValueError, match="tolerance must be positive"):
        tpl.readouts([0.5], [0.5, 0.0])
    with pytest.raises(ValueError, match="tau must be finite"):
        tpl.readouts([math.nan], [0.5])


# --- hits as index rows -----------------------------------------------------------


def test_hit_rows_are_the_hits_as_grid_indices():
    grid = sorted({0.3, math.pi / 2, 2.0, math.pi, 4.0, 3 * math.pi / 2, 5.5, 6.0})
    targets = {encode(multiplication()), 0}
    rows = search.hit_rows(single_pulse_template(), grid, grid, targets=targets)
    hits = search.search(single_pulse_template(), grid, grid, targets=targets)
    assert rows.dtype == np.int32 and rows.shape == (len(hits), 7)
    assert [
        (tuple(grid[i] for i in r[:3]), tuple(grid[j] for j in r[3:6]), r[6]) for r in rows.tolist()
    ] == [(h.a_values, h.b_values, h.index) for h in hits]
    assert search.hit_rows(single_pulse_template(), grid, grid, targets=set()).shape == (0, 7)


def test_hit_search_past_the_cap_names_the_exact_total(monkeypatch):
    grid = [2 * math.pi * k / 9 for k in range(10)]
    target = encode(multiplication())
    total = achievable_classes(single_pulse_template(), grid, grid)[npn.canonical_index(target)]
    assert total == 752
    # small steps, so that the kept rows pass the cap in the middle of the walk
    monkeypatch.setattr(spinsim, "STEP_CELLS", 64)
    monkeypatch.setattr(search, "STEP_CELLS", 64)
    monkeypatch.setattr(search, "MAX_GRID_POINTS", total)
    assert len(search.hit_rows(single_pulse_template(), grid, grid, targets={target})) == total
    monkeypatch.setattr(search, "MAX_GRID_POINTS", total - 1)
    with pytest.raises(ValueError, match=f"^search has {total} hits, more than the limit of {total - 1}$"):
        search.hit_rows(single_pulse_template(), grid, grid, targets={target})


@settings(max_examples=60, deadline=None)
@given(digit_grids(), st.sampled_from([1, 7, 64, search.STEP_CELLS]), st.data())
def test_the_running_hit_count_is_exact_at_the_cap(digits, step_cells, data):
    # the cap is checked against the hits counted per step, before they are
    # expanded, so the count must be exact where codes repeat too: a search
    # capped at its hit total lists every hit, and one capped below it raises
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "STEP_CELLS", step_cells)
        mp.setattr(search, "_quantized_grid", lambda *args: digits)
        counts = search._class_counts(digits)
        targets = data.draw(st.sets(st.sampled_from(sorted(counts)), min_size=1, max_size=4))
        total = sum(counts[c] for c in targets)
        mp.setattr(search, "MAX_GRID_POINTS", total)
        assert len(search.hit_rows(None, None, None, targets=targets)) == total
        mp.setattr(search, "MAX_GRID_POINTS", total - 1)
        with pytest.raises(ValueError, match=f"^search has {total} hits, more than the limit of {total - 1}$"):
            search.hit_rows(None, None, None, targets=targets)


def test_hit_search_past_the_cap_walks_the_grid_once(monkeypatch):
    grid = [2 * math.pi * k / 9 for k in range(10)]
    targets = {encode(multiplication()), 403, 5}
    counts = achievable_classes(single_pulse_template(), grid, grid)
    total = sum(counts[npn.canonical_index(t)] for t in targets)
    assert total == 752 + 1304 + 1040
    walks, step_walks = [], []
    class_counts, steps = search._class_counts, search._steps

    def counting_class_counts(digits):
        walks.append(digits.shape)
        return class_counts(digits)

    def counting_steps(digits, cells):
        step_walks.append(digits.shape)
        return steps(digits, cells)

    monkeypatch.setattr(search, "_class_counts", counting_class_counts)
    monkeypatch.setattr(search, "_steps", counting_steps)
    monkeypatch.setattr(search, "MAX_GRID_POINTS", 100)
    with pytest.raises(ValueError, match=f"^search has {total} hits, more than the limit of 100$"):
        search.hit_rows(single_pulse_template(), grid, grid, targets=targets)
    # the hits past the cap are counted by the rest of the hit search's own walk
    assert walks == []
    assert step_walks == [(10, 10)]


def test_hit_search_working_memory_on_the_benchmark_grid(tmp_path):
    # the 12x12 single-pulse grid of the benchmark's hit search, seed 1: 1,472 hits;
    # built as hit objects with orbits and written by json.dumps(indent=2), the
    # command's traced peak was 3.7 MB
    spec_a, spec_b = "lin:3.7149:9.998085307179586:12", "lin:1.5757:7.8588853071795866:12"
    argv = ["search", "--sequence", "single-pulse", "--grid-a", spec_a, "--grid-b", spec_b,
            "--target", "multiplication", "--format", "json", "--out", str(tmp_path / "hits.json")]
    npn.canonical_map(3)
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(json.loads((tmp_path / "hits.json").read_text())) == 1472
    assert peak < 1.0e6
