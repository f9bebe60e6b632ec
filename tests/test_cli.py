import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from array import array
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spinlogic
from spinlogic import cli, npn, pc
from spinlogic.cli import main
from spinlogic.search import evaluate_table
from spinlogic.spinsim import selective_delay_inputs, two_pulse_template
from spinlogic.ternary import encode, multiplication

TRIPLE_CSV = "1.5707963267948966,3.141592653589793,4.71238898038469"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_ternary_json(capsys):
    code, out, _ = run(capsys, "classify", "--radix", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["npn_class_count"] == 84
    assert doc["burnside_count"] == 84
    assert sum(c["size"] for c in doc["npn_classes"]) == 19683
    assert doc["self_check"] == "pass"
    assert len(doc["npn_classes"]) == 84


def test_classify_binary(capsys):
    code, out, _ = run(capsys, "classify", "--radix", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["npn_class_count"] == 4
    assert doc["pc_consistent"] is True


def test_classify_text_and_csv(capsys):
    code, out, _ = run(capsys, "classify", "--radix", "3")
    assert code == 0
    assert "npn classes: 84" in out
    assert "burnside count: 84" in out
    code, out, _ = run(capsys, "classify", "--radix", "3", "--format", "csv")
    assert code == 0
    assert "npn_class_count,84" in out


def test_classify_deterministic_output(tmp_path, capsys):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(["classify", "--radix", "3", "--format", "json", "--out", str(first)]) == 0
    assert main(["classify", "--radix", "3", "--format", "json", "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_simulate_single_pulse_grid(capsys):
    code, out, _ = run(
        capsys,
        "simulate",
        "--sequence",
        "single-pulse",
        "--grid-a",
        TRIPLE_CSV,
        "--grid-b",
        TRIPLE_CSV,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    first_row = lines[1].split(",")
    assert float(first_row[1]) == pytest.approx(1.0)  # sin(pi/2)*sin(pi/2)
    assert float(first_row[3]) == pytest.approx(-1.0)


def test_simulate_linear_grid_spec(capsys):
    code, out, _ = run(
        capsys,
        "simulate",
        "--sequence",
        "two-pulse",
        "--grid-a",
        "lin:0:6.283185307179586:10",
        "--grid-b",
        "lin:0:6.283185307179586:10",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 11
    # the CLI grid equals the library's two-pulse grid (defaults 3pi/2, pi/2)
    samples = [k * 2 * math.pi / 9 for k in range(10)]
    expected = two_pulse_template(3 * math.pi / 2, math.pi / 2).readouts(samples, samples)
    for i, line in enumerate(lines[1:]):
        for j, cell in enumerate(line.split(",")[1:]):
            assert float(cell) == pytest.approx(expected[i][j], abs=1e-11)


def test_simulate_selective_delay_template(capsys):
    # delays (rows) x pulse frequencies (cols) around peaks at pi and 2*pi
    code, out, _ = run(
        capsys,
        "simulate",
        "--sequence",
        "selective-delay",
        "--grid-a",
        "0.0,0.5,1.0",
        "--grid-b",
        "3.141592653589793,4.71238898038469,6.283185307179586",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    # tau = 0 rows: excited peak reads 1, missed midpoint frequency reads 0
    first = lines[1].split(",")
    assert float(first[1]) == pytest.approx(1.0)
    assert float(first[2]) == 0.0


def test_simulate_template_file(tmp_path, capsys):
    doc = {
        "peaks": [{"label": "s", "offset_rad_s": 0.0}],
        "sequence": [{"type": "hard_pulse", "beta": "$A", "phi": "$B"}],
    }
    path = tmp_path / "seq.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(
        capsys, "simulate", "--sequence", str(path), "--grid-a", "1.5707963267948966",
        "--grid-b", "1.5707963267948966",
    )
    assert code == 0
    assert out.splitlines()[1].split(",")[1] == "1"


def test_simulate_bad_inputs(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, "simulate", "--sequence", str(bad), "--grid-a", "1", "--grid-b", "1")
    assert code == 2
    assert "error" in err
    code, _, err = run(
        capsys, "simulate", "--sequence", "single-pulse", "--grid-a", "", "--grid-b", "1"
    )
    assert code == 2


def test_search_multiplication_hit(capsys):
    grid = "0.3," + TRIPLE_CSV + ",5.5"
    code, out, _ = run(
        capsys,
        "search",
        "--sequence",
        "single-pulse",
        "--grid-a",
        grid,
        "--grid-b",
        grid,
        "--target",
        "multiplication",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("a1,a2,a3,b1")
    assert len(lines) > 1
    assert any(",15665," in line for line in lines[1:])


def test_search_unreachable_target_is_empty_but_ok(capsys):
    template, delays, freqs = selective_delay_inputs()
    table = evaluate_table(template, delays, freqs)
    target = npn.canonical_index(encode(table.logic))
    grid = "lin:0:6.283185307179586:8"
    code, out, _ = run(
        capsys,
        "search",
        "--sequence",
        "single-pulse",
        "--grid-a",
        grid,
        "--grid-b",
        grid,
        "--target",
        str(target),
    )
    assert code == 0
    assert out.strip().splitlines() == ["a1,a2,a3,b1,b2,b3,table_index,canonical,class_size"]


def test_search_all_reports_every_class(capsys):
    grid = "0.0," + TRIPLE_CSV
    code, out, _ = run(
        capsys,
        "search",
        "--sequence",
        "single-pulse",
        "--grid-a",
        grid,
        "--grid-b",
        grid,
        "--target",
        "all",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "canonical,size,achievable,tables"
    assert len(lines) == 85
    achieved = [line for line in lines[1:] if ",true," in line]
    assert achieved
    mult_canon = npn.canonical_index(encode(multiplication()))
    assert any(line.startswith(f"{mult_canon},54,true,") for line in lines[1:])


def test_search_all_on_a_60_point_grid_counts_every_pair(capsys):
    grid = "lin:0:6.283185307179586:60"
    code, out, err = run(
        capsys, "search", "--sequence", "single-pulse", "--grid-a", grid, "--grid-b", grid,
        "--target", "all",
    )
    assert code == 0, err
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert len(rows) == 84
    assert sum(int(r[3]) for r in rows) == math.comb(60, 3) ** 2 == 1_171_008_400


def test_search_all_counts_16384_a_values(capsys):
    code, out, err = run(
        capsys, "search", "--sequence", "single-pulse", "--grid-a", "lin:0:6.283185307179586:16384",
        "--grid-b", "0.5,1.5,2.5", "--target", "all", "--format", "json",
    )
    assert code == 0, err
    assert sum(c["tables"] for c in json.loads(out)) == math.comb(16384, 3) == 732_873_539_584


def test_template_file_with_unknown_field_exits_2(tmp_path, capsys):
    doc = {
        "peaks": [{"label": "s", "offset_rad_s": 0.0}],
        "sequence": [{"type": "hard_pulse", "beta": "$A", "phi": "$B", "bogus": 1}],
    }
    path = tmp_path / "seq.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for command in ("simulate", "search"):
        extra = ("--target", "all") if command == "search" else ()
        code, out, err = run(
            capsys, command, "--sequence", str(path), "--grid-a", TRIPLE_CSV,
            "--grid-b", TRIPLE_CSV, *extra,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "bogus" in err
        assert len(err.strip().splitlines()) == 1


def test_search_two_peak_template_file(tmp_path, capsys):
    doc = {
        "peaks": [{"label": "A", "offset_rad_s": 0.0}, {"label": "B", "offset_rad_s": 5.0}],
        "sequence": [{"type": "hard_pulse", "beta": "$A", "phi": "$B"}],
    }
    path = tmp_path / "two_peaks.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(
        capsys, "search", "--sequence", str(path), "--grid-a", TRIPLE_CSV,
        "--grid-b", TRIPLE_CSV, "--target", "multiplication",
    )
    assert code == 0, err
    mult = encode(multiplication())
    assert out.strip().splitlines()[1].endswith(f",{mult},{npn.canonical_index(mult)},54")


def test_complex_mul(capsys):
    code, out, _ = run(capsys, "complex", "mul", "1", "0", "0.5", "1.5707963267948966")
    assert code == 0
    assert "logic product (mand/pxnor): r=0.5 theta=1.57079632679" in out
    for line in out.strip().splitlines():
        if line.startswith(("z1,", "z2,", "product,")):
            err_r, err_theta = map(float, line.split(",")[-2:])
            assert err_r < 1e-9 and err_theta < 1e-9


def test_complex_mul_json(capsys):
    code, out, _ = run(
        capsys, "complex", "mul", "0", "0", "1", "3.14159", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["logic_product"]["r"] == 0.0
    assert doc["magnitude_deviation"] <= 1e-15


def test_complex_truth(capsys):
    code, out, _ = run(capsys, "complex", "truth", "1.5707963267948966")
    assert code == 0
    assert "= 0.5" in out


def test_complex_rejects_unencodable_magnitude(capsys):
    code, _, err = run(capsys, "complex", "mul", "1.5", "0", "1", "0")
    assert code == 2
    assert "error" in err


def test_complex_wrong_arity(capsys):
    code, _, err = run(capsys, "complex", "mul", "1", "0")
    assert code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["mul", "1", "0"], "error: complex mul takes 4 value(s)"),
        (["truth", "1", "0"], "error: complex truth takes 1 value(s)"),
        # the count is checked before the encoding constants
        (["mul", "1", "0", "--t1", "inf"], "error: complex mul takes 4 value(s)"),
    ],
)
def test_complex_arity_error_is_one_line(capsys, argv, message):
    code, out, err = run(capsys, "complex", *argv)
    assert (code, out) == (2, "")
    assert err.splitlines() == [message]


def test_usage_errors_exit_2(capsys):
    assert main(["classify", "--radix", "5"]) == 2
    assert main(["nonsense"]) == 2


def test_search_target_out_of_range_exits_2(capsys):
    for target in ("99999", "-1"):
        code, out, err = run(
            capsys, "search", "--sequence", "single-pulse", "--grid-a", "0,1,2",
            "--grid-b", "0,1,2", "--target", target,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and target in err
        assert len(err.strip().splitlines()) == 1


def test_search_t1_template_file(tmp_path, capsys):
    # T1 recovery lets this peak read out past 1 (about 1.2 at $A = 1)
    doc = {
        "peaks": [{"label": "s", "offset_rad_s": 0.0, "t1_s": 1.0}],
        "sequence": [
            {"type": "hard_pulse", "beta": math.pi / 2, "phi": math.pi / 2},
            {"type": "delay", "tau": "$A"},
            {"type": "hard_pulse", "beta": math.pi / 2, "phi": "$B"},
        ],
    }
    path = tmp_path / "t1.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(
        capsys, "search", "--sequence", str(path), "--grid-a", "0,1,5",
        "--grid-b", "0,0.7853981633974483,3.141592653589793", "--target", "all",
    )
    assert code == 0, err
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert sum(int(r[3]) for r in rows) == 1


CLASSIFY_SHA256 = {
    (3, "json"): "36c13643116a637583a0c63d0f56b0abcd28a1f354def9182190dff59bf8d5b0",
    (3, "table"): "f87920adabb6055b931057e54d4f2c32a0daf352fe23fa74fe70ee0f41e6150d",
    (3, "csv"): "89c7b3e8b186dd6e8115b24f0b95962c40a971b4276d2e5827a34af85faa3d8a",
    (2, "table"): "3fffe17b22772dad08ab0d0eddbdef3dd1e43aeb94bbbe22a544f34b61a2e715",
    (2, "csv"): "fa30180bb00fc299a566f2ad2a67fa48876bd2387db06d62cc1d3ddd70031a6e",
}


@pytest.mark.parametrize("radix, fmt", sorted(CLASSIFY_SHA256))
def test_classify_report_bytes_are_pinned(capsys, radix, fmt):
    code, out, _ = run(capsys, "classify", "--radix", str(radix), "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == CLASSIFY_SHA256[radix, fmt]


def classify_report_from_classes(radix):
    """The classify report built from the class objects of
    ``npn.classify_all`` and ``pc.pc_classify_all``, members and all."""
    expected_npn, expected_pc = {2: (4, 4), 3: (84, 33)}[radix]
    values = {2: (0, 1), 3: (-1, 0, 1)}[radix]
    functions = radix ** (radix * radix)
    classes = npn.classify_all(radix)
    pc_classes = [
        {
            "signature": [list(c.signature.first), list(c.signature.second)],
            "member_count": c.size,
            "npn_canonicals": list(c.npn_canonicals),
            "single_npn": c.single_npn,
        }
        for c in pc.pc_classify_all(radix)
    ]
    # every NPN class must land in exactly one PC class
    pc_consistent = sum(len(c["npn_canonicals"]) for c in pc_classes) == len(classes)
    burnside = npn.burnside_count(radix)
    total = sum(c.size for c in classes)
    checks_pass = (
        len(classes) == expected_npn
        and len(pc_classes) == expected_pc
        and total == functions
        and burnside == len(classes)
        and pc_consistent
    )

    def table(canonical):
        digits = npn.digits_of_index(canonical, radix)
        return [[values[d] for d in digits[i : i + radix]] for i in range(0, radix * radix, radix)]

    return {
        "radix": radix,
        "function_count": functions,
        "npn_class_count": len(classes),
        "burnside_count": burnside,
        "pc_class_count": len(pc_classes),
        "pc_consistent": pc_consistent,
        "self_check": "pass" if checks_pass else "fail",
        "npn_classes": [
            {"canonical": c.canonical, "size": c.size, "table": table(c.canonical)}
            for c in classes
        ],
        "pc_classes": pc_classes,
    }


@pytest.mark.parametrize("radix", [2, 3])
def test_classify_report_equals_the_report_of_class_objects(radix):
    report = cli._classify_report(radix)
    assert report == classify_report_from_classes(radix)
    assert report["self_check"] == "pass"


@pytest.mark.parametrize("radix", [2, 3])
def test_classify_fails_its_self_check_when_a_function_leaves_its_pc_class(monkeypatch, capsys, radix):
    original = pc.pc_keys

    def one_function_moved(r):
        key = array("H", original(r))
        moved = next(f for f, c in enumerate(npn.canonical_map(r)) if c != f)  # not a canonical
        key[moved] = next(k for k in key if k != key[moved])
        return key

    monkeypatch.setattr(pc, "pc_keys", one_function_moved)
    report = cli._classify_report(radix)
    assert report["pc_consistent"] is False and report["self_check"] == "fail"
    code, out, _ = run(capsys, "classify", "--radix", str(radix), "--format", "json")
    assert code == 1
    assert json.loads(out)["self_check"] == "fail"


def test_classify_fails_its_self_check_when_a_function_changes_class(monkeypatch, capsys):
    # move a function into another NPN class of the same PC class: class
    # counts, Burnside's count and PC consistency still hold, but the two
    # classes' sizes no longer both divide the group order of 432
    key, original = pc.pc_keys(3), npn.canonical_map(3)
    sizes = Counter(original)
    moved, into = next(
        (f, d)
        for f, c in enumerate(original)
        if f != c
        for d in sizes
        if d != c and key[d] == key[c] and (432 % (sizes[c] - 1) or 432 % (sizes[d] + 1))
    )
    labels = array(original.format, original)
    labels[moved] = into
    monkeypatch.setattr(npn, "canonical_map", lambda radix=3: labels)
    report = cli._classify_report(3)
    assert report["npn_class_count"] == report["burnside_count"] == 84
    assert report["pc_consistent"] is True and report["self_check"] == "fail"
    code, out, _ = run(capsys, "classify", "--radix", "3", "--format", "json")
    assert code == 1
    assert json.loads(out)["self_check"] == "fail"


def test_cold_classify_report_traces_under_1_5_mb():
    # the report needs two 19,683-entry uint16 label arrays, not the members
    # of every class as Python ints (a 3.8 MB peak when built that way)
    script = (
        "import tracemalloc\n"
        "from spinlogic import cli\n"
        "tracemalloc.start()\n"
        "cli._classify_report(3)\n"
        "print(tracemalloc.get_traced_memory()[1])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(spinlogic.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert int(result.stdout) < 1.5 * 2**20


def test_classify_binary_json_lists_npn_canonicals(capsys):
    code, out, _ = run(capsys, "classify", "--radix", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["pc_class_count"] == 4 and doc["self_check"] == "pass"
    assert [c["npn_canonicals"] for c in doc["pc_classes"]] == [[0], [3], [1], [6]]
    assert all(c["single_npn"] and "members" not in c for c in doc["pc_classes"])


def assert_one_error_line(code, out, err, *words):
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    for word in words:
        assert word in err


BOUND_FIELDS_TEMPLATE = {
    "peaks": [{"label": "s", "offset_rad_s": 1.0}],
    "sequence": [
        {"type": "selective_pulse", "beta": 1.0, "phi": 0.0, "target_offset": 1.0, "tolerance": "$B"},
        {"type": "delay", "tau": "$A"},
    ],
}


@pytest.mark.parametrize("command", ["simulate", "search"])
@pytest.mark.parametrize(
    "grid_a, grid_b, word",
    [
        ("0.5,-0.25,1", "0.5,1,2", "delay must be nonnegative"),
        ("0.5,1,2", "0.5,0,1", "tolerance must be positive"),
        ("lin:0:1:1000000000", "0.5,1,2", "1000000000 points exceeds the limit"),
        ("lin:0:1:2000", "lin:0:1:2000", "2000x2000 points exceeds the limit"),
    ],
)
def test_invalid_bound_value_exits_2(tmp_path, capsys, command, grid_a, grid_b, word):
    path = tmp_path / "seq.json"
    path.write_text(json.dumps(BOUND_FIELDS_TEMPLATE), encoding="utf-8")
    extra = ("--target", "all") if command == "search" else ()
    code, out, err = run(
        capsys, command, "--sequence", str(path), f"--grid-a={grid_a}", f"--grid-b={grid_b}", *extra
    )
    assert_one_error_line(code, out, err, word)


@pytest.mark.parametrize("command", ["simulate", "search"])
def test_deeply_nested_template_file_exits_2(tmp_path, capsys, command):
    path = tmp_path / "seq.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    extra = ("--target", "all") if command == "search" else ()
    code, out, err = run(
        capsys, command, "--sequence", str(path), "--grid-a", TRIPLE_CSV, "--grid-b", TRIPLE_CSV, *extra
    )
    assert_one_error_line(code, out, err, "nested too deeply")


@pytest.mark.parametrize(
    "option, value",
    [("--omega-off", "inf"), ("--alpha", "nan"), ("--t1", "inf"), ("--omega-off", "1e-320")],
)
def test_complex_rejects_non_finite_encoding_constants(capsys, option, value):
    code, out, err = run(capsys, "complex", "mul", "0.5", "1", "0.5", "1", option, value)
    assert_one_error_line(code, out, err, option[2:].replace("-", "_"), "finite")


NUMBER_PIECE = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["", "nan", "-inf", "1e400", "1e308", "-1e308", "x", "0", "1", "3.14"]),
)
GRID_SPEC = st.one_of(
    st.lists(NUMBER_PIECE, min_size=1, max_size=5).map(",".join),
    st.builds(
        "lin:{}:{}:{}".format,
        NUMBER_PIECE,
        NUMBER_PIECE,
        st.one_of(st.integers(-2, 20).map(str), st.sampled_from(["", "x", "2.5", "1e1"])),
    ),
)
GOOD_GRID_SPEC = st.lists(st.floats(0.01, 7.0), min_size=3, max_size=5).map(lambda v: ",".join(map(repr, v)))
FIELD = st.one_of(
    st.sampled_from(["$A", "$B", "$C", "x", None, True, 10**400, -(10**400)]),
    st.floats(-10.0, 10.0),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(),
    st.lists(st.integers(), max_size=2),
)
TEMPLATE_VALUE = st.sampled_from(["$A", "$B"]) | st.floats(0.0, 7.0)
TEMPLATE_ELEMENT = st.one_of(
    st.fixed_dictionaries({"type": st.just("hard_pulse"), "beta": TEMPLATE_VALUE, "phi": TEMPLATE_VALUE}),
    st.fixed_dictionaries(
        {"type": st.just("selective_pulse"), "beta": TEMPLATE_VALUE, "phi": TEMPLATE_VALUE,
         "target_offset": TEMPLATE_VALUE, "tolerance": TEMPLATE_VALUE}
    ),
    st.fixed_dictionaries({"type": st.just("delay"), "tau": TEMPLATE_VALUE}),
)


@st.composite
def fuzz_documents(draw):
    """Template file text: a template of random elements and values in which
    up to two fields are set to random values or removed, or now and then
    text that is not a template at all."""
    if draw(st.integers(0, 9)) == 0:
        not_templates = ["", "{not json", "[1, 2]", '{"peaks": 1}', '{"peaks": [], "sequence": []}']
        return draw(st.sampled_from(not_templates))
    peaks = [
        {"label": f"p{k}", "offset_rad_s": draw(st.floats(-5.0, 5.0)), "t1_s": draw(st.floats(0.1, 5.0))}
        for k in range(draw(st.integers(1, 3)))
    ]
    sequence = draw(st.lists(TEMPLATE_ELEMENT, max_size=3))
    sequence.insert(draw(st.integers(0, len(sequence))), {"type": "delay", "tau": "$A"})
    sequence.insert(draw(st.integers(0, len(sequence))), {"type": "hard_pulse", "beta": 1.0, "phi": "$B"})
    for _ in range(draw(st.integers(0, 2))):
        entry = draw(st.sampled_from(peaks + sequence))
        key = draw(st.sampled_from(sorted(entry) + ["bogus", "t1_s", "tau"]))
        if draw(st.booleans()):
            entry[key] = draw(FIELD)
        else:
            entry.pop(key, None)
    return json.dumps({"peaks": peaks, "sequence": sequence})


def run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_answer_or_one_error_line(argv, code, out, err):
    """Exit 0 with a report free of non-finite numbers, or exit 2 with one
    error line."""
    assert code in (0, 2), (argv, code, err)
    if code == 0:
        assert "nan" not in out.lower() and "inf" not in out.lower(), argv
    else:
        assert_one_error_line(code, out, err)


@settings(max_examples=200, deadline=None)
@example("selective-delay", "1e308", "3.14", ())  # the precession angle overflows
@given(
    st.sampled_from(["single-pulse", "two-pulse", "selective-delay"]),
    GRID_SPEC,
    GRID_SPEC,
    st.sampled_from([(), ("--target", "all"), ("--target", "multiplication")]),
)
def test_cli_exit_codes_on_fuzzed_grid_specs(sequence, grid_a, grid_b, target):
    command = "search" if target else "simulate"
    argv = [command, "--sequence", sequence, f"--grid-a={grid_a}", f"--grid-b={grid_b}", *target]
    assert_answer_or_one_error_line(argv, *run_quietly(argv))


HUGE_INT_TEMPLATE = json.dumps(
    {
        "peaks": [{"label": "s", "offset_rad_s": 0.0}],
        "sequence": [{"type": "hard_pulse", "beta": "$A", "phi": "$B"}, {"type": "delay", "tau": 10**400}],
    }
)


@settings(max_examples=400, deadline=None)
@example(HUGE_INT_TEMPLATE, "0,1,2", "simulate")  # an int beyond the float range
@given(fuzz_documents(), GOOD_GRID_SPEC | GRID_SPEC, st.sampled_from(["simulate", "search"]))
def test_cli_exit_codes_on_fuzzed_template_files(document, grid_b, command):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "template.json"
        path.write_text(document, encoding="utf-8")
        extra = ["--target", "all"] if command == "search" else []
        argv = [command, "--sequence", str(path), "--grid-a=0,0.5,2", f"--grid-b={grid_b}", *extra]
        assert_answer_or_one_error_line(argv, *run_quietly(argv))


def test_classify_and_hit_search_do_not_import_numpy_ma(tmp_path):
    # numpy.ma costs a new process 10-15 ms and 1 MB; plain np.unique imports
    # it, so the class count finds its distinct rows by a sort.  Each command
    # also loads only the layers it uses: classify and a usage error load no
    # numpy at all, classify no inspect, and no command dataclasses (each
    # dataclass took about 1 ms to build at import).  simulate and complex
    # load the spin layer alone: none of the search or group layers, whose
    # source a fresh process would compile for nothing.  No command finds a
    # spinlogic module once numpy has begun to load: a module is compiled
    # right after it is found, and one compiled after numpy left about 1 MB
    # more max RSS.
    grid = "lin:0:6.283185307179586:8"
    layers = ["spinlogic.search", "spinlogic.spinsim", "spinlogic.complexlogic"]
    numpy_commands = ["numpy.ma", "dataclasses", "spinlogic.complexlogic", "spinlogic.pc"]
    spin_only = ["numpy.ma", "dataclasses", "spinlogic.search", "spinlogic.npn", "spinlogic.pc"]
    template = tmp_path / "template.json"
    template.write_text(
        json.dumps(
            {
                "peaks": [{"label": "A", "offset_rad_s": 2.0, "t1_s": 1.0}],
                "sequence": [{"type": "hard_pulse", "beta": "$A", "phi": "$B"}, {"type": "delay", "tau": 0.25}],
            }
        ),
        encoding="utf-8",
    )
    commands = [
        (["classify", "--radix", "3"], 0, ["numpy", "dataclasses", "inspect", *layers]),
        (["search"], 2, ["numpy", *layers, "spinlogic.pc"]),
        (
            ["search", "--sequence", "single-pulse", "--grid-a", grid, "--grid-b", grid,
             "--target", "multiplication"],
            0,
            numpy_commands,
        ),
        (["search", "--sequence", "two-pulse", "--grid-a", grid, "--grid-b", grid, "--target", "all"],
         0, numpy_commands),
        (["simulate", "--sequence", "selective-delay", "--grid-a", grid, "--grid-b", grid], 0,
         [*spin_only, "spinlogic.complexlogic"]),
        (["simulate", "--sequence", str(template), "--grid-a", grid, "--grid-b", grid], 0,
         [*spin_only, "spinlogic.complexlogic"]),
        (["complex", "mul", "0.8", "1.0471975511965976", "0.5", "3.141592653589793"], 0, spin_only),
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(spinlogic.__file__).parents[1]))
    for argv, code, unused in commands:
        script = (
            "import contextlib, io, sys\n"
            "late = []\n"
            "class Spy:\n"
            "    def find_spec(name, path=None, target=None):\n"
            "        if name.startswith('spinlogic') and 'numpy' in sys.modules:\n"
            "            late.append(name)\n"
            "sys.meta_path.insert(0, Spy)\n"
            "from spinlogic.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
            f"    assert main({argv!r}) == {code}\n"
            f"print([m for m in {unused!r} if m in sys.modules], late)\n"
        )
        result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout == "[] []\n", argv
    # importing the CLI loads no group layer: each command loads its own
    script = "import sys\nimport spinlogic.cli\nprint([m for m in sys.modules if m.startswith('spinlogic.')])\n"
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "['spinlogic.ternary', 'spinlogic.cli']\n"


# --- hit reports -----------------------------------------------------------------

CLASS_SIZES = {c.canonical: c.size for c in npn.classify_all(3)}


def hit_report_from_objects(rows, grid_a, grid_b, fmt):
    """The hit report as built from one object per hit: json.dumps of a list
    of dicts, or one joined CSV line per hit."""
    hits = []
    for r in rows.tolist():
        canonical = npn.canonical_index(r[6])
        hits.append(
            {
                "a_values": [grid_a[i] for i in r[:3]],
                "b_values": [grid_b[j] for j in r[3:6]],
                "table_index": r[6],
                "canonical": canonical,
                "class_size": CLASS_SIZES[canonical],
            }
        )
    if fmt == "json":
        return json.dumps(hits, sort_keys=True, indent=2) + "\n"
    lines = ["a1,a2,a3,b1,b2,b3,table_index,canonical,class_size"]
    for h in hits:
        values = [format(v, ".12g") for v in (*h["a_values"], *h["b_values"])]
        lines.append(",".join(values + [str(h["table_index"]), str(h["canonical"]), str(h["class_size"])]))
    return "\n".join(lines) + "\n"


GRID_VALUES = st.lists(
    st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 5e-324, 1e300]),
    min_size=1,
    max_size=8,
)
EDGE_VALUES = [-0.0, 5e-324, 1e300, 0.1, -2.5]


@settings(max_examples=60, deadline=None)
@example(EDGE_VALUES, EDGE_VALUES, 0, 0, "json")
@example(EDGE_VALUES, EDGE_VALUES, 0, 0, "csv")
@example(EDGE_VALUES, EDGE_VALUES, 700, 1, "json")  # more rows than one write holds
@example(EDGE_VALUES, EDGE_VALUES, 700, 2, "csv")
@given(
    GRID_VALUES,
    GRID_VALUES,
    st.sampled_from([0, 1, 255, 256, 257, 513]) | st.integers(0, 20),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["json", "csv"]),
)
def test_streamed_hit_report_equals_the_report_of_hit_objects(grid_a, grid_b, count, seed, fmt):
    rng = np.random.default_rng(seed)
    rows = np.column_stack(
        (
            rng.integers(0, len(grid_a), (count, 3)),
            rng.integers(0, len(grid_b), (count, 3)),
            rng.integers(0, 3**9, count),
        )
    ).astype(np.int32)
    pieces = list(cli._hit_report(rows, grid_a, grid_b, fmt))
    assert "".join(pieces) == hit_report_from_objects(rows, grid_a, grid_b, fmt)
    # a few hundred rows per piece, besides the head and the tail
    assert len(pieces) <= 3 + count // 200


def simulate_report_whole(grid_a, grid_b, values, fmt):
    """The simulate report built in one string from ``values.tolist()``."""
    rows = values.tolist()
    if fmt == "json":
        doc = {"grid_a": grid_a, "grid_b": grid_b, "values": rows}
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if fmt == "table":
        return "\n".join(" ".join(f"{x:>12.6f}" for x in row) for row in rows) + "\n"
    lines = ["a\\b," + ",".join(format(b, ".12g") for b in grid_b)]
    for a, row in zip(grid_a, rows):
        lines.append(format(a, ".12g") + "," + ",".join(format(x, ".12g") for x in row))
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None)
@example(EDGE_VALUES, EDGE_VALUES, 0, "json")
@example([0.5], EDGE_VALUES, 1, "json")  # one row
@example(EDGE_VALUES, [-0.0], 2, "csv")  # one column
@example([5e-324], [1e300], 3, "table")
@given(GRID_VALUES, GRID_VALUES, st.integers(0, 2**32 - 1), st.sampled_from(["json", "csv", "table"]))
def test_streamed_simulate_report_equals_the_whole_string(grid_a, grid_b, seed, fmt):
    rng = np.random.default_rng(seed)
    shape = (len(grid_a), len(grid_b))
    values = np.where(
        rng.random(shape) < 0.3,
        rng.choice(EDGE_VALUES, shape),
        rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape),
    )
    pieces = list(cli._simulate_report(grid_a, grid_b, values, fmt))
    assert "".join(pieces) == simulate_report_whole(grid_a, grid_b, values, fmt)
    # one piece per grid row, besides the grids and the closing brackets
    assert len(pieces) == len(grid_a) + {"json": 2, "csv": 1, "table": 0}[fmt]


T1_THREE_PEAKS = {
    "peaks": [
        {"label": "p1", "offset_rad_s": 2.0, "t1_s": 1.0},
        {"label": "p2", "offset_rad_s": 5.0, "t1_s": 0.7},
        {"label": "p3", "offset_rad_s": 8.0},
    ],
    "sequence": [
        {"type": "hard_pulse", "beta": "$A", "phi": 0.3},
        {"type": "delay", "tau": 0.25},
        {"type": "selective_pulse", "beta": math.pi / 2, "phi": "$B",
         "target_offset": 5.0, "tolerance": 1.0},
        {"type": "delay", "tau": 0.15},
    ],
}


def test_multi_peak_simulate_report_is_pinned(tmp_path, capsys):
    # the peaks are summed in read_mx order, which sets the last bits of each
    # readout: summed in another order, they change this hash
    path = tmp_path / "three_peaks.json"
    path.write_text(json.dumps(T1_THREE_PEAKS), encoding="utf-8")
    code, out, _ = run(
        capsys, "simulate", "--sequence", str(path), "--grid-a", "lin:0:6.283185307179586:12",
        "--grid-b", "lin:0.3:5.9:10", "--format", "json",
    )
    assert code == 0
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == "e2a5d9d5a6f178efbddf4d18ff9e6451f94768aec92292077fa3362de6cd8df9"


LAUNCHER = (
    "import os, sys\n"
    "pid = os.fork()\n"
    "if pid == 0:\n"
    "    os.execv(sys.executable, [sys.executable, '-m', 'spinlogic.cli', *sys.argv[1:]])\n"
    "_, status, usage = os.wait4(pid, 0)\n"
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
)


def test_hit_search_past_the_cap_exits_2_in_bounded_memory():
    # every one of the C(30,3)**2 = 16,483,600 pairs of a constant grid is a
    # hit; kept as hit objects they would take gigabytes.  The CLI runs in a
    # child of a small launcher, so that wait4 reports the child's own peak.
    argv = ["search", "--sequence", "single-pulse", "--grid-a", "lin:0:0:30",
            "--grid-b", "lin:0:6:30", "--target", "9841"]
    env = dict(os.environ, PYTHONPATH=str(Path(spinlogic.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-S", "-c", LAUNCHER, *argv], env=env, capture_output=True, text=True
    )
    code, max_rss_kb = map(int, result.stdout.split())
    assert code == 2
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("error:") and "16483600" in result.stderr
    assert max_rss_kb < 200 * 1024
